"""Golden replay corpus: pinned digests of full run reports and event logs.

Each case runs one small seeded config and hashes ``to_json()`` plus
``log_ndjson()``.  The cases span every protocol, Byzantine strategy and
scheduler, the split-input scenario (live and legacy composition), the
coin-based binary agreement and code geometries with k > 1.  A change
that claims unchanged behaviour must leave every digest as it is; a
change that alters run bytes on purpose updates the digests and says why.
"""

import hashlib
from dataclasses import replace

import pytest

from acool.simnet import SimConfig, run, scenario_split_input


def _two_camp(cfg: SimConfig) -> SimConfig:
    a, b = cfg.default_message(1), cfg.default_message(2)
    return replace(cfg, inputs={i: a if i <= cfg.n // 2 else b
                                for i in range(1, cfg.n + 1)})


def _cases() -> dict:
    cases = {}
    strategies = ("crash_silent", "equivocate_symbols", "garbage_shares",
                  "withhold_from_subset", "split_input_builder",
                  "ready_spammer", "random_byzantine")
    schedulers = ("uniform", "lifo", "adversary")
    for i, adversary in enumerate(strategies):
        for j, scheduler in enumerate(schedulers):
            cases[f"acool-{adversary}-{scheduler}"] = SimConfig(
                n=7, t=2, seed=10 * i + j, msg_len_bits=64,
                adversary=adversary, scheduler=scheduler, abba_hint=(i + j) % 2)
    for scheduler in schedulers:
        cases[f"acool-none-{scheduler}"] = SimConfig(
            n=10, t=3, seed=3, msg_len_bits=128, scheduler=scheduler)
    cases["acool-two-camp"] = _two_camp(SimConfig(
        n=10, t=3, seed=4, msg_len_bits=64, adversary="equivocate_symbols",
        abba_hint=1))
    cases["acool-partial-inputs"] = SimConfig(
        n=7, t=2, seed=5, msg_len_bits=64, adversary="garbage_shares",
        inputs={i: b"partial!" for i in range(1, 6)})
    cases["acool-k2-garbage"] = SimConfig(
        n=19, t=6, seed=6, msg_len_bits=256, adversary="garbage_shares",
        scheduler="adversary")
    cases["acool-k2-equivocate"] = _two_camp(SimConfig(
        n=19, t=6, seed=7, msg_len_bits=256, adversary="equivocate_symbols"))
    cases["acool-k3-garbage"] = SimConfig(
        n=31, t=10, seed=21, msg_len_bits=512, adversary="garbage_shares",
        scheduler="adversary")
    cases["acool-k5-clean"] = SimConfig(n=49, t=16, seed=22, msg_len_bits=512)
    cases["acool-k5-garbage"] = SimConfig(
        n=49, t=16, seed=23, msg_len_bits=256, adversary="garbage_shares",
        scheduler="adversary")
    cases["acool-skip-brba-counted"] = SimConfig(
        n=7, t=2, seed=8, msg_len_bits=64, adversary="ready_spammer",
        skip_brba=True, count_abba_bits=True, count_byzantine_bits=True)
    cases["coin-equivocate"] = SimConfig(
        n=7, t=2, seed=9, msg_len_bits=64, abba="coin",
        adversary="equivocate_symbols")
    cases["coin-random"] = SimConfig(
        n=7, t=2, seed=10, msg_len_bits=64, abba="coin",
        adversary="random_byzantine", scheduler="lifo")
    cases["split-input-live"] = scenario_split_input(
        10, 3, seed=11, msg_len_bits=64)
    cases["split-input-coin"] = scenario_split_input(
        10, 3, seed=12, msg_len_bits=64, abba="coin")
    cases["split-input-legacy"] = scenario_split_input(
        10, 3, seed=13, msg_len_bits=64, legacy_cool=True, event_cap=20_000)
    cases["split-input-legacy-stall"] = scenario_split_input(
        7, 2, seed=5, msg_len_bits=64, abba="coin", legacy_cool=True,
        event_cap=30_000)
    cases["acool-legacy-garbage-lifo"] = SimConfig(
        n=10, t=3, seed=1, msg_len_bits=64, adversary="garbage_shares",
        scheduler="lifo", abba_hint=1, legacy_cool=True, event_cap=20_000)
    cases["rba-none"] = SimConfig(n=7, t=2, seed=14, msg_len_bits=64,
                                  protocol="rba")
    cases["rba-equivocate"] = SimConfig(
        n=7, t=2, seed=15, msg_len_bits=64, protocol="rba",
        adversary="equivocate_symbols", scheduler="adversary")
    cases["rbc-honest-leader"] = SimConfig(
        n=7, t=2, seed=16, msg_len_bits=64, protocol="rbc",
        adversary="garbage_shares")
    cases["rbc-byzantine-leader"] = SimConfig(
        n=7, t=2, seed=17, msg_len_bits=64, protocol="rbc", leader=7,
        adversary="equivocate_symbols", scheduler="lifo")
    cases["rbc-unbalanced"] = SimConfig(
        n=7, t=2, seed=18, msg_len_bits=64, protocol="rbc", balanced=False)
    cases["small_t-garbage"] = SimConfig(
        n=13, t=1, seed=19, msg_len_bits=64, protocol="small_t",
        adversary="garbage_shares")
    cases["small_t-coin"] = SimConfig(
        n=13, t=2, seed=20, msg_len_bits=64, protocol="small_t", abba="coin",
        adversary="random_byzantine", scheduler="adversary")
    # split committee inputs and a zero hint: the committee decides bottom
    # and disperses markers, so this pins the send order of that dispersal
    cases["small_t-bottom"] = SimConfig(
        n=10, t=1, seed=2, msg_len_bits=64, protocol="small_t",
        inputs={1: b"aa", 2: b"aa", 3: b"bb", 4: b"bb"}, abba_hint=0)
    return cases


CASES = _cases()

DIGESTS = {
    "acool-crash_silent-adversary":
        "e71cdbb3e8f73f8a8ce2fdcb01358d72043b2867aecadcac15eb6ac7bc7cdffd",
    "acool-crash_silent-lifo":
        "d73230496890d56f19349b1c5f92cf05ce400cf66fda7b115cd5dbf7a89e1a2f",
    "acool-crash_silent-uniform":
        "a328d07264ddabf35d1fd9fdef018e4ad9d9467fd52bffefa2b572438446e076",
    "acool-equivocate_symbols-adversary":
        "e845ea0c1c4fd7971bcc844146f656f6e6a2aae272fa93dbc247aa627ef4e3c0",
    "acool-equivocate_symbols-lifo":
        "7bd30ad61065b0d5d4efd9cc1a85da15a4be735790c566fb82208b9e0be812ea",
    "acool-equivocate_symbols-uniform":
        "2727aba0854c4ff44ef22664b409af7ae19dad9700cb739937e7850bc9dc88a6",
    "acool-garbage_shares-adversary":
        "b9edaaf4cf0454fdde9d0502381bd144b0ecedbcc4b4196b9e44a1b6ca61a308",
    "acool-garbage_shares-lifo":
        "8b8b1b22a4bf8cff6d56778785624d3640231a2ca3b2f285a4bc917aef0e2ac8",
    "acool-garbage_shares-uniform":
        "d10f7ddc86879dbdcd1f553ddb00048358cf947051249e395ddc2f01510c55ab",
    "acool-k2-equivocate":
        "6126be66ce1a8e468d4d7e7f6a12027ea166077998ecb6c0105030e67b2edd1a",
    "acool-k2-garbage":
        "53281bd8712ca70b9cbbbfc3212a09bb52705ca5c5159f7ace50fc00fa54abd8",
    "acool-k3-garbage":
        "bbb47dc862843d967b243ddb17958455c39cc2976e5d709739dc1fa2354a5efd",
    "acool-k5-clean":
        "11df3c26d2c71dac4bede568a09f53ea788583b529139b45669e7539592da1c3",
    "acool-k5-garbage":
        "63b8cf4ed7d31378dc489ff794bc64e2d689ad783a8420dd412b1458cfc40101",
    "acool-legacy-garbage-lifo":
        "d9f3e4bbdfbfab7b661315c702f918eeade52a5f01b74c0282971796975ac2a7",
    "acool-none-adversary":
        "a813a86cfbebd2aa0657cf7311eae76de2fcdbe7aa9f580811351e3a74bad9f3",
    "acool-none-lifo":
        "53118cae69a9a84640b7a07546ebea6a5fe309d1d760f7dffb9b7d5b792716ff",
    "acool-none-uniform":
        "67f79a3de36541185829acea205e83ce3844e08a2705a515a2dd55f078f9cb17",
    "acool-partial-inputs":
        "02f2907f504a734a8d1606b19ec2b633be156d72acc7856c90f35d93726a6578",
    "acool-random_byzantine-adversary":
        "a0eb039d010ba834e6801da64d49ea0da7a8c5719a1dbe9e7cae6c417a422dee",
    "acool-random_byzantine-lifo":
        "445e22616fb329be9276eff20ca16fdcb0ea7f25a992be9d6f5cdcd6ef14724a",
    "acool-random_byzantine-uniform":
        "914f919100257d30c28cced882c527065fc9682892e31feca86cbf53605a1001",
    "acool-ready_spammer-adversary":
        "cc7ba82cb549c28d5f42a8049e04c099272d59f69da7aa0ef913d5e31d7dac0d",
    "acool-ready_spammer-lifo":
        "f2de712a49250ddd1797606c23cecc0c1d98fd8db2457862e038e99593ee700b",
    "acool-ready_spammer-uniform":
        "36b81d744a9baf513ed3890f5ba9d92e1d63fae54cc792f277ce3c73adc266e7",
    "acool-skip-brba-counted":
        "f5fd49302e9f58e90a021fe64628c42f711aedb87198b85e53a101b4ba1b2b18",
    "acool-split_input_builder-adversary":
        "ec587cdd8728eccc61b5d290137845b93642c4f44edd52c8cd63b89df1c23f73",
    "acool-split_input_builder-lifo":
        "a2078c444cefd226531d1fc8512b0c3f8791b5d0f70d1341d02cccdb615415e6",
    "acool-split_input_builder-uniform":
        "e75cb0b2245545075484214f5e89d7bf868a6fd11c8289c2c2c97e542264712e",
    "acool-two-camp":
        "93572194189c5faf46a98646e2624b8baf7110c2b281a6ef9507c76c33d8d2e0",
    "acool-withhold_from_subset-adversary":
        "a40f840456852eab076821e05e4f0d9f279e88114d92ad6b85fca503b35dcea5",
    "acool-withhold_from_subset-lifo":
        "6a1ab1cd5fbadb9b29e99bd083f753ad56d08656f1f774b739a692b8aa5f21c3",
    "acool-withhold_from_subset-uniform":
        "c0b5ec1c0370fbce785601aa422367757ba3f12a6d1fb33df1edf6eb74d56b1e",
    "coin-equivocate":
        "a5db1a277a854a1cb440642c341b6d7107c6e67e6417ef86d90aeb01855d4b9c",
    "coin-random":
        "054633bd080b9d75a7687b18f38d517fb31aec0b92c887f2a83a3dd7d8f90ed1",
    "rba-equivocate":
        "6f992f064668caa0d428300019c60277b09a672a81affff1b3cf1fe41aab1f59",
    "rba-none":
        "31350c9803be19b916b1868a6c2b7a551f2cb0b128a6a500ecdd208ebc5c65ec",
    "rbc-byzantine-leader":
        "fb114304d508e5b886afc81f49f94b466d577b24ad726cdfd0a6d407121d8416",
    "rbc-honest-leader":
        "9cd6e055c7b363fd56ce6bc12fd51850c033094cf4212e305ae7cef2cab8473f",
    "rbc-unbalanced":
        "06d1a7fc844e280e2e5b020540d8e9deb4b162ed3bb1db4c597903c6d86bce79",
    "small_t-bottom":
        "6bddf6aae4406c6889b8ceaf8961c79d985d1484c2066c734dd2d63cf667e05f",
    "small_t-coin":
        "c21504a5827d8b4c5cdd0510f1d47fb9492e7ad658f93a78f7f1a0afa866046f",
    "small_t-garbage":
        "fc1956bb8c3769c965febf8b584d35a43ad86f101e3374d6d03af010fba54f6d",
    "split-input-coin":
        "93573043b75291c4e3e1441a504368534470235e5d646856db92a7c4cd622a47",
    "split-input-legacy":
        "50bac33071e83f3599c5fde8e49cac224bdc373c7db91c2a63b32751413fc88e",
    "split-input-legacy-stall":
        "2b18c596b0ebedafaf40064d2498ebdf79a47e0a6b1a50ca6e8637e9078c4d07",
    "split-input-live":
        "99eb2b12faf6f22d11ba6b18deb14421ea4ae776577f9fb12730ffac11bd422d",
}


def digest(cfg: SimConfig) -> str:
    report = run(cfg)
    blob = report.to_json() + "\n" + report.log_ndjson()
    return hashlib.sha256(blob.encode()).hexdigest()


def test_corpus_covers_every_case():
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_digest(name):
    assert digest(CASES[name]) == DIGESTS[name]


def test_k3_garbage_run_makes_no_successful_full_decode(monkeypatch):
    """Every decode that succeeds in this run holds m - e rows of one
    memoised message, so the accumulator answers it from its memo tallies
    and no `decode_elements` call returns.  Most failures are certified
    from the tallies as well, with no full decode.  When only maps made wholly of
    memo rows were answered from the memo, 62 of 670 calls returned;
    before an accumulator skipped the attempts its last failure rules
    out, 608 calls were made, and before the memo certified failures,
    239."""
    from acool import field_ecc

    decode_elements = field_ecc.decode_elements
    calls = []

    def counted(*args, **kwargs):
        calls.append(False)
        result = decode_elements(*args, **kwargs)
        calls[-1] = True
        return result

    monkeypatch.setattr(field_ecc, "decode_elements", counted)
    report = run(CASES["acool-k3-garbage"])
    assert report.ok
    assert len(calls) == 6 and not any(calls)


def test_byzantine_leader_decode_failures_stop_at_the_lead_chunk(monkeypatch):
    """An equivocating leader's two messages have one length, so they agree
    on every chunk before the lead chunk, which holds only the length
    prefix.  Every honest share here is a memo row of one of the two, so
    every attempt that fails in this run is certified on the lead chunk
    by the accumulator's memo tallies, with no `ecc_decode` call.  When
    chunk 0 went first, all 58 failing `decode_elements` calls reached
    `_fit`; `test_same_length_messages_fail_on_the_lead_chunk` keeps that
    order covered on copies."""
    from acool import field_ecc

    decode_elements, ecc_decode = field_ecc.decode_elements, field_ecc.ecc_decode
    submit = field_ecc.OecAccumulator.submit
    full, decodes, failures = [], [], []

    def counted(*args, **kwargs):
        full.append(1)
        return decode_elements(*args, **kwargs)

    def decoded(*args, **kwargs):
        decodes.append(1)
        return ecc_decode(*args, **kwargs)

    def failing(acc, *args):
        attempts = acc.attempts
        got = submit(acc, *args)
        if acc.attempts > attempts and got is None:
            failures.append(1)
        return got

    monkeypatch.setattr(field_ecc, "decode_elements", counted)
    monkeypatch.setattr(field_ecc, "ecc_decode", decoded)
    monkeypatch.setattr(field_ecc.OecAccumulator, "submit", failing)
    report = run(SimConfig(n=13, t=4, seed=0, msg_len_bits=1024,
                           protocol="rbc", leader=13,
                           adversary="equivocate_symbols"))
    assert report.ok
    assert full == [] and decodes == [] and failures


if __name__ == "__main__":
    # print the digest table, e.g. after a deliberate change of run bytes:
    # PYTHONPATH=src python3 tests/test_replay_golden.py
    for name in sorted(CASES):
        print(f"{name}: {digest(CASES[name])}")
