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
        "0b7217f2230a819c8aab08c8f8e94ff48e3689dec6aae654781493bcd7d44b88",
    "acool-crash_silent-lifo":
        "a244eb3d2b74ce1ded082dada904611b7d213f03ca082c3305a10baee8998fe6",
    "acool-crash_silent-uniform":
        "95bc0a0b3fbfd834b63ebc59a4d794609077764824abeeb74186d18995b9f560",
    "acool-equivocate_symbols-adversary":
        "39a54a8f3737df2c684f5686170d8b40f962756e1b1452b1e240616184c308f8",
    "acool-equivocate_symbols-lifo":
        "26fe5b280cfd58efdde62fc99111c99cac2d96c62b636276a7c3b1b4f5dd7860",
    "acool-equivocate_symbols-uniform":
        "361f634dff52ecbed023d5e3dbd80b1c21b1e6a6f3015234a89449339f0f3b25",
    "acool-garbage_shares-adversary":
        "79216692f192dc48b2e026a9484ffbdcea46d3aae19f1f865fb9d32206a64aa7",
    "acool-garbage_shares-lifo":
        "41b9e3f472f68fef6a745baa3c8fa1c5faba0b3f05daf28377dfe0be12252c3b",
    "acool-garbage_shares-uniform":
        "aaba00b1348f294eefa42c9cc84216a6d670f5fcd7ba378567a50e47d122c5ca",
    "acool-k2-equivocate":
        "64a297f4cec7f04abb2ad01a3cf830bdb3f295f1efc827015f97d4aaa0e83378",
    "acool-k2-garbage":
        "9e64a58929782ff3a5a25bbd5eb673ccb984540fb25c532fb047a78b8517e8f1",
    "acool-k3-garbage":
        "b00b365b82d13e5c5fab2b4a525fce7ed82ff70e1b275e14113b73bae85494c6",
    "acool-k5-clean":
        "483bc8fe72ec72ee605911bad57b5690e12bd98f434d93397d4975894dfc9f12",
    "acool-k5-garbage":
        "166f68dc8fb15bdcd2eec846687447b920d83029865f87edf4329a65161d0a71",
    "acool-legacy-garbage-lifo":
        "4cd416acf17cf571357b2cfc5ed81fc7767e0835404d12a325fe793b093f65d2",
    "acool-none-adversary":
        "bdee36f7cc78cd132b139e1e2ac7eeb9118998b808607e5eaeb8da48af82084e",
    "acool-none-lifo":
        "517a7253a5f73af65d92b0e82501e338e84d94cb1376261012483ace431950fe",
    "acool-none-uniform":
        "372273dfd1641ab215ee9f980e1284875662a2f3d6a650e82578837973942fbc",
    "acool-partial-inputs":
        "a3483e09eb469914663a0d6866cbab873fc8a30480d31591d2e37f7a40b0f308",
    "acool-random_byzantine-adversary":
        "594d1ac6eef829448890870fa1d26b8853859a538c9610ab0ef0f38762efad8b",
    "acool-random_byzantine-lifo":
        "7d2a087badcde315145df3da822631ba3229c1ac24e4450a0676cdb18ea6af03",
    "acool-random_byzantine-uniform":
        "cf52079b2c2454cb6b0d747861fea5a84933201823174bdefcdc165c91b6918a",
    "acool-ready_spammer-adversary":
        "98e5bdf6121c988d43572470a8556d74242f85f994c46f84aba9ee6252d4a236",
    "acool-ready_spammer-lifo":
        "bdc3f6844168d3e712c681c8ba19e524d1c3a007b4f477487b996daa86a507b6",
    "acool-ready_spammer-uniform":
        "713e8ce5a5fd21d77d1b1a9a5afd8677716234d31c913c52a35851e37cecc7dd",
    "acool-skip-brba-counted":
        "91efa1fd36470ee1ecb7ae60d8fa2b64affdcce0480b4ec94f89e884fd842c62",
    "acool-split_input_builder-adversary":
        "518c6f69d72d6a442bcb8d0eaa971623e72d68f515e3c8a94e96b442abe9d8f6",
    "acool-split_input_builder-lifo":
        "ca8cd683ca6a279796f57bf96ea64e8240807b8499f8e3410fa2c2e05b7e765b",
    "acool-split_input_builder-uniform":
        "c441d163feeb46a68dc2b645b4805e0aa635271e449ea4a9b43e8804cb0c1eb9",
    "acool-two-camp":
        "9597367f798f3208cbeb05deebc7ec96f8bdee033ab1302e7d66596336cf7d03",
    "acool-withhold_from_subset-adversary":
        "cdf1baff9eb9309e76a6c74aef98f1eeacd87e6b4dba303ee650b258a0e5af10",
    "acool-withhold_from_subset-lifo":
        "f27a76b136b29eaba987b3833e01b3aed19afa3719fe053770e1f3cbe3d4c6b5",
    "acool-withhold_from_subset-uniform":
        "926d6b69cc58de970c26bfdadd745d87a687ca6fe24caec3e3437bedfad944e6",
    "coin-equivocate":
        "5b356f33b07bbc390694f2ae3996eb9f27d42ced7a0ec33d2b75fd7cfcd59a9e",
    "coin-random":
        "61e66352b8d06ef815c49b1493aef1935e1af3f5ce1db57f55845f2c8eb565bb",
    "rba-equivocate":
        "ff719617e1bdc53925098c1ea8865409970f9daee25f3052071915375e7ac26b",
    "rba-none":
        "f0c8e7834f6f952d1cf11800c97235c2b79d13c395707272428cdfe9013ac0e1",
    "rbc-byzantine-leader":
        "6733b1e300538c34dfba731d2e2ef6a889ab2c5e13b345fc8e7baf21ab830c4a",
    "rbc-honest-leader":
        "0e03e7cbf1f48d6ffaabdf143d916d6a9b434602d036b90aa2d4d6c2af21a7e8",
    "rbc-unbalanced":
        "685f491ca8739b7f8dd8c09af480a8fbf222f594659dec467f6dca85a13fc628",
    "small_t-bottom":
        "f885dc20fe089dcd717ac9b872c6469b7aa34dd1e017ae7be53bf183aa16e267",
    "small_t-coin":
        "a592150e5f074fe0c523a7ff674c04f6329b7c442ac9e2a2249d5aad99c97303",
    "small_t-garbage":
        "bca3bfc64a6d0b713380d954596c3164db8da39962c86c4b4333a7b729ae0e39",
    "split-input-coin":
        "77d6cf738e409b86d7fb7ae3a36024afad26294a510cd33651a3d6d8b7f74f4b",
    "split-input-legacy":
        "c396e85b109d8fb98b45bea65c35dcd080c12511a612f265c7fd7d42d2796010",
    "split-input-legacy-stall":
        "aafcf496623386bcccb3a1c3084d7a095d59e24a0fac00531c7b3f6cdef8cd72",
    "split-input-live":
        "4caa8170647c069bf7319bccb5debaae041f03691d0935d6fb41daaf4aed4892",
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
    chunk 0 went first, all 58 failing `decode_elements` calls got
    past their first chunk; `test_same_length_messages_fail_on_the_lead_chunk`
    keeps the lead-first order covered on copies."""
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
