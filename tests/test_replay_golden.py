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
    return cases


CASES = _cases()

DIGESTS = {
    "acool-crash_silent-adversary":
        "9084253c152fea6a0930433778432344bc2d0340d046ea072012322047098ff4",
    "acool-crash_silent-lifo":
        "aab86236b77659587e71987d689f19da6106be37bd5393b205133ec045810bca",
    "acool-crash_silent-uniform":
        "0239ebbcca3fc42bcfd95232dd7e9596b2bef4459cdf5712e00d627f779bcd1a",
    "acool-equivocate_symbols-adversary":
        "b6f10b845a61274fe76fbe2f03b8eabfe57bf8fd683da3c7179b7bbeee84c5a3",
    "acool-equivocate_symbols-lifo":
        "a720e0661498482ff05f4b04c3b9e6da1c123d01bac2cc6a66a4385e2969bad5",
    "acool-equivocate_symbols-uniform":
        "e350937450f12270dea99df61ec2f718b74881ed2a64a8e507d2d29df15af3e7",
    "acool-garbage_shares-adversary":
        "694286fa2c5d78d0a49e54b06a8daddc2086827e6c8f8738203ae4a6353af076",
    "acool-garbage_shares-lifo":
        "3e5d2b6d90d0feaea5297b20a9d233e8d979b0175c9d58bae7c295e56f016873",
    "acool-garbage_shares-uniform":
        "a08c76e8f7f40149ab48933dba157fe126db9e574acca150193fc133f0066f2e",
    "acool-k2-equivocate":
        "71dba029b5c7f9b5d5622eab2f14a8bf3d76f13a5ba53041bf5f8808a53f630b",
    "acool-k2-garbage":
        "7f9dce9076aab3eec8edc43e26a7c9f45825654766dea8f9b1ed165b3aee4426",
    "acool-k3-garbage":
        "e2b1aa897c5d73112ccbdd1a94fb57f890a40fc9274c87bb1436055ef56926a6",
    "acool-k5-clean":
        "9ae2db94ae6b8038a581d5945621dc16bb85573ae8eb65f82796458c9f564fdc",
    "acool-k5-garbage":
        "0dc88c3be9246ce87efc3ea4424c77dd54fee40999498f88bd8e33d4b906feba",
    "acool-legacy-garbage-lifo":
        "35585652cb659b70aa35794cd46d02c073a182e1f13769c33f33bbc2c0714bbc",
    "acool-none-adversary":
        "7e19cd31a501bcffb191e87982e1b3c29209aacaa4e99fa99fb4ea1e6bc72a15",
    "acool-none-lifo":
        "09555fe95691cb623826e5719aaa46ec45d541bbfe2737d328fe78a0a9fd2dad",
    "acool-none-uniform":
        "ff2754d72db5f6a5c062df4289f6da4a1f9e46f0cc9af804efd7ee7e0f08eb0a",
    "acool-partial-inputs":
        "7344012a0201d8706075b2b11366af7ae2d1ba637330b5c3ddef44d360abfbb6",
    "acool-random_byzantine-adversary":
        "4e4853ead754d125fd18b7f2d15b48343c09c3e7692fec05be6c4b78b6f54c0a",
    "acool-random_byzantine-lifo":
        "a8b678b8594e5da119e5dad79a69497f07ebc005a694a5b2ffc6c85c5e75acdc",
    "acool-random_byzantine-uniform":
        "00ee5e4b0a3d58d6b9903a9585a060bf95b31cf17ae416d4a2cd5122d4354c3e",
    "acool-ready_spammer-adversary":
        "8669df773a07b8da52b33846ad0a8b1d3cdf469c4afc01aba2db0376b94c25da",
    "acool-ready_spammer-lifo":
        "2ff801f9c88b66348242b2f2c2235317ec43a4025d20ec6948e654f0eac10501",
    "acool-ready_spammer-uniform":
        "3037104961bacb432bd7d5c417bc043c317d0b985c5a546438cc9ec537bfe899",
    "acool-skip-brba-counted":
        "5b5bcca919b8b9f52945e87378a66092fe0bdcde285f287a5043bed6d5074c35",
    "acool-split_input_builder-adversary":
        "ca7bb319126f5d4e6202dacf4e1b3e8e6592d7eecb23b2f285706a59bfe848ed",
    "acool-split_input_builder-lifo":
        "db356782116895bb96b02b56948e927f14d05450c8331fa4690d52557fa62b56",
    "acool-split_input_builder-uniform":
        "478b4beabdf45aff96c34003ece10fe7765509b29015b566decb2d0b510efa1c",
    "acool-two-camp":
        "7be06512395f2e11bb2978372129fe7533fac050d22168b3df63d76388f423ba",
    "acool-withhold_from_subset-adversary":
        "e301851c4f72c092ffc3b60ea52b6b4e8b0d98aff3dddd3a5da996168b70095b",
    "acool-withhold_from_subset-lifo":
        "63d37b47c0cb09fb7911c3fa3b7dc6517647061e9a0db15c00ced0dfc548c69f",
    "acool-withhold_from_subset-uniform":
        "d203f63ce552432719a864e71df456b8c98e64e466ae6a1c97544c9341072c79",
    "coin-equivocate":
        "f132853914bf775db164014c76ed6b904b0902c5c7ed72c4c1be77c463875875",
    "coin-random":
        "d3704bb8d1b6a1c1837c5e78055a578e68c5f1ab7e3f6acd56f633b01d9f731f",
    "rba-equivocate":
        "2d4e548f5c39f4f3fc60231d9ea1f6117d2fc38f714561c90d2637b6577a4157",
    "rba-none":
        "3540de4ba01cee56ddc15f003754c5c31e50c7b34b35aa65e7c8273f3013d0af",
    "rbc-byzantine-leader":
        "7a1c6e1b800834ccb1abcac045c8f3a88f38863727f1adc255b92ab130137da1",
    "rbc-honest-leader":
        "08a5382e5c5a60c400c4b4ff7f4c4ce64052352a315fdbb22530ca21ba3f0fea",
    "rbc-unbalanced":
        "a80addede8651ed3f26547c6d7e63db829801b29a7d339ded65328e07705a9a8",
    "small_t-coin":
        "b38c23c8c35a6470739541d20b4b25c42f8038440574786f0730f0f51ed35678",
    "small_t-garbage":
        "37a040a00e319bc8c3d4c8cbd9e8b8ebc561d93b10cc7e7927373aa3083411b5",
    "split-input-coin":
        "310e0e25ef4008509d828d78e557315625fefe7c6c175f61bb628303ff309270",
    "split-input-legacy":
        "f2a8eaaf316ffa98bb1e9a7728d26a8847438f64157d0a7fbe329740496c1b0a",
    "split-input-legacy-stall":
        "538a21bb2abbfcc90c142b1353149c9de2e0496c28ce1697f370203d52c64dc7",
    "split-input-live":
        "f2b2c4f709ff49fea669d8c8edd73da10874d1434de2059f23f3971a0d8b6d19",
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
    memoised message, so `ecc_decode` answers it from the encode memo and
    no `decode_elements` call returns.  When only maps made wholly of memo
    rows were answered from the memo, 62 of 670 calls returned.  Before
    an accumulator skipped the attempts its last failure rules out, 608
    calls were made."""
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
    assert len(calls) == 239 and not any(calls)


def test_byzantine_leader_decode_failures_stop_at_the_lead_chunk(monkeypatch):
    """An equivocating leader's two messages have one length, so they agree
    on every chunk before the lead chunk, which holds only the length
    prefix.  Every decode that fails in this run must fail on the lead
    chunk, before `_fit` compares any chunk.  When chunk 0 went first,
    all 58 failing `decode_elements` calls reached `_fit`."""
    from acool import field_ecc

    decode_elements, fit = field_ecc.decode_elements, field_ecc._fit
    calls = []                    # [reached _fit, returned] per decode

    def counted_fit(*args):
        calls[-1][0] = True
        return fit(*args)

    def counted(*args, **kwargs):
        calls.append([False, False])
        result = decode_elements(*args, **kwargs)
        calls[-1][1] = True
        return result

    monkeypatch.setattr(field_ecc, "_fit", counted_fit)
    monkeypatch.setattr(field_ecc, "decode_elements", counted)
    report = run(SimConfig(n=13, t=4, seed=0, msg_len_bits=1024,
                           protocol="rbc", leader=13,
                           adversary="equivocate_symbols"))
    assert report.ok
    failed = [fitted for fitted, returned in calls if not returned]
    assert failed and not any(failed)
