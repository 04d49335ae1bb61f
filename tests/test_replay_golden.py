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
        "5a491e408d50619c2e30fe325d47f4d854fcd3af99a117fb947825e5f5935426",
    "acool-crash_silent-lifo":
        "79ce37e5bf63bf39d011b5f07ce4b6d7c79a42f5876dc518d2a91ce64b6e754f",
    "acool-crash_silent-uniform":
        "4a2c4cfae57d1ec3477d4a7ea699e162167edf7fd85b960e25d0e20923063679",
    "acool-equivocate_symbols-adversary":
        "48774ccc0f99053cbb185749aed21986019c918866c2156edfd8be487172a440",
    "acool-equivocate_symbols-lifo":
        "01fd4625a64a6133ae66afbcaf53e3901a59a7a700884343522c96be87a406f3",
    "acool-equivocate_symbols-uniform":
        "b6637b279299d07d7d89bf481df9917ce78cea72bb7036f4c9e28d638a125d84",
    "acool-garbage_shares-adversary":
        "81388c56bca3fe37c782f14998c42dab657e7202b22195ddc645d255ce2cc0f8",
    "acool-garbage_shares-lifo":
        "7576889021185b5f1fd5dd52e1eb4171758b5e6ea25eed83127c8d42fe07eed8",
    "acool-garbage_shares-uniform":
        "098ac2fd5db6ae54cf37746e2d58a3b355e9e2a98e6ea778f4617acbeea4fa0d",
    "acool-k2-equivocate":
        "b6a6f413d22e094f212aae2628f03835a27f16c3bca0dad2d88444efc17198d0",
    "acool-k2-garbage":
        "d6655d425d73ddc8100807313b215d7d2730e753c3a0d8e04861715300f411c3",
    "acool-k3-garbage":
        "aec72ae2f020f25c04df3397701a72276c224f9a11af74e031404e4ccc759ca2",
    "acool-k5-clean":
        "9f6c0dccb030685bd2016b9277ddc15eb5df81667cc1f650005b5baee906af49",
    "acool-k5-garbage":
        "163169828d0905440ed5447ab264b99be201e047d8df206ee0d879eeb41bf406",
    "acool-none-adversary":
        "3d0d1d157f6dfc454a4a789841f08b8b205fbd84edf33ea74d67e574b050cb82",
    "acool-none-lifo":
        "77423c4b1b758a9a4c67ace281d5acc117815252a95e56b9770e195d7ace4b32",
    "acool-none-uniform":
        "bec2e8425143c4b16cc270fffee0565920f5cec01b8beb30f037efb69ff842b6",
    "acool-partial-inputs":
        "b26f84b434f2dd2f698ddfdc1ddc4a6a55ef6c1c87832920e67c90dad24abd4b",
    "acool-random_byzantine-adversary":
        "60713b51e6036824e5222612a09d4fae4e78ed933b7ae7c4b4b0cafc886de060",
    "acool-random_byzantine-lifo":
        "5e76fe74ad5cb31674ad5c33cb1d57e89bdf1a0d0b7e97ebcbec5c5687016116",
    "acool-random_byzantine-uniform":
        "d040d9befd87cc1a872dbc826d4f6404c3c096101bafdb41da719310fbc7997d",
    "acool-ready_spammer-adversary":
        "cc5c2f7e4c90c6500012791889e45d643edde1ec833f605c7227c0fd98df833a",
    "acool-ready_spammer-lifo":
        "bd98a8d521db4dc5f3128a82d6a885a1604de9217959e4fb2d584936423ccd07",
    "acool-ready_spammer-uniform":
        "69bd0fb88f91a0800b23a4b997cb55da439386f6aa37bc0fb709059f8cc11017",
    "acool-skip-brba-counted":
        "ae10dff0266763032eba18ded533ed1ab22d98f557bd47a9da6d785bc036f6cf",
    "acool-split_input_builder-adversary":
        "246ae154efc9380ef1a57738e76cd549807c18be35a34d1d4abc91ece3ecdc62",
    "acool-split_input_builder-lifo":
        "e8952e3cad368348295f2c3e43e45003d743b791cd1fca259786465eea814701",
    "acool-split_input_builder-uniform":
        "6fea0af0765135c1dcccecb7a7bbfed11140a8e52bf787d1ceec096a986a491b",
    "acool-two-camp":
        "f6a572dd37a9368993f4b6e876792d2f8f495cd5ee797ace4a95daac7f95aa88",
    "acool-withhold_from_subset-adversary":
        "a101d5787d556ae77185fed908d8a88642599fdca41cb9c2864adc1330915391",
    "acool-withhold_from_subset-lifo":
        "4244efd51a7c5eda39f96b45e10a542638ca4b4a7d718e25b7c125221516ffe9",
    "acool-withhold_from_subset-uniform":
        "6fe472d082fc3d82f1678c04db08183f51e1df6813cafaac618bf5c608893b49",
    "coin-equivocate":
        "aa16c9fc442a100129e4db0656ecfa49d1bad10e0e3d75063a352f1435f7f34f",
    "coin-random":
        "7bef75e4f4ce29ce6ee75338a576348df2e14b55ffd583d6addef4ce5996bf8e",
    "rba-equivocate":
        "f9f338dd19b903ae68e589a3817b24b7d72937cb6dec3c52315cd15da0b632cf",
    "rba-none":
        "404f7221dcba4c713de7167e03098682bc6616e8607665ad38cec2c52dceb82b",
    "rbc-byzantine-leader":
        "62d2937de366d7bcf865e493b380009865da3049096d266958e9e05a3a68144b",
    "rbc-honest-leader":
        "9cc02c2135f242907b49f6e654a7577b75113597aa05e93cfa19652a0c76999e",
    "rbc-unbalanced":
        "ee3889c99812c51ab492e611968816ecf134cb85850b28901cd0e66765c3a864",
    "small_t-coin":
        "d39e33a980128a78347accc98dffc13a4a05c90bfe0aba5b1da25917515b30fa",
    "small_t-garbage":
        "364126f723796648bd939385c762609df5d34b32ea2ee0069b5360c719482ad1",
    "split-input-coin":
        "ed167725f07ec972463e06c85821fa1658dbc435081719cd601369c082cacbe8",
    "split-input-legacy":
        "b3b22e742f26d9be2f97ea7e75aad893c0073c74edaf7b87e20900fd385b6512",
    "split-input-legacy-stall":
        "a09791d7dcaf3103190ecdfec42ed5d312bca3e2e909fd6b13d0456f7b33a65e",
    "split-input-live":
        "db1b22a0a214cf016db989e60ea4649014d275f1b07904d785928a6704118b51",
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
