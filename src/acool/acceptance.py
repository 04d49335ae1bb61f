"""Acceptance suite: safety, liveness, scaling, and codec-oracle criteria.

Each criterion is a function returning (passed, detail); `run_acceptance`
executes all of them and is shared by the command-line ``accept``
subcommand and the pytest acceptance module.  Frozen regression numbers
in this file come from reference runs of this implementation.

The communication-scaling criterion asserts a <= 3x ratio band across
the node grid on raw accounted bits.  With the integer data-width rule
k = max(1, floor(t/3)) the measured ratio scales with n/k, which spans
{4, 7, 13, 12.5, 9.8} on the mandated grid: a 3.25x spread.  The band
check is implemented as specified and therefore fails honestly on the
n=13 point; the companion idealized accounting (exact k = t/3, the
analytical symbol width) measures a 1.32x spread, which is the scaling
the asymptotic claim describes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import Callable, List, Optional, Tuple

from .field_ecc import (
    CodeParams, DecodeFailure, OecAccumulator, decode_elements,
    derive_params, ecc_encode, encode_elements, pack_message,
    params_for_message_bits,
)
from .simnet import (
    ADVERSARIES, SCHEDULERS, SimConfig, run, scenario_split_input, sweep,
)

GRID = ((4, 1), (7, 2), (10, 3))
FULL_SEEDS = 200
QUICK_SEEDS = 20

# frozen from the reference run: raw and idealized bit ratios per grid n
RATIO_BAND = (15.0, 68.0)
RATIO_SPREAD_LIMIT = 3.0
IDEAL_SPREAD_LIMIT = 1.5
FLAT_DEPTH_SLACK = 2          # FIFO-schedule depth is 8 for every grid n
SWEEP_NS = (4, 7, 13, 25, 49)


def _summary(config: SimConfig) -> dict:
    rep = run(config)
    return {
        "reason": rep.reason,
        "checks": rep.checks,
        "abba_instances": rep.metrics.abba_instances,
        "total_bits": rep.metrics.total_bits,
        "outputs_terminated": sum(
            1 for v in rep.outputs.values() if v["terminated"]),
    }


def _run_many(configs: list, workers: int) -> list:
    if workers > 1:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            return pool.map(_summary, configs, chunksize=16)
    return [_summary(c) for c in configs]


_GRID_CACHE: dict = {}


def _grid_reports(quick: bool, workers: int) -> list:
    """One pass over grid x adversary x scheduler x seeds x input style."""
    key = (quick,)
    if key in _GRID_CACHE:
        return _GRID_CACHE[key]
    seeds = QUICK_SEEDS if quick else FULL_SEEDS
    configs = []
    metas = []
    for (n, t), adv, sched, seed in itertools.product(
            GRID, ADVERSARIES, SCHEDULERS, range(seeds)):
        for style in ("equal", "mixed"):
            if style == "equal":
                inputs = None
            else:
                inputs = {i: (b"va-%02d" % (n,) if i <= n // 2 else b"vb-%02d" % (n,))
                          for i in range(1, n + 1)}
            configs.append(SimConfig(
                n=n, t=t, seed=seed, msg_len_bits=64, inputs=inputs,
                adversary=adv, scheduler=sched, abba_hint=seed % 2))
            metas.append({"n": n, "t": t, "adv": adv, "sched": sched,
                          "seed": seed, "style": style})
    results = _run_many(configs, workers)
    rows = [{**m, **r} for m, r in zip(metas, results)]
    _GRID_CACHE[key] = rows
    return rows


def _grid_violations(quick: bool, workers: int, ok: Callable,
                     style: Optional[str] = None) -> tuple:
    """Grid rows (of one input style, if given) and those failing ``ok``."""
    rows = [r for r in _grid_reports(quick, workers)
            if style is None or r["style"] == style]
    return rows, [r for r in rows if not ok(r)]


def crit1_safety(quick: bool, workers: int):
    rows, bad = _grid_violations(quick, workers,
                                 lambda r: r["checks"]["consistency"])
    detail = (f"{len(rows)} runs over {len(GRID)} grid points x "
              f"{len(ADVERSARIES)} adversaries x {len(SCHEDULERS)} schedulers; "
              f"{len(bad)} consistency violations")
    return not bad, detail


def crit2_validity(quick: bool, workers: int):
    rows, bad = _grid_violations(
        quick, workers, lambda r: r["reason"] == "ok"
        and r["checks"].get("validity", False), style="equal")
    return not bad, (f"{len(rows)} equal-input runs; "
                     f"{len(bad)} validity violations")


def crit3_termination(quick: bool, workers: int):
    rows, stalled = _grid_violations(quick, workers,
                                     lambda r: r["reason"] == "ok")
    seeds = 3 if quick else 10
    # the adjudicated agreement has totality built in; exercise liveness
    # under the message-based one as well
    coin_configs = [
        SimConfig(n=n, t=t, seed=seed, msg_len_bits=64, abba="coin",
                  adversary=adv, scheduler="adversary")
        for (n, t) in GRID
        for adv in ("crash_silent", "equivocate_symbols", "ready_spammer")
        for seed in range(seeds)
    ]
    coin_stalls = [r for r in _run_many(coin_configs, workers)
                   if r["reason"] != "ok"]
    split_ok = 0
    legacy_stalls = 0
    for (n, t) in GRID:
        for seed in range(seeds):
            live = run(scenario_split_input(
                n, t, seed=seed, msg_len_bits=64, abba="coin"))
            split_ok += live.reason == "ok"
            legacy = run(scenario_split_input(
                n, t, seed=seed, msg_len_bits=64, abba="coin",
                legacy_cool=True, event_cap=50_000))
            legacy_stalls += legacy.reason != "ok"
    want = len(GRID) * seeds
    ok = (not stalled and not coin_stalls and split_ok == want
          and legacy_stalls >= 1)
    return ok, (f"{len(rows)} grid runs, {len(stalled)} stalls; "
                f"{len(coin_configs)} coin-agreement runs, "
                f"{len(coin_stalls)} stalls; split-input scenario terminated "
                f"{split_ok}/{want}; legacy wiring stalled on "
                f"{legacy_stalls}/{want} seeds")


def crit4_unique_agreement(quick: bool, workers: int):
    rows, bad = _grid_violations(
        quick, workers, lambda r: r["checks"]["unique_agreement"]
        and r["checks"]["gamma1_at_most_2"])
    return not bad, (f"{len(rows)} runs; {len(bad)} unique-agreement or "
                     f"phase-1-spread violations")


def crit5_scaling(quick: bool, workers: int):
    seeds = 1 if quick else 2
    base = SimConfig(n=4, t=1, seed=500, msg_len_bits=4096)
    cells = [{"n": n, "t": (n - 1) // 3} for n in SWEEP_NS]
    rows = sweep(base, cells, seeds=seeds)
    ratios = [r["ratio"] for r in rows]
    ideal = [r["ideal_ratio"] for r in rows]
    spread = max(ratios) / min(ratios)
    ideal_spread = max(ideal) / min(ideal)
    in_band = all(RATIO_BAND[0] <= r <= RATIO_BAND[1] for r in ratios)
    # exactly one binary-agreement instance per node, checked per run
    probe_cells = cells[:2] if quick else cells
    abba_exact = all(
        run(replace(base, seed=600 + i, **cell)).metrics.abba_instances
        == cell["n"]
        for i, cell in enumerate(probe_cells))
    flat = []
    for cell in cells:
        rep = run(replace(base, seed=700, fairness_window=1, **cell))
        flat.append(rep.metrics.max_causal_round)
    flat_ok = max(flat) - min(flat) <= FLAT_DEPTH_SLACK
    ok = (in_band and spread <= RATIO_SPREAD_LIMIT
          and ideal_spread <= IDEAL_SPREAD_LIMIT and abba_exact and flat_ok)
    detail = (f"raw ratios {[round(r, 1) for r in ratios]} spread "
              f"{spread:.2f} (limit {RATIO_SPREAD_LIMIT}; n/k quantization "
              f"makes this 3.25 by design, see notes); idealized spread "
              f"{ideal_spread:.2f}; fair-schedule depths {flat}; "
              f"one agreement instance per node: {abba_exact}")
    return ok, detail


def _oracle_codewords() -> list:
    """All 49 degree-<=1 codewords over GF(7) at points 1..6."""
    params = CodeParams(n=6, t=1, k=2, q=7, chunks=1)
    table = []
    for c0 in range(7):
        for c1 in range(7):
            rows = encode_elements(params, [c0, c1])
            table.append(([c0, c1], tuple(r[0] for r in rows)))
    return table


def crit6_codec_oracle(quick: bool, workers: int):
    params = CodeParams(n=6, t=1, k=2, q=7, chunks=1)
    table = _oracle_codewords()
    cases = 0
    mismatches = 0

    def oracle(word):
        best = None
        for coeffs, code in table:
            dist = sum(1 for a, b in zip(code, word) if a != b)
            if dist <= 2:
                if best is not None:
                    return None
                best = coeffs
        return best

    def production(word):
        shares = {i + 1: (word[i],) for i in range(6)}
        try:
            return decode_elements(params, shares)[0]
        except DecodeFailure:
            return None

    patterns = [()]
    patterns += [((pos, d),) for pos in range(6) for d in range(1, 7)]
    patterns += [((p1, d1), (p2, d2))
                 for p1 in range(6) for p2 in range(p1 + 1, 6)
                 for d1 in range(1, 7) for d2 in range(1, 7)]
    if quick:
        rng = random.Random(1)
        patterns = rng.sample(patterns, 60)
    for _, code in table:
        for pat in patterns:
            word = list(code)
            for pos, delta in pat:
                word[pos] = (word[pos] + delta) % 7
            cases += 1
            if production(word) != oracle(word):
                mismatches += 1

    # online error correction: random arrival orders with t garbage shares,
    # over rows outside `ecc_encode`'s memo, so every attempt decodes in
    # full, and over its rows, as the protocols send them
    oec_params = params_for_message_bits(7, 2, 8)
    message = b"z"
    rng = random.Random(77)
    trials = 1_000 if quick else 10_000
    oec_bad = 0
    both = (encode_elements(oec_params, pack_message(oec_params, message)),
            ecc_encode(oec_params, message))
    for rows in both * trials:
        order = list(range(1, 8))
        rng.shuffle(order)
        garbage = set(rng.sample(order, 2))
        acc = OecAccumulator(oec_params)
        got = None
        for idx in order:
            if idx in garbage:
                elems = tuple((e + rng.randrange(1, oec_params.q))
                              % oec_params.q for e in rows[idx - 1])
            else:
                elems = rows[idx - 1]
            got = acc.submit(idx, elems)
            if got is not None:
                break
        if got != message or acc.attempts > oec_params.t + 1:
            oec_bad += 1
    ok = mismatches == 0 and oec_bad == 0
    return ok, (f"{cases} decoder-vs-oracle cases, {mismatches} disagreements; "
                f"{2 * trials} online-correction schedules, {oec_bad} out of "
                f"bounds")


def crit7_rba_rbc(quick: bool, workers: int):
    seeds = 5 if quick else 20
    n, t = 7, 2
    # (protocol, leader, live): equal honest inputs (rba) or an honest
    # leader (rbc) force both termination and the common output under
    # every catalogued adversary; a Byzantine leader forces agreement only
    kinds = (("rba", 1, True), ("rbc", 1, True), ("rbc", n, False))
    configs, lives = [], []
    for adv, sched, seed in itertools.product(ADVERSARIES, SCHEDULERS,
                                              range(seeds)):
        for protocol, leader, live in kinds:
            configs.append(SimConfig(n=n, t=t, seed=seed, msg_len_bits=64,
                                     protocol=protocol, leader=leader,
                                     adversary=adv, scheduler=sched))
            lives.append(live)
    results = _run_many(configs, workers)
    bad = 0
    for live, r in zip(lives, results):
        ok = r["checks"]["consistency"] and r["checks"]["totality"]
        if live:
            ok = ok and r["reason"] == "ok" and r["checks"].get("validity", False)
        bad += not ok

    ell = 1024
    params = derive_params(n, t, ell + 32)
    balanced = run(SimConfig(n=n, t=t, seed=9, msg_len_bits=ell,
                             protocol="rbc"))
    unbalanced = run(SimConfig(n=n, t=t, seed=9, msg_len_bits=ell,
                               protocol="rbc", balanced=False))
    lead_bits = balanced.metrics.egress_by_tag[1].get("LEADER", 0)
    bound = 1.5 * (ell + n * params.symbol_bits)
    egress_ok = (lead_bits <= bound and
                 unbalanced.metrics.egress_by_tag[1]["LEADERMESSAGE"]
                 >= n * ell)
    ok = not bad and egress_ok
    return ok, (f"{len(results)} runs ({bad} property failures); "
                f"balanced leader dispersal {lead_bits} bits <= "
                f"{bound:.0f}, unbalanced >= {n * ell}: {egress_ok}")


def crit8_small_t(quick: bool, workers: int):
    seeds = 2 if quick else 5
    n, t = 31, 2
    configs = [SimConfig(n=n, t=t, seed=seed, msg_len_bits=256,
                         protocol="small_t", adversary=adv)
               for adv, seed in itertools.product(
                   ("none", "crash_silent", "garbage_shares",
                    "equivocate_symbols"), range(seeds))]
    results = _run_many(configs, workers)
    bad = [r for r in results
           if not (r["checks"]["consistency"] and r["checks"]["totality"])]
    stalls = [r for r in results if r["reason"] != "ok"]
    small = run(SimConfig(n=31, t=2, seed=1, msg_len_bits=4096,
                          protocol="small_t"))
    full = run(SimConfig(n=31, t=10, seed=1, msg_len_bits=4096))
    cheaper = small.metrics.total_bits < full.metrics.total_bits
    ok = not bad and not stalls and cheaper
    return ok, (f"{len(results)} committee runs, {len(bad)} property "
                f"failures, {len(stalls)} stalls; committee bits "
                f"{small.metrics.total_bits} < full-protocol "
                f"{full.metrics.total_bits}: {cheaper}")


def crit9_determinism(quick: bool, workers: int):
    probes = [
        SimConfig(n=7, t=2, seed=13, msg_len_bits=128,
                  adversary="random_byzantine", scheduler="adversary"),
        SimConfig(n=10, t=3, seed=4, msg_len_bits=64,
                  adversary="equivocate_symbols", scheduler="lifo"),
        scenario_split_input(7, 2, seed=5, msg_len_bits=64, abba="coin",
                             legacy_cool=True, event_cap=20_000),
        SimConfig(n=10, t=1, seed=6, msg_len_bits=64, protocol="small_t",
                  adversary="garbage_shares"),
    ]
    bad = 0
    for cfg in probes:
        a, b = run(cfg), run(cfg)
        if a.to_json() != b.to_json() or a.log_ndjson() != b.log_ndjson():
            bad += 1
    return bad == 0, f"{len(probes)} replayed configs, {bad} divergences"


CRITERIA: List[Tuple[str, Callable]] = [
    ("1 safety-consistency", crit1_safety),
    ("2 validity", crit2_validity),
    ("3 termination-liveness", crit3_termination),
    ("4 unique-agreement", crit4_unique_agreement),
    ("5 communication-scaling", crit5_scaling),
    ("6 codec-oracle", crit6_codec_oracle),
    ("7 rba-rbc", crit7_rba_rbc),
    ("8 small-t", crit8_small_t),
    ("9 determinism", crit9_determinism),
]


def run_acceptance(quick: bool = False, workers: int = 1) -> list:
    """Run all criteria; returns [(name, passed, detail)]."""
    results = []
    for name, fn in CRITERIA:
        passed, detail = fn(quick, workers)
        results.append((name, passed, detail))
    return results
