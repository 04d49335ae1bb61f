"""Simulator harness tests: determinism, fairness, accounting, config."""

import gc
import json
import math
import random
import weakref
from collections import deque

import pytest

from acool import field_ecc, simnet
from acool.field_ecc import (
    CodeParams, DecodeFailure, OecAccumulator, ResilienceViolation,
    params_for_message_bits,
)
from acool.messages import AbbaIn, AbbaOut, payload_bits, tag_of
from acool.simnet import (
    ADVERSARIES, SCHEDULERS, SimConfig, Strategy, _AdvCtx, _Queue, run,
    scenario_split_input, sweep,
)


def test_identical_config_replays_byte_identically():
    cfg = SimConfig(n=7, t=2, seed=42, msg_len_bits=128,
                    adversary="garbage_shares", scheduler="lifo")
    a, b = run(cfg), run(cfg)
    assert a.to_json() == b.to_json()
    assert a.log_ndjson() == b.log_ndjson()


def test_adversarial_failing_style_run_replays():
    cfg = scenario_split_input(7, 2, seed=9, msg_len_bits=64, abba="coin",
                               legacy_cool=True, event_cap=20_000)
    a, b = run(cfg), run(cfg)
    assert a.reason == b.reason and a.to_json() == b.to_json()


def test_seeds_change_schedules_not_outcomes():
    logs = set()
    for seed in range(4):
        rep = run(SimConfig(n=4, t=1, seed=seed, msg_len_bits=64))
        assert rep.reason == "ok" and all(rep.checks.values())
        logs.add(rep.log_ndjson())
    assert len(logs) == 4


def test_resilience_rejected():
    with pytest.raises(ResilienceViolation):
        run(SimConfig(n=3, t=1))


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        run(SimConfig(n=4, t=1, adversary="nope"))
    with pytest.raises(ValueError):
        run(SimConfig(n=4, t=1, scheduler="nope"))
    with pytest.raises(ValueError):
        run(SimConfig(n=4, t=1, protocol="nope"))
    with pytest.raises(ValueError):
        run(SimConfig(n=4, t=1, abba="nope"))


def test_byzantine_bound_enforced():
    with pytest.raises(ValueError):
        run(SimConfig(n=4, t=1, adversary="crash_silent", byzantine=(3, 4)))
    with pytest.raises(ValueError, match="Byzantine id outside 1..n"):
        run(SimConfig(n=4, t=1, adversary="crash_silent", byzantine=(5,)))
    with pytest.raises(ValueError, match="leader outside 1..n"):
        run(SimConfig(n=4, t=1, protocol="rbc", leader=5))


def test_event_cap_reported():
    cfg = SimConfig(n=7, t=2, seed=1, msg_len_bits=64, event_cap=20)
    rep = run(cfg)
    assert rep.reason == "cap"


def test_all_policies_terminate_fault_free():
    for sched in SCHEDULERS:
        rep = run(SimConfig(n=7, t=2, seed=3, msg_len_bits=64,
                            scheduler=sched))
        assert rep.reason == "ok", sched


def test_fairness_delivers_to_starved_targets():
    # adversary-directed scheduling plus withholding cannot block termination
    rep = run(SimConfig(n=7, t=2, seed=5, msg_len_bits=64,
                        adversary="withhold_from_subset",
                        scheduler="adversary"))
    assert rep.reason == "ok" and rep.checks["consistency"]


def test_fairness_window_zero_is_kept():
    """An explicit window of 0 delivers any waiting event first."""
    zero = run(SimConfig(n=7, t=2, seed=1, fairness_window=0))
    default = run(SimConfig(n=7, t=2, seed=1))
    assert zero.ok and default.ok
    assert zero.config["fairness_window"] == 0
    assert default.config["fairness_window"] == 8 * 7 * 7
    assert zero.log_ndjson() != default.log_ndjson()
    assert (zero.metrics.max_causal_round,
            default.metrics.max_causal_round) == (8, 18)
    with pytest.raises(ValueError):
        run(SimConfig(n=4, t=1, fairness_window=-1))


def test_every_adversary_keeps_agreement():
    for adv in ADVERSARIES:
        rep = run(SimConfig(n=7, t=2, seed=6, msg_len_bits=64, adversary=adv))
        assert rep.checks["consistency"], adv
        assert rep.checks["unique_agreement"], adv


def test_bits_accounting_symbol_width():
    params = params_for_message_bits(4, 1, 64)
    rep = run(SimConfig(n=4, t=1, seed=1, msg_len_bits=64))
    sym = params.symbol_bits
    # two unique-agreement instances, 16 pair messages each
    assert rep.metrics.bits_by_tag["SYMBOL"] == 2 * sym * 16 * 2
    assert rep.metrics.bits_by_tag["SI1"] == 32
    assert rep.metrics.total_bits == sum(rep.metrics.bits_by_tag.values())


def test_abba_side_channel_excluded_by_default():
    rep = run(SimConfig(n=4, t=1, seed=1, msg_len_bits=64))
    assert "ABBAIN" not in rep.metrics.bits_by_tag
    rep = run(SimConfig(n=4, t=1, seed=1, msg_len_bits=64,
                        count_abba_bits=True))
    assert rep.metrics.bits_by_tag["ABBAIN"] == 4
    assert rep.metrics.bits_by_tag["ABBAOUT"] == 4


def test_byzantine_bits_excluded_by_default():
    base = SimConfig(n=4, t=1, seed=2, msg_len_bits=64,
                     adversary="ready_spammer")
    with_flag = SimConfig(n=4, t=1, seed=2, msg_len_bits=64,
                          adversary="ready_spammer",
                          count_byzantine_bits=True)
    assert run(with_flag).metrics.total_bits > run(base).metrics.total_bits


def test_coin_abba_bits_counted_in_protocol():
    rep = run(SimConfig(n=4, t=1, seed=1, msg_len_bits=64, abba="coin"))
    assert rep.reason == "ok"
    assert "EST" in rep.metrics.bits_by_tag


def test_event_log_schema():
    rep = run(SimConfig(n=4, t=1, seed=1, msg_len_bits=64))
    step, frm, dst, tag, bits, rnd = next(rep.rows())
    assert isinstance(step, int) and isinstance(tag, str)
    lines = rep.log_ndjson().splitlines()
    assert set(json.loads(lines[0])) == \
        {"step", "from", "to", "tag", "bits", "round"}
    rows = list(rep.rows())
    assert len(rows) == len(lines) == rep.to_dict()["events"] > 0
    for row, line in zip(rows, lines):
        assert json.loads(line) == dict(
            zip(("step", "from", "to", "tag", "bits", "round"), row))


def test_report_json_is_sorted_and_stable():
    rep = run(SimConfig(n=4, t=1, seed=1, msg_len_bits=64))
    as_dict = rep.to_dict()
    assert list(as_dict["outputs"]) == sorted(as_dict["outputs"])
    assert rep.to_json() == rep.to_json()


def test_sweep_rows_have_ratio_and_flags():
    base = SimConfig(n=4, t=1, seed=0, msg_len_bits=256)
    rows = sweep(base, [{"n": 4, "t": 1}, {"n": 7, "t": 2}], seeds=2)
    assert len(rows) == 2
    for row in rows:
        assert row["ok"] and row["ratio"] > 0 and row["max_rounds"] > 0


def test_bits_grow_linearly_in_message_length():
    # once n*len dominates, successive per-bit increments agree
    totals = {}
    for ell in (2 ** 10, 2 ** 12, 2 ** 14):
        rep = run(SimConfig(n=13, t=4, seed=2, msg_len_bits=ell))
        assert rep.reason == "ok"
        totals[ell] = rep.metrics.total_bits
    slope_a = (totals[2 ** 12] - totals[2 ** 10]) / (2 ** 12 - 2 ** 10)
    slope_b = (totals[2 ** 14] - totals[2 ** 12]) / (2 ** 14 - 2 ** 12)
    assert abs(slope_a - slope_b) / slope_b < 0.2


def test_default_byzantine_ids_are_last_t():
    cfg = SimConfig(n=7, t=2, adversary="crash_silent")
    assert cfg.byzantine_ids() == (6, 7)
    cfg = SimConfig(n=31, t=2, protocol="small_t", adversary="crash_silent")
    assert cfg.byzantine_ids() == (6, 7)    # inside the 3t+1 committee


@pytest.mark.parametrize("chunks", [1, 44, 104])
@pytest.mark.parametrize("q", [257, 263, 65537])
def test_rand_elems_draws_one_byte_per_element(q, chunks):
    """A garbage share is one generator byte per element: q >= 257 makes
    every byte a field element, so no draw is ever 256 or above."""
    params = CodeParams(n=4, t=1, k=1, q=q, chunks=chunks)
    rng, ref = random.Random(q + chunks), random.Random(q + chunks)
    strategy = Strategy(_AdvCtx(4, 4, params, rng, (), None))
    for _ in range(20):
        elems = strategy._rand_elems()
        assert elems == tuple(ref.randbytes(chunks))
        assert rng.getstate() == ref.getstate()
        assert len(elems) == chunks and all(0 <= v < 256 for v in elems)
        assert params.valid_elems(elems)



class RefQueue:
    """Reference scheduler queue: the same structure, picks by randrange."""

    def __init__(self, rng, policy, victims, window):
        self.rng, self.policy, self.victims, self.window = (
            rng, policy, victims, window)
        self.events, self.age, self.stack = {}, deque(), []
        self.ids, self.pos = [], {}
        self.pref_ids, self.pref_pos = [], {}
        self.next_id = 0

    def __len__(self):
        return len(self.events)

    def push(self, step, frm, dst, msg, rnd, tag, bits):
        eid = self.next_id
        self.next_id += 1
        self.events[eid] = (step, frm, dst, msg, rnd, tag, bits)
        self.age.append(eid)
        self.stack.append(eid)
        self.pos[eid] = len(self.ids)
        self.ids.append(eid)
        if self.policy == "adversary" and dst not in self.victims:
            self.pref_pos[eid] = len(self.pref_ids)
            self.pref_ids.append(eid)

    def _remove(self, eid):
        for ids, pos in ((self.ids, self.pos), (self.pref_ids, self.pref_pos)):
            if eid in pos:
                idx = pos.pop(eid)
                last = ids.pop()
                if last != eid:
                    ids[idx] = last
                    pos[last] = idx
        return self.events.pop(eid)

    def pop(self, step):
        while self.age and self.age[0] not in self.events:
            self.age.popleft()
        if self.age and step - self.events[self.age[0]][0] > self.window:
            return self._remove(self.age.popleft())
        if self.policy == "lifo" and self.rng.random() < 0.9:
            while self.stack and self.stack[-1] not in self.events:
                self.stack.pop()
            if self.stack:
                return self._remove(self.stack.pop())
        if self.policy == "adversary" and self.pref_ids:
            return self._remove(
                self.pref_ids[self.rng.randrange(len(self.pref_ids))])
        return self._remove(self.ids[self.rng.randrange(len(self.ids))])


@pytest.mark.parametrize("policy", SCHEDULERS)
def test_queue_picks_draw_the_randrange_stream(policy):
    """Same pushes and pops: same deliveries and generator state as randrange."""
    drive = random.Random(policy)
    queue = _Queue(random.Random(5), policy, frozenset({1, 2}), 40)
    ref = RefQueue(random.Random(5), policy, frozenset({1, 2}), 40)
    step = 0
    for _ in range(3000):
        if drive.random() < 0.55 or not ref:
            # one message to a random run of destinations, as a broadcast
            for dst in range(1, drive.randrange(1, 8)):
                args = (step, drive.randrange(8), dst, ("m", step), 1, "T", 1)
                queue.push(*args)
                ref.push(*args)
        else:
            step += 1
            assert queue.pop(step) == ref.pop(step)
            assert queue.rng.getstate() == ref.rng.getstate()
        assert len(queue.ids) == len(ref)
    while ref:
        step += 1
        assert queue.pop(step) == ref.pop(step)
    assert queue.rng.getstate() == ref.rng.getstate()


class _Payload:
    """A weakref-able stand-in for a message."""


class _IndexOne:
    """Stub generator: a pick among two or more draws index 1 and LIFO
    always fires, so the record in slot 0, the oldest, stays to the last."""

    @staticmethod
    def getrandbits(k):
        return 1 if k > 1 else 0

    @staticmethod
    def random():
        return 0.0


@pytest.mark.parametrize("policy", SCHEDULERS)
def test_queue_drops_delivered_payloads(policy):
    """A delivered message is not kept alive while its record waits in the
    aging queue behind an older pending one."""
    queue = _Queue(_IndexOne(), policy, frozenset(), 10 ** 9)
    oldest = _Payload()
    queue.push(0, 1, 1, oldest, 1, "T", 1)
    refs = []
    for step in range(200):
        msg = _Payload()
        refs.append(weakref.ref(msg))
        queue.push(step, 1, 2, msg, 1, "T", 1)
    del msg
    for step in range(200):
        queue.pop(step)
    assert len(queue.ids) == 1
    assert [ref for ref in refs if ref() is not None] == []
    assert queue.pop(200)[3] is oldest


@pytest.mark.parametrize("policy", SCHEDULERS)
def test_pending_delivery_keeps_one_tracked_object(policy):
    """A pending delivery keeps at most its event tuple alive for the
    cyclic collector, and a delivered one keeps nothing."""
    queue = _Queue(random.Random(3), policy, frozenset({1, 2}), 500)
    msgs = [_Payload() for _ in range(7)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        step = 0
        for i in range(2000):
            queue.push(step, 1, 1 + i % 7, msgs[i % 7], 1, "T", 1)
            if i % 2:
                step += 1
                queue.pop(step)
        grown = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert len(queue.ids) == 1000
    assert grown <= len(queue.ids) + 20


class _IllTypedBroadcaster(Strategy):
    """Broadcasts one ill-typed object to every node, then a second one."""

    def on_start(self, w):
        first, second = object(), _Payload()
        n = self.ctx.n
        return ([(dst, first) for dst in range(1, n + 1)]
                + [(dst, second) for dst in range(1, n + 1)])


def _recount(cfg, pushes):
    """Bit accounting redone per pushed copy, in push order."""
    params = simnet._make_params(cfg)
    k_ideal = cfg.t / 3 if cfg.t >= 1 else 1.0
    ideal_cb = max(cfg.msg_len_bits / k_ideal, math.log2(params.q))
    byz = set(cfg.byzantine_ids())
    by_tag, egress, total, ideal_total = {}, {}, 0, 0.0
    for frm, msg, tag, bits in pushes:
        assert (tag, bits) == (tag_of(msg), payload_bits(msg, params.symbol_bits))
        if frm in byz and not cfg.count_byzantine_bits:
            continue
        if isinstance(msg, (AbbaIn, AbbaOut)) and not cfg.count_abba_bits:
            continue
        by_tag[tag] = by_tag.get(tag, 0) + bits
        row = egress.setdefault(frm, {})
        row[tag] = row.get(tag, 0) + bits
        total += bits
        ideal_total += payload_bits(msg, ideal_cb)
    return by_tag, egress, total, ideal_total


@pytest.mark.parametrize("overrides", [
    {},
    {"count_abba_bits": True},
    {"count_byzantine_bits": True, "adversary": "ready_spammer"},
    {"count_byzantine_bits": True, "adversary": "random_byzantine"},
    {"count_byzantine_bits": True, "adversary": "crash_silent"},
], ids=["default", "abba", "ready_spammer", "random_byzantine", "ill_typed"])
def test_accounting_equals_a_per_copy_recount(overrides, monkeypatch):
    """Runs of one message object are accounted exactly as copy by copy."""
    monkeypatch.setitem(simnet._STRATEGIES, "crash_silent",
                        _IllTypedBroadcaster)
    pushes = []
    push = _Queue.push

    def recorded(self, step, frm, dst, msg, rnd, tag, bits):
        pushes.append((frm, msg, tag, bits))
        push(self, step, frm, dst, msg, rnd, tag, bits)

    monkeypatch.setattr(_Queue, "push", recorded)
    cfg = SimConfig(n=7, t=2, seed=4, msg_len_bits=64, **overrides)
    metrics = run(cfg).metrics
    by_tag, egress, total, ideal_total = _recount(cfg, pushes)
    assert metrics.bits_by_tag == by_tag
    assert metrics.egress_by_tag == egress
    assert metrics.total_bits == total
    assert metrics.ideal_total_bits == ideal_total
    if cfg.count_byzantine_bits:
        assert 7 in egress
    if cfg.adversary == "crash_silent":
        assert egress[7] == {"OBJECT": 0, "_PAYLOAD": 0}
    if cfg.count_abba_bits:
        assert "ABBAIN" in by_tag


def _count_codec_calls(monkeypatch):
    """Wrap the module's encode and decode functions; returns the counts."""
    calls = {"encode_elements": 0, "decode_elements": 0}

    def wrap(name):
        fn = getattr(field_ecc, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(field_ecc, name, counted)

    for name in calls:
        wrap(name)
    return calls


def test_clean_run_encodes_once_and_never_decodes(monkeypatch):
    calls = _count_codec_calls(monkeypatch)
    rep = run(SimConfig(n=49, t=16, seed=0, msg_len_bits=256))
    assert rep.reason == "ok" and all(rep.checks.values())
    # every node encodes the one input; every decode gets its rows back
    assert calls == {"encode_elements": 1, "decode_elements": 0}


def test_two_camp_clean_run_encodes_each_input_once(monkeypatch):
    calls = _count_codec_calls(monkeypatch)
    camps = {i: b"camp A.." if i <= 25 else b"camp B.." for i in range(1, 50)}
    rep = run(SimConfig(n=49, t=16, seed=0, msg_len_bits=256, inputs=camps))
    assert rep.reason == "ok" and all(rep.checks.values())
    assert calls["encode_elements"] == 2


def _settled(acc) -> bool:
    """Whether an accumulator's memo tallies, recomputed from its shares,
    settle its last attempt: its candidate holds the most memo rows at
    their own index, and it matches m - e shares, or a - e >= k and a <
    m - e on the lead chunk."""
    params, shares = acc.params, acc.shares
    hits = {message: sum(s is rows[x - 1] for x, s in shares.items())
            for message, rows in params.encodings.items()}
    if acc.candidate is None:
        return False
    message, rows = acc.candidate
    assert hits[message] == max(hits.values()) > 0
    m, k, lead = len(shares), params.k, params.lead_chunk
    e = min((m - k) // 2, m - acc.threshold)
    support = sum(rows[x - 1] == s for x, s in shares.items())
    agree = sum(rows[x - 1][lead] == s[lead] for x, s in shares.items())
    return support >= m - e or agree - e >= k and agree < m - e


@pytest.mark.parametrize("cfg,attempts,decodes", [
    (SimConfig(n=31, t=10, seed=0, msg_len_bits=1024,
               adversary="garbage_shares", scheduler="adversary"), 660, 3),
    (SimConfig(n=31, t=2, seed=0, msg_len_bits=1024, protocol="small_t",
               adversary="garbage_shares"), 82, 0),
], ids=["n31-t10", "small-t"])
def test_oec_attempts_decode_once_unless_certified_hopeless(
        cfg, attempts, decodes, monkeypatch):
    """Every OEC attempt of a run calls `ecc_decode` once, unless the
    accumulator's memo tallies settle it (the memo answer or the
    certificate), and then never; the honest nodes' attempts sum to the
    reported count (the Byzantine replicas run accumulators of their
    own).  At n = 31, t = 10 the tallies settle 657 of the 660 attempts,
    and in the small-t run all 82."""
    calls = {}                    # accumulator -> {attempt: ecc_decode calls}
    settled = {}                  # accumulator -> attempts the tallies settled
    byzantine = set()
    current = []
    submit, decode = OecAccumulator.submit, field_ecc.ecc_decode
    replica_init = simnet._Replica.__init__

    def tracked(acc, *args):
        calls.setdefault(acc, {})
        current.append(acc)
        before = acc.attempts
        try:
            return submit(acc, *args)
        finally:
            current.pop()
            if acc.attempts > before and _settled(acc):
                settled.setdefault(acc, set()).add(acc.attempts)

    def recorded(*args, **kwargs):
        acc = current[-1]
        calls[acc][acc.attempts] = calls[acc].get(acc.attempts, 0) + 1
        return decode(*args, **kwargs)

    def replica(self, ctx):
        replica_init(self, ctx)
        byzantine.update(acc for node in self.nodes for acc in node.accumulators)

    monkeypatch.setattr(OecAccumulator, "submit", tracked)
    monkeypatch.setattr(field_ecc, "ecc_decode", recorded)
    monkeypatch.setattr(simnet._Replica, "__init__", replica)
    rep = run(cfg)
    assert rep.ok
    for acc, made in calls.items():
        for attempt in range(1, acc.attempts + 1):
            assert made.get(attempt, 0) == (attempt not in settled.get(acc, ()))
        assert set(made) <= set(range(1, acc.attempts + 1))
    assert sum(acc.attempts for acc in calls) == attempts
    assert sum(sum(made.values()) for made in calls.values()) == decodes
    assert rep.metrics.decode_attempts == sum(
        acc.attempts for acc in calls if acc not in byzantine) > 0


def test_decode_heavy_runs_leave_no_reference_cycles():
    """With the cyclic collector off, a run leaves nothing for it to
    collect: no frame, traceback or exception forms a cycle, not even on
    the decode-failure path, where an exception bound to a local of the
    raising frame would form one per failure (10,435, 1,562 and 1,405
    objects after these three runs)."""
    configs = (
        SimConfig(n=31, t=10, seed=0, msg_len_bits=1024,
                  adversary="garbage_shares", scheduler="adversary"),
        SimConfig(n=13, t=4, seed=0, msg_len_bits=1024, protocol="rbc",
                  leader=13, adversary="equivocate_symbols"),
        SimConfig(n=31, t=2, seed=0, msg_len_bits=1024, protocol="small_t",
                  adversary="garbage_shares"),
    )
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for cfg in configs:
            assert run(cfg).ok
            assert gc.collect() == 0, cfg
    finally:
        if enabled:
            gc.enable()
