"""Deterministic adversarial network simulator.

Messages between nodes become queue events; a seeded scheduler picks the
next delivery under one of three policies (uniform random, LIFO-biased,
adversary-directed), with an aging rule forcing any event older than the
fairness window to deliver first, so every message to a live honest node
is eventually delivered no matter the policy.

Byzantine nodes are driven by strategy objects that control only their
outbound messages; most strategies wrap one or two honest replicas and
corrupt, drop, or split the replica's traffic.  Runs are reproducible
byte-for-byte from (config, seed): all randomness flows from seeded
generators and every iteration order is fixed.

Metrics account payload bits per message tag for honest senders only
(Byzantine and binary-agreement side-channel bits are opt-in), per-node
egress, decode attempts, and the causal-round depth (longest message
chain) reached at honest termination.  A message's tag and bits are
computed once, when it is sent, into its sender's egress row, the only
bit tally; after a run, node attributes are read directly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional

from .aba import CoinAbba, CoinOracle, OracleAbba, OracleAdjudicator, ORACLE_ID
from .field_ecc import CodeParams, ResilienceViolation, params_for_message_bits
from .messages import (
    AbbaIn, AbbaOut, Aux, CorrectSymbol, Decide, Est, NewSymbol, Ready, Si,
    Symbol, payload_bits, tag_of,
)
from .protocol import BOTTOM, AcoolNode
from .rba_rbc import RbaNode, RbcNode
from .small_t import SmallTNode, SmallTOutsider, committee_size

PROTOCOLS = ("acool", "rba", "rbc", "small_t")
SCHEDULERS = ("uniform", "lifo", "adversary")


def _subseed(seed: int, label: str) -> int:
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(h[:8], "big")


@dataclass
class SimConfig:
    """One reproducible run: topology, protocol wiring, adversary, scheduling."""

    n: int
    t: int
    seed: int = 0
    msg_len_bits: int = 256
    protocol: str = "acool"
    adversary: str = "none"
    scheduler: str = "uniform"
    inputs: Optional[dict] = None          # node id -> bytes (missing = no input)
    byzantine: Optional[tuple] = None      # explicit ids; default: last t
    abba: str = "oracle"                   # oracle | coin
    abba_hint: int = 0
    skip_brba: bool = False
    count_abba_bits: bool = False
    count_byzantine_bits: bool = False
    legacy_cool: bool = False
    leader: int = 1
    balanced: bool = True
    adversary_targets: Optional[tuple] = None
    event_cap: int = 1_000_000
    fairness_window: Optional[int] = None

    def validate(self):
        window = () if self.fairness_window is None else ("fairness_window",)
        for name in ("n", "t", "msg_len_bits", "leader", "event_cap", *window):
            value = getattr(self, name)
            if type(value) is not int:    # True and 7.0 would pass as ints
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.t < 0 or self.n < 3 * self.t + 1:
            raise ResilienceViolation(
                f"need t >= 0 and n >= 3t+1, got n={self.n}, t={self.t}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.adversary != "none" and self.adversary not in ADVERSARIES:
            raise ValueError(f"unknown adversary {self.adversary!r}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.abba not in ("oracle", "coin"):
            raise ValueError(f"unknown abba kind {self.abba!r}")
        if type(self.abba_hint) is not int or self.abba_hint not in (0, 1):
            raise ValueError(f"abba_hint must be 0 or 1, got {self.abba_hint!r}")
        if self.inputs is not None:
            for i in self.inputs:
                if type(i) is not int or not 1 <= i <= self.n:
                    raise ValueError(f"inputs key {i!r} is not a node id in 1..n")
        if self.byzantine is not None:
            if type(self.byzantine) not in (tuple, list):
                raise ValueError(
                    f"byzantine must be a tuple or list, got {self.byzantine!r}")
            ids = tuple(self.byzantine)
            if any(type(i) is not int for i in ids) or len(set(ids)) < len(ids):
                raise ValueError(f"Byzantine ids must be distinct ints, got {ids!r}")
        byz = self.byzantine_ids()
        if byz and self.adversary == "none":
            raise ValueError("Byzantine ids need an adversary")
        if len(byz) > self.t:
            raise ValueError("more Byzantine nodes than the fault bound")
        if any(i < 1 or i > self.n for i in byz):
            raise ValueError("Byzantine id outside 1..n")
        if self.protocol == "rbc" and not 1 <= self.leader <= self.n:
            raise ValueError("leader outside 1..n")
        if self.fairness_window is not None and self.fairness_window < 0:
            raise ValueError("negative fairness window")
        if self.event_cap < 0:
            raise ValueError("negative event cap")

    def byzantine_ids(self) -> tuple:
        if self.byzantine is not None:
            return tuple(sorted(self.byzantine))
        if self.adversary == "none":
            return ()
        top = committee_size(self.t) if self.protocol == "small_t" else self.n
        return tuple(range(top - self.t + 1, top + 1))

    def window(self) -> int:
        w = self.fairness_window
        return 8 * self.n * self.n if w is None else w

    def default_message(self, salt: int = 0) -> bytes:
        nbytes = max(1, self.msg_len_bits // 8)
        base = _subseed(self.seed, f"msg{salt}")
        return bytes((base + 37 * i) % 256 for i in range(nbytes))

    def effective_inputs(self) -> dict:
        if self.inputs is not None:
            return dict(self.inputs)
        w = self.default_message()
        if self.protocol == "rbc":
            return {self.leader: w}
        return {i: w for i in range(1, self.n + 1)}

    def to_dict(self) -> dict:
        # shallow: `asdict` would deep-copy every field on every run
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "fairness_window": self.window(),
            "byzantine": list(self.byzantine_ids()),
            "adversary_targets": sorted(self.adversary_targets or ()),
            "inputs": {str(k): v.hex()
                       for k, v in sorted(self.effective_inputs().items())
                       if v is not None},
        }


# ---------------------------------------------------------------------------
# event queue
# ---------------------------------------------------------------------------


class _Queue:
    """Pending deliveries with O(1) policy picks and an aging guarantee.

    A pending delivery is an int handle, its push index ``h``; per-run
    lists indexed by handle hold its event (``None`` once delivered,
    which drops the payload), its slot in ``ids`` and, under the
    adversary policy, its slot in ``pref_ids`` or -1.  `push` extends
    each list once per send list; a swap-remove updates the slot of the
    handle it moves.  Aging needs no structure of its own: ``head``
    never passes the oldest pending handle, and no pending event ages up
    to step ``due``, so only a pop past ``due`` scans on from ``head``.
    The lifo policy alone keeps ``stack``, every handle in push order,
    and skips delivered ones at its right end.  No pending delivery
    keeps a container alive beyond its event tuple.

    A random pick draws its index the way ``rng.randrange(len)`` does,
    with the same `getrandbits` rejection loop inlined, so the draws and
    the generator's state are those of `randrange`.
    """

    def __init__(self, rng: random.Random, policy: str, victims: frozenset,
                 window: int):
        self.rng = rng
        self.getrandbits = rng.getrandbits
        self.lifo = policy == "lifo"
        self.adversary = policy == "adversary"
        self.victims = victims
        self.window = window
        self.events: list = []               # handle -> event, or None
        self.slot: list = []                 # handle -> index in ids
        self.pslot: list = []                # handle -> index in pref_ids or -1
        self.head = 0                        # no pending handle lies before it
        self.due = -1                        # no event ages up to this step
        self.stack: list = []                # every handle, lifo policy only
        self.ids: list = []                  # every pending handle
        self.pref_ids: list = []             # non-victim targets, adversary policy

    def push(self, batch: list):
        """Queue a batch of ``(step, frm, dst, msg, rnd, tag, bits)`` events."""
        h, i, k = len(self.events), len(self.ids), len(batch)
        hs = list(range(h, h + k))
        self.events += batch
        self.slot += range(i, i + k)
        self.ids += hs
        if self.lifo:
            self.stack += hs
        elif self.adversary:
            victims, pslot, pref = self.victims, self.pslot, self.pref_ids
            for h, event in zip(hs, batch):
                if event[2] in victims:
                    pslot.append(-1)
                else:
                    pslot.append(len(pref))
                    pref.append(h)

    def _age(self) -> int:
        """Move ``head`` to the oldest pending handle; the new ``due``."""
        events, h = self.events, self.head
        while events[h] is None:
            h += 1
        self.head = h
        self.due = due = events[h][0] + self.window
        return due

    def pop(self, step: int) -> tuple:
        events, ids = self.events, self.ids
        if step > self.due and step > self._age():
            # aging: anything past the fairness window is delivered first
            h = self.head
        elif self.lifo and self.rng.random() < 0.9:
            stack = self.stack
            h = stack.pop()
            while events[h] is None:
                h = stack.pop()
        else:
            pick = self.pref_ids if self.adversary and self.pref_ids else ids
            n = len(pick)
            k = n.bit_length()
            r = self.getrandbits(k)
            while r >= n:
                r = self.getrandbits(k)
            h = pick[r]
        slot = self.slot
        last = ids.pop()
        if last != h:
            i = slot[h]
            ids[i] = last
            slot[last] = i
        if self.adversary:
            pslot = self.pslot
            i = pslot[h]
            if i >= 0:
                pref = self.pref_ids
                last = pref.pop()
                if last != h:
                    pref[i] = last
                    pslot[last] = i
        event = events[h]
        events[h] = None
        return event


# ---------------------------------------------------------------------------
# adversary strategies
# ---------------------------------------------------------------------------


class _AdvCtx(NamedTuple):
    self_id: int
    n: int
    params: CodeParams
    rng: random.Random
    targets: frozenset
    fresh_node: Callable


class Strategy:
    """Controls one Byzantine node's outbound traffic."""

    def __init__(self, ctx: _AdvCtx):
        self.ctx = ctx
        self.terminated = False       # a Byzantine node never stops

    def on_start(self, w: Optional[bytes]):
        return []

    def on_deliver(self, frm: int, msg):
        return []

    def _rand_elems(self):
        # q >= 257 (`derive_params`), so every byte is a field element
        return tuple(self.ctx.rng.randbytes(self.ctx.params.chunks))


class CrashSilent(Strategy):
    """Sends nothing at all."""


class _Replica(Strategy):
    """Base for strategies that corrupt the traffic of ``replicas`` honest
    replicas; `_rewrite` gets each replica's sends, in replica order."""

    replicas = 1

    def __init__(self, ctx):
        super().__init__(ctx)
        self.nodes = [ctx.fresh_node(ctx.self_id) for _ in range(self.replicas)]

    def inputs(self, w) -> tuple:
        """One input per replica; none at all when ``w`` is None."""
        return () if w is None else (w,)

    def on_start(self, w):
        ws = self.inputs(w)
        if not ws:
            return []
        return self._rewrite(*[node.input(x) for node, x in zip(self.nodes, ws)])

    def on_deliver(self, frm, msg):
        # a terminated replica's `handle` sends nothing; once all of them
        # have terminated, the strategy sends nothing either
        live, sends = False, []
        for node in self.nodes:
            live = live or not node.terminated
            sends.append(node.handle(frm, msg))
        return self._rewrite(*sends) if live else []


class GarbageShares(_Replica):
    """Honest control flow, random garbage in every coded payload."""

    def _rewrite(self, sends):
        out = []
        for dst, msg in sends:
            if type(msg) is Symbol:
                msg = Symbol(msg.inst, (self._rand_elems(), self._rand_elems()))
            elif getattr(msg, "elems", None) is not None:
                msg = type(msg)(self._rand_elems())
            out.append((dst, msg))
        return out


class WithholdFromSubset(_Replica):
    """Honest behavior, but nothing is ever sent to the target subset."""

    def _rewrite(self, sends):
        targets = self.ctx.targets
        return [(dst, msg) for dst, msg in sends if dst not in targets]


class _TwoFaced(_Replica):
    """Two honest replicas with different inputs, split across recipients."""

    replicas = 2
    drop_phase2 = False

    def inputs(self, w) -> tuple:
        if w is None:
            w = bytes(max(1, self.ctx.params.capacity_bits // 8 - 5))
        return w, bytes(b ^ 0xFF for b in w)

    def _side_a(self, dst: int) -> bool:
        return dst <= self.ctx.n // 2 or dst == ORACLE_ID

    def _rewrite(self, sa, sb):
        out = [(dst, msg) for dst, msg in sa if self._side_a(dst)]
        out += [(dst, msg) for dst, msg in sb if not self._side_a(dst)]
        if self.drop_phase2:
            out = [(d, m) for d, m in out
                   if not (type(m) is Si and m.phase == 2)]
        return out


class EquivocateSymbols(_TwoFaced):
    """Classic split-world equivocation between the two recipient halves."""


class SplitInputBuilder(_TwoFaced):
    """Equivocate and additionally withhold all phase-2 indicators."""

    drop_phase2 = True


class ReadySpammer(_Replica):
    """Honest replica plus a budget of spurious READY and indicator spam."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.budget = 4 * ctx.n

    def _rewrite(self, sends):
        rng = self.ctx.rng
        out = list(sends)
        if self.budget > 0:
            out.append((rng.randrange(1, self.ctx.n + 1), Ready(rng.randrange(2))))
            out.append((rng.randrange(1, self.ctx.n + 1),
                        Si(rng.randrange(3), rng.randrange(1, 3), rng.randrange(2))))
            self.budget -= 2
        return out


class RandomByzantine(Strategy):
    """Well-typed chaos: random messages to random peers, bounded budget."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.budget = 8 * ctx.n

    def _spray(self):
        rng = self.ctx.rng
        out = []
        for _ in range(min(2, self.budget)):
            self.budget -= 1
            dst = rng.randrange(1, self.ctx.n + 1)
            kind = rng.randrange(8)
            if kind == 0:
                msg = Symbol(rng.randrange(3), (self._rand_elems(), self._rand_elems()))
            elif kind == 1:
                msg = Si(rng.randrange(3), rng.randrange(1, 3), rng.randrange(2))
            elif kind == 2:
                msg = Ready(rng.randrange(2))
            elif kind == 3:
                msg = NewSymbol(self._rand_elems())
            elif kind == 4:
                msg = CorrectSymbol(self._rand_elems())
            elif kind == 5:
                msg = Est(rng.randrange(3), rng.randrange(2))
            elif kind == 6:
                msg = Aux(rng.randrange(3), rng.randrange(2))
            else:
                msg = Decide(rng.randrange(2))
            out.append((dst, msg))
        return out

    def on_start(self, w):
        return self._spray()

    def on_deliver(self, frm, msg):
        return self._spray()


_STRATEGIES = {
    "crash_silent": CrashSilent,
    "equivocate_symbols": EquivocateSymbols,
    "garbage_shares": GarbageShares,
    "withhold_from_subset": WithholdFromSubset,
    "split_input_builder": SplitInputBuilder,
    "ready_spammer": ReadySpammer,
    "random_byzantine": RandomByzantine,
}
ADVERSARIES = tuple(_STRATEGIES)


# ---------------------------------------------------------------------------
# metrics and report
# ---------------------------------------------------------------------------


@dataclass
class Metrics:
    bits_by_tag: dict = field(default_factory=dict)
    total_bits: int = 0
    ideal_total_bits: float = 0.0
    egress_by_tag: dict = field(default_factory=dict)
    max_causal_round: int = 0
    decode_attempts: int = 0
    events_delivered: int = 0
    events_suppressed: int = 0
    abba_instances: int = 0

    def to_dict(self) -> dict:
        return {
            "bits_by_tag": dict(sorted(self.bits_by_tag.items())),
            "total_bits": self.total_bits,
            "ideal_total_bits": round(self.ideal_total_bits, 3),
            "egress": {str(node): sum(tags.values())
                       for node, tags in sorted(self.egress_by_tag.items())},
            "egress_by_tag": {
                str(node): dict(sorted(tags.items()))
                for node, tags in sorted(self.egress_by_tag.items())
            },
            "max_causal_round": self.max_causal_round,
            "decode_attempts": self.decode_attempts,
            "events_delivered": self.events_delivered,
            "events_suppressed": self.events_suppressed,
            "abba_instances": self.abba_instances,
        }


@dataclass
class RunReport:
    config: dict
    reason: str                      # ok | deadlock | cap
    outputs: dict                    # id -> {"terminated", "output", "bottom"}
    checks: dict
    metrics: Metrics
    event_log: list                  # flat: six fields per delivery

    @property
    def ok(self) -> bool:
        return self.reason == "ok" and all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "reason": self.reason,
            "outputs": {str(k): v for k, v in sorted(self.outputs.items())},
            "checks": dict(sorted(self.checks.items())),
            "metrics": self.metrics.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def rows(self):
        """The event log, one ``(step, frm, dst, tag, bits, rnd)`` row
        per delivery."""
        it = iter(self.event_log)
        return zip(it, it, it, it, it, it)

    def log_ndjson(self) -> str:
        return "\n".join(
            json.dumps({"step": step, "from": frm, "to": dst, "tag": tag,
                        "bits": bits, "round": rnd},
                       sort_keys=True, separators=(",", ":"))
            for step, frm, dst, tag, bits, rnd in self.rows())


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _make_params(config: SimConfig) -> CodeParams:
    if config.protocol == "small_t":
        return params_for_message_bits(
            committee_size(config.t), config.t, config.msg_len_bits)
    return params_for_message_bits(config.n, config.t, config.msg_len_bits)


def run(config: SimConfig) -> RunReport:
    """Execute one seeded run to termination, deadlock, or the event cap.

    Raises ValueError, before any delivery, for a configured input that
    `CodeParams.valid_message` rejects."""
    config.validate()
    params = _make_params(config)
    inputs = config.effective_inputs()
    for i, w in inputs.items():
        if w is not None and not params.valid_message(w):
            raise ValueError(f"node {i}: input must be non-empty bytes that fit")
    byz = frozenset(config.byzantine_ids())
    honest = [i for i in range(1, config.n + 1) if i not in byz]
    coin = CoinOracle(_subseed(config.seed, "coin"))

    def abba_for(node_id):
        if config.abba == "coin":
            return CoinAbba(node_id, params.n, config.t, coin)
        return OracleAbba(node_id)

    def build_node(node_id):
        if config.protocol == "acool":
            return AcoolNode(node_id, params, abba_for(node_id),
                             skip_brba=config.skip_brba, legacy=config.legacy_cool)
        if config.protocol == "rba":
            return RbaNode(node_id, params)
        if config.protocol == "rbc":
            return RbcNode(node_id, params, config.leader, config.balanced)
        if node_id > params.n:
            return SmallTOutsider(node_id, params)
        return SmallTNode(node_id, config.n, params, abba_for(node_id))

    nodes = {i: build_node(i) for i in honest}

    targets = frozenset(config.adversary_targets
                        or tuple(honest[: config.t + 1]))
    strategies = {}
    for b in sorted(byz):
        ctx = _AdvCtx(
            b, config.n, params,
            random.Random(_subseed(config.seed, f"adv{b}")),
            targets, build_node)
        strategies[b] = _STRATEGIES[config.adversary](ctx)

    # the binary-agreement members: honest nodes that run the composition
    participants = [i for i, node in nodes.items() if node.abba is not None]

    queue = _Queue(random.Random(_subseed(config.seed, "sched")),
                   config.scheduler, frozenset(targets), config.window())
    metrics = Metrics()
    depth = [0] * (config.n + 1)             # id -> causal round; the oracle is 0
    event_log: list = []
    step = 0

    # idealized symbol width: exact k = t/3 (no integer clamp, no chunk
    # rounding), reported alongside the raw accounting for comparison
    k_ideal = config.t / 3 if config.t >= 1 else 1.0
    ideal_cb = max(config.msg_len_bits / k_ideal,
                   math.log2(params.q))
    sym_bits = params.symbol_bits

    def enqueue(frm: int, sends):
        rnd = depth[frm] + 1
        counted_frm = (frm in nodes or frm == ORACLE_ID
                       or (frm in byz and config.count_byzantine_bits))
        batch = []
        egress = None                # this sender's row, made on its first count
        ideal_total = metrics.ideal_total_bits
        last = object()              # never a sent message, not even None
        counted = False
        for dst, msg in sends:
            if msg is not last:
                # a broadcast lists one object n times: account each run once
                if counted:
                    egress[tag] = egress.get(tag, 0) + (len(batch) - first) * bits
                first = len(batch)       # batch index of the run's first copy
                last = msg
                tag = tag_of(msg)
                bits = payload_bits(msg, sym_bits)
                counted = counted_frm and (
                    config.count_abba_bits
                    or type(msg) is not AbbaIn and type(msg) is not AbbaOut)
                if counted:
                    ideal = payload_bits(msg, ideal_cb)
                    if egress is None:
                        egress = metrics.egress_by_tag.setdefault(frm, {})
            batch.append((step, frm, dst, msg, rnd, tag, bits))
            if counted:
                # per copy: a float product can differ from repeated sums
                ideal_total += ideal
        if counted:
            egress[tag] = egress.get(tag, 0) + (len(batch) - first) * bits
        metrics.ideal_total_bits = ideal_total
        queue.push(batch)

    # feed inputs in id order to the code's n nodes; outsiders never input
    for i in range(1, params.n + 1):
        w = inputs.get(i)
        if i in nodes:
            if w is not None:
                enqueue(i, nodes[i].input(w))
        elif i in strategies:
            enqueue(i, strategies[i].on_start(w))

    # one delivery branch: each id's actor and its `handle`, `on_deliver`
    # or, for the oracle, `on_input`
    deliver = {i: (node, node.handle) for i, node in nodes.items()}
    deliver.update((b, (s, s.on_deliver)) for b, s in strategies.items())
    if config.abba == "oracle":
        adjudicator = OracleAdjudicator(participants, config.abba_hint)
        deliver[ORACLE_ID] = (adjudicator, adjudicator.on_input)
    live = sum(not node.terminated for node in nodes.values())
    suppressed = 0                      # the event log counts the rest
    # the last live node's termination ends the loop; with none, it never starts
    cap = config.event_cap if live else 0
    reason = "cap"
    while step < cap:
        if not queue.ids:
            reason = "deadlock"
            break
        enq_step, frm, dst, msg, rnd, tag, bits = queue.pop(step)
        step += 1
        entry = deliver.get(dst)
        if entry is None:           # id 0 without the oracle: no actor
            continue
        actor, handle = entry
        if actor.terminated:
            suppressed += 1
            continue
        if rnd > depth[dst]:
            depth[dst] = rnd
        sends = handle(frm, msg)
        event_log.extend((step, frm, dst, tag, bits, rnd))
        if sends:
            enqueue(dst, sends)
        if actor.terminated:
            live -= 1
            if not live:
                break
    if not live:
        reason = "ok"
    metrics.events_delivered = len(event_log) // 6
    metrics.events_suppressed = suppressed

    for row in metrics.egress_by_tag.values():
        for tag, bits in row.items():
            metrics.bits_by_tag[tag] = metrics.bits_by_tag.get(tag, 0) + bits
    metrics.total_bits = sum(metrics.bits_by_tag.values())
    # suppressed deliveries never touch depth: it froze at termination
    metrics.max_causal_round = max(
        (depth[i] for i, node in nodes.items() if node.terminated), default=0)
    metrics.abba_instances = len(participants)
    metrics.decode_attempts = sum(acc.attempts for node in nodes.values()
                                  for acc in node.accumulators)

    outputs = {}
    for i in sorted(nodes):
        out = nodes[i].output
        outputs[i] = {
            "terminated": nodes[i].terminated,
            "output": out.hex() if type(out) is bytes else None,
            "bottom": out is BOTTOM,
        }

    checks = _run_checks(config, nodes, inputs, reason)
    return RunReport(config.to_dict(), reason, outputs, checks, metrics,
                     event_log)


def _run_checks(config, nodes, inputs, reason) -> dict:
    """Post-hoc safety and agreement assertions over honest final states."""
    outs = []
    for i, node in nodes.items():
        if node.terminated:
            out = node.output
            outs.append("\x00bottom" if out is BOTTOM else out)
    consistency = len(set(outs)) <= 1

    honest_inputs = {inputs.get(i) for i in nodes}
    validity = True
    validity_applicable = False
    expected = None
    if config.protocol == "rbc":
        if config.leader in nodes and inputs.get(config.leader):
            validity_applicable = True
            expected = inputs[config.leader]
    elif len(honest_inputs) == 1 and None not in honest_inputs:
        validity_applicable = True
        (expected,) = honest_inputs
    if validity_applicable:
        validity = all(o == expected for o in outs)
        if reason == "ok":
            validity = validity and len(outs) == len(nodes)

    # unique agreement per instance: at most one input value among phase-2
    # successes, at most two among phase-1 successes
    per_inst: dict = {}
    for node in nodes.values():
        for tag, bua in node.buas.items():
            s1set, s2set = per_inst.setdefault(tag, (set(), set()))
            if bua.w is not None:
                if bua.s1 == 1:
                    s1set.add(bua.w)
                if bua.s2 == 1:
                    s2set.add(bua.w)
    gamma1 = all(len(s1) <= 2 for s1, _ in per_inst.values())
    unique = all(len(s2) <= 1 for _, s2 in per_inst.values())

    totality = (not outs) or len(outs) == len(nodes)
    if reason == "ok":
        totality = len(outs) == len(nodes)

    checks = {
        "consistency": consistency,
        "unique_agreement": unique,
        "gamma1_at_most_2": gamma1,
        "totality": totality,
    }
    if validity_applicable:
        checks["validity"] = validity
    return checks


# ---------------------------------------------------------------------------
# scenarios and sweeps
# ---------------------------------------------------------------------------


def scenario_split_input(n: int, t: int, **overrides) -> SimConfig:
    """Partition honest nodes into two input camps with a withholding adversary.

    The groups have sizes (n - 2t, t, t): the first group holds one
    value, the second another, and the t Byzantine nodes run the
    protocol honestly on the second value while never sending anything
    to the first group.
    """
    a1 = n - 2 * t
    base = SimConfig(n=n, t=t, **overrides)
    w_a, w_b = base.default_message(1), base.default_message(2)
    base.inputs = {i: w_a if i <= a1 else w_b for i in range(1, n + 1)}
    base.byzantine = tuple(range(n - t + 1, n + 1))
    base.adversary = "withhold_from_subset"
    base.adversary_targets = tuple(range(1, a1 + 1))
    return base


SCENARIOS = {"split-input": scenario_split_input}


def sweep(base: SimConfig, cells, seeds: int = 3) -> list:
    """Run a grid of configs over several seeds; one summary row per cell.

    ``cells`` is a list of override dicts.  Each row reports mean/max
    totals and the ratio of measured bits to max(n*len, n*t*log q).
    Raises ValueError when ``seeds`` is below 1, which leaves no mean.
    """
    from dataclasses import replace

    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    rows = []
    for cell in cells:
        bits, ideals, rounds, ok = [], [], [], True
        for s in range(seeds):
            rep = run(replace(base, seed=base.seed + s, **cell))
            bits.append(rep.metrics.total_bits)
            ideals.append(rep.metrics.ideal_total_bits)
            rounds.append(rep.metrics.max_causal_round)
            ok = ok and rep.ok
            del rep           # a report holds its whole event log
        cfg0 = replace(base, **cell)
        params = _make_params(cfg0)
        denom = max(cfg0.n * cfg0.msg_len_bits,
                    cfg0.n * cfg0.t * (params.q - 1).bit_length())
        rows.append({
            **cell,
            "mean_bits": sum(bits) / len(bits),
            "max_bits": max(bits),
            "mean_ideal_bits": sum(ideals) / len(ideals),
            "mean_rounds": sum(rounds) / len(rounds),
            "max_rounds": max(rounds),
            "ratio": (sum(bits) / len(bits)) / denom,
            "ideal_ratio": (sum(ideals) / len(ideals)) / denom,
            "ok": ok,
        })
    return rows
