"""Multi-valued asynchronous agreement composition.

One `AcoolNode` drives two unique-agreement instances, a binary
agreement, a binary reliable-agreement stage (READY amplification), and
a final honest-majority multicast decode:

* instance 1 runs on the raw input;
* a shared second input is derived either from instance 1's phase-2
  success (reuse own input) or by decoding the per-index majority
  symbols gossiped via NEWSYMBOL, so that even nodes starved by the
  adversary converge on the surviving input value;
* instance 2's vote feeds the binary agreement, whose output is
  amplified through READY messages (t+1 to echo, 2t+1 to fix);
* on a positive decision, nodes with a phase-2 success output their
  instance-2 message directly, and everyone else calibrates its own
  coded symbol by majority over instance-2 phase-2 successes, multicasts
  it, and decodes the agreed message from k+t matching symbols.

`ProtocolBase` is the node skeleton shared with the reliable-agreement
variants of `rba_rbc` and the committee nodes of `small_t`: input,
exact-type dispatch, SYMBOL/SI routing by an exact `int` tag, READY
tallying, the decision and the final decode.

Guards read instance and agreement state directly: instance 2's input
is ``bua2.w``, phase three is ``v_out == 1``, and calibration is
recomputed until it succeeds.

Handlers are synchronous and deterministic: every inbound event is
processed to quiescence before the next.  A node and each of its
unique-agreement instances are quiescent between events: no standing
guard can fire.  A message can therefore enable only the guards whose
inputs its handler changed, and a handler reports just the guards its
delivery can newly fire: a threshold guard when its set reaches the
threshold, an instance-dependent guard when the instance fixed a flag it
reads and it has not fired yet.  `handle` pumps only when a handler
reports some, and `ProtocolBase._pump` then walks the class's guard
table `_GUARDS`: it first evaluates only those, in the fixed guard order;
once any guard fires, every guard runs, in the same order, until a full
pass fires none.  The sends come out in the order a full re-evaluation
after every event would give.  All cross-node effects travel as returned
(destination, message) pairs; nothing here touches a network.
"""

from __future__ import annotations

from typing import Optional

from .bua import Bua
from .field_ecc import CodeParams, OecAccumulator
from .messages import (
    AbbaOut, Aux, CorrectSymbol, Decide, Est, NewSymbol, Ready, Si, Symbol,
)


class _Bottom:
    """Distinguished empty output, distinct from every byte message."""

    __slots__ = ()

    def __repr__(self):
        return "<bottom>"

    def __bool__(self):
        return False


BOTTOM = _Bottom()


# Wake bits of `AcoolNode._GUARDS`, in evaluation order; a handler returns
# those it can newly fire (`RbaNode`'s quorum rule is _ABBA_INPUT).  Bit 0
# marks a guard that can newly fire only in a pass where an earlier one
# fired: the decision, which reads ``v_out``, and the committee dispersal
(_NEW_SYMBOL, _SECOND_INPUT, _ABBA_INPUT, _ABBA_OUTPUT, _READY,
 _FINAL_DECODE) = (1 << i for i in range(6))
_ALL_GUARDS = (1 << 6) - 1


class ProtocolBase:
    """One node's lifecycle over its unique-agreement instances.

    A subclass fills ``buas`` (SYMBOL/SI tag -> instance; input starts the
    first), sets ``final_bua``, the instance the final decode reads, and
    supplies its extra `_HANDLERS`, its own ``(wake bit, guard)`` pairs in
    front of `_GUARDS` and, if it has instances, ``_absorb(bua, frm, msg,
    fixed)``, which folds a delivery an instance recorded into the node's
    own state; ``fixed`` says whether the instance fixed one of its flags.
    A handler appends its sends and returns the guards it can newly fire
    as a bit set, 0 for none; `handle` pumps only on a nonzero wake.  A
    guard takes ``(self, sends)`` and returns True on a state change.
    After a run the simulator reads ``buas``, ``accumulators`` and
    ``abba`` (set on binary-agreement participants).
    """

    skip_brba = False             # bypass the READY stage
    abba = None                   # the binary-agreement handle, if any

    def __init__(self, node_id: int, params: CodeParams):
        self.node_id = node_id
        self.params = params
        self.buas: dict = {}                      # SYMBOL/SI tag -> Bua
        self.ready_sent: Optional[int] = None     # bit sent, None if not yet
        self.ready_from = {0: set(), 1: set()}
        self.v_out: Optional[int] = None          # 1 starts phase three
        self.calibrated = False
        self.oec_final = OecAccumulator(params)
        self.accumulators = (self.oec_final,)    # every share accumulator
        self.output = None                        # None | bytes | BOTTOM
        self.terminated = False

    # -- lifecycle -------------------------------------------------------

    def input(self, w: bytes):
        """Start the first instance on ``w``, then run every guard; a second
        input or one `CodeParams.valid_message` rejects is dropped."""
        sends: list = []
        first = next(iter(self.buas.values()))
        if (self.terminated or first.w is not None
                or not self.params.valid_message(w)):
            return sends
        first.input(w, sends)
        self._pump(sends)
        return sends

    def handle(self, frm: int, msg):
        sends: list = []
        if self.terminated:
            return sends
        cls = type(msg)         # only a `type` metaclass hashes by identity
        on = self._HANDLERS.get(cls) if type(cls) is type else None
        if on is None:          # not a message this node takes: dropped
            return sends
        wake = on(self, frm, msg, sends)
        if wake:
            self._pump(sends, wake)
        return sends

    def _pump(self, sends, wake: int = _ALL_GUARDS):
        """Evaluate the `_GUARDS` in fixed order until quiescent.

        The node was quiescent before the last event, so only the guards
        in ``wake`` can fire, and only they run until one does; from then
        on every guard runs, pass after pass, until a full pass fires none.
        """
        while not self.terminated:
            changed = False
            for bit, guard in self._GUARDS:
                if changed or wake & bit:
                    changed |= guard(self, sends)
            if not changed:
                return
            wake = _ALL_GUARDS

    def _terminate(self, value):
        if not self.terminated:
            self.output = value
            self.terminated = True

    def _broadcast(self, msg, sends):
        for j in range(1, self.params.n + 1):
            sends.append((j, msg))

    # -- shared message handlers ---------------------------------------------

    def _on_instance(self, frm: int, msg, sends) -> int:
        inst = msg.inst
        bua = self.buas.get(inst) if type(inst) is int else None
        if bua is None:
            return 0
        if type(msg) is Symbol:
            recorded = bua.on_symbol(frm, msg.pair, sends)
        else:
            recorded = bua.on_si(msg.phase, frm, msg.bit, sends)
        return self._absorb(bua, frm, msg, recorded == 2) if recorded else 0

    def _on_ready(self, frm: int, msg, sends) -> int:
        """READY sets grow one sender at a time, so the amplify guard can
        newly fire only when one reaches t+1 before READY is sent, and the
        decide guard only when one reaches 2t+1 before ``v_out`` is set."""
        bit = msg.bit
        ready_from = self.ready_from
        if (type(bit) is not int or bit not in (0, 1)
                or frm in ready_from[0] or frm in ready_from[1]):
            return 0
        grown = ready_from[bit]
        grown.add(frm)
        size, t = len(grown), self.params.t
        return _READY if (size == t + 1 and self.ready_sent is None
                          or size == 2 * t + 1 and self.v_out is None) else 0

    def _on_correct_symbol(self, frm: int, msg, sends) -> int:
        if self.oec_final.submit(frm, msg.elems) is None:
            return 0
        return _FINAL_DECODE

    _HANDLERS = {
        Symbol: _on_instance, Si: _on_instance,
        Ready: _on_ready,
        CorrectSymbol: _on_correct_symbol,
    }

    # -- READY stage -------------------------------------------------------

    def _ready_guards(self, sends) -> bool:
        """Amplify at t+1, decide at 2t+1, unless ``skip_brba``."""
        if self.skip_brba:
            return False
        t = self.params.t
        changed = False
        if self.ready_sent is None:
            for b in (1, 0):
                if len(self.ready_from[b]) >= t + 1:
                    self.ready_sent = b
                    self._broadcast(Ready(b), sends)
                    changed = True
                    break
        if self.v_out is None:
            for b in (1, 0):
                if len(self.ready_from[b]) >= 2 * t + 1:
                    self.v_out = b
                    changed = True
                    break
        return changed

    def _decision_guard(self, sends) -> bool:
        """Terminate on a fixed zero vote; a one starts phase three."""
        if self.v_out == 0 and not self.terminated:
            self._terminate(BOTTOM)
            return True
        return False

    # -- final multicast ---------------------------------------------------

    def _absorb_final(self, bua: Bua, frm: int, msg) -> int:
        """Store a peer's own symbol for the final decode once the
        final-decode instance holds both it and the peer's phase-2 success;
        the guard can newly fire only in phase three."""
        if ((type(msg) is Symbol or msg.phase == 2 and msg.bit == 1)
                and frm in bua.S1p2):
            pair = bua.delivered.get(frm)
            if pair is not None:
                self.oec_final.submit(frm, pair[1])
        return _FINAL_DECODE if self.v_out == 1 else 0

    def _final_decode_guard(self, sends) -> bool:
        """Phase-three progress over ``final_bua``.

        Fast path: own phase-2 success pins the message.  Slow path:
        adopt the majority own-symbol among phase-2-successful peers,
        multicast it, then wait for the accumulated decode.
        """
        if self.v_out != 1 or self.terminated:
            return False
        bua = self.final_bua
        if bua.vote is not None and bua.s2 == 1:
            self._terminate(bua.w)
            return True
        changed = False
        if not self.calibrated:
            best = self._majority_symbol(bua)
            if best is not None:
                self.calibrated = True
                self._broadcast(CorrectSymbol(best), sends)
                changed = True
        if self.calibrated and self.oec_final.decoded is not None:
            self._terminate(self.oec_final.decoded)
            changed = True
        return changed

    def _majority_symbol(self, bua: Bua):
        """Smallest symbol delivered by >= t+1 phase-2-successful peers."""
        counts: dict = {}
        for j in bua.S1p2:
            pair = bua.delivered.get(j)
            if pair is not None:
                counts[pair[0]] = counts.get(pair[0], 0) + 1
        need = self.params.t + 1
        winners = sorted(y for y, c in counts.items() if c >= need)
        return winners[0] if winners else None

    # the tail every agreeing node ends with, after its own guards
    _GUARDS = ((_READY, _ready_guards), (0, _decision_guard),
               (_FINAL_DECODE, _final_decode_guard))


class AcoolNode(ProtocolBase):
    """One node of the full agreement composition.

    ``abba`` is the node's single binary-agreement handle (adjudicated or
    coin-based).  ``skip_brba`` bypasses the READY stage when the binary
    agreement already guarantees totality.  ``legacy`` wires instance 1
    directly into the binary agreement with no shared-input derivation;
    it reproduces the composition that loses liveness under asynchrony
    and exists only for demonstration.  Instance 1 is then the
    final-decode instance, and its deliveries fill neither ``y_table``
    nor ``oec_new``, so the majority guard never fires.
    """

    def __init__(self, node_id: int, params: CodeParams, abba,
                 skip_brba: bool = False, legacy: bool = False):
        super().__init__(node_id, params)
        self.bua1 = Bua(1, params, node_id)
        self.bua2 = Bua(2, params, node_id)
        self.buas = {1: self.bua1} if legacy else {1: self.bua1, 2: self.bua2}
        self.final_bua = self.bua1 if legacy else self.bua2
        self.abba = abba
        self.oec_new = OecAccumulator(params)
        self.accumulators = (self.oec_new, self.oec_final)
        self.y_table: dict = {}                    # symbol value -> senders
        self.y_major = None
        self.newsym_seen: set = set()
        self.skip_brba = skip_brba
        self.legacy = legacy

    # bound in the class body: the perfbench tracer wraps the entry points
    # each class holds itself
    input = ProtocolBase.input
    handle = ProtocolBase.handle

    # -- message handlers ----------------------------------------------------

    def _on_new_symbol(self, frm: int, msg, sends) -> int:
        if self.legacy or frm in self.newsym_seen:
            return 0
        self.newsym_seen.add(frm)
        if self.oec_new.submit(frm, msg.elems) is None:
            return 0
        return _SECOND_INPUT

    def _on_abba(self, frm: int, msg, sends) -> int:
        undecided = self.abba.output is None
        sends += self.abba.handle(frm, msg)
        if undecided and self.abba.output is not None and (
                self.v_out is None if self.skip_brba
                else self.ready_sent is None):
            return _ABBA_OUTPUT
        return 0

    _HANDLERS = {
        **ProtocolBase._HANDLERS,
        NewSymbol: _on_new_symbol,
        Est: _on_abba, Aux: _on_abba, Decide: _on_abba, AbbaOut: _on_abba,
    }

    # -- delivery absorption ------------------------------------------------

    def _absorb(self, bua: Bua, frm: int, msg, fixed: bool) -> int:
        # an instance fix wakes only unfired guards that can newly hold:
        # the agreement input reads the final-decode instance's vote, and
        # else instance 1's s2 and vote only at 0; the shared input reads
        # instance 1's s2 only at 1; none reads s1
        if bua is self.final_bua:
            wake = self._absorb_final(bua, frm, msg)
            if fixed and bua.vote is not None and self.abba.input_bit is None:
                wake |= _ABBA_INPUT
            return wake
        # fold an instance-1 delivery into the majority table and share
        # decoder; while starved, the majority guard can newly fire for the
        # grown group alone, or, once the phase-2 zero set grows, for any
        # group of n-2t senders
        wake = 0
        if fixed:
            if (bua.vote == 0 or bua.s2 == 0) and self.abba.input_bit is None:
                wake = _ABBA_INPUT
            if bua.s2 == 1 and self.bua2.w is None:
                wake |= _SECOND_INPUT
        elems = None
        starved = self.y_major is None and bua.s1 != 1
        if type(msg) is Symbol:
            pair = bua.delivered.get(frm)
            if pair is not None:
                grp = self.y_table.setdefault(pair[0], set())
                grp.add(frm)
                n, t = self.params.n, self.params.t
                if (starved and len(grp) >= n - 2 * t
                        and len(grp | bua.S0p2) >= n - t):
                    wake |= _NEW_SYMBOL
                if frm in bua.S1p1:
                    elems = pair[1]
        elif msg.phase == 1:
            pair = bua.delivered.get(frm) if msg.bit == 1 else None
            if pair is not None:
                elems = pair[1]
        elif msg.bit != 1 and starved:
            need = self.params.n - 2 * self.params.t
            if any(len(grp) >= need for grp in self.y_table.values()):
                wake |= _NEW_SYMBOL
        if elems is not None and self.oec_new.submit(frm, elems) is not None:
            wake |= _SECOND_INPUT
        return wake

    # -- guard cascade -------------------------------------------------------

    def _new_symbol_guard(self, sends) -> bool:
        """Adopt and gossip the per-index majority symbol when starved.

        Fires once, only while the own phase-1 indicator is not 1: some
        value must be reported by n-2t peers and, together with the
        phase-2 zero set, cover n-t peers.
        """
        if self.y_major is not None or self.bua1.s1 == 1:
            return False
        n, t = self.params.n, self.params.t
        s0p2 = self.bua1.S0p2
        for y in sorted(self.y_table):
            grp = self.y_table[y]
            if len(grp) >= n - 2 * t and len(grp | s0p2) >= n - t:
                self.y_major = y
                self._broadcast(NewSymbol(y), sends)
                return True
        return False

    def _second_input_guard(self, sends) -> bool:
        """Start instance 2 on the decoded majority input or, failing that,
        on the own input once instance 1 reached phase-2 success."""
        if self.legacy or self.bua2.w is not None:
            return False
        w = self.oec_new.decoded
        if w is None and self.bua1.s2 == 1:
            w = self.bua1.w
        if w is None:
            return False
        self.bua2.input(w, sends)
        return True

    def _abba_input_guard(self, sends) -> bool:
        if self.abba.input_bit is not None:
            return False
        if self.final_bua.vote is not None:
            sends += self.abba.input(self.final_bua.vote)
        elif not self.legacy and (self.bua1.vote == 0 or self.bua1.s2 == 0):
            sends += self.abba.input(0)
        else:
            return False
        return True

    def _abba_output_guard(self, sends) -> bool:
        out = self.abba.output
        if out is None:
            return False
        if self.skip_brba:
            if self.v_out is None:
                self.v_out = out
                return True
            return False
        if self.ready_sent is None:
            self.ready_sent = out
            self._broadcast(Ready(out), sends)
            return True
        return False

    _GUARDS = ((_NEW_SYMBOL, _new_symbol_guard),
               (_SECOND_INPUT, _second_input_guard),
               (_ABBA_INPUT, _abba_input_guard),
               (_ABBA_OUTPUT, _abba_output_guard), *ProtocolBase._GUARDS)
