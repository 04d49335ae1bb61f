"""Asynchronous binary agreement dependency.

The multi-valued composition invokes exactly one binary agreement
instance per node and only relies on its Termination / Consistency /
Validity contract.  Two interchangeable implementations are provided:

* `OracleAbba` talks to a harness-side `OracleAdjudicator` over a side
  channel.  The adjudicator applies the weakest decision rule consistent
  with Validity and Consistency: the configured adversary hint wins the
  moment any honest participant proposes it, otherwise the unanimous
  honest bit wins once every participant has spoken.  Zero protocol
  messages; used to test the composition in isolation.

* `CoinAbba` is a round-based construction over a perfect common coin:
  per round, estimates gossip with t+1 relay and 2t+1 acceptance
  quorums, n-t AUX messages close the round, and the coin breaks ties.
  A Bracha-style DECIDE gadget (t+1 relay, 2t+1 output) lets everyone
  halt once anybody decides.  It needs every honest participant to
  provide an input before it can guarantee an output, which is exactly
  why the enclosing protocol keeps its binary reliable-agreement stage
  on by default.
"""

from __future__ import annotations

import hashlib
import logging
from typing import Optional

from .messages import AbbaIn, AbbaOut, Aux, Decide, Est

log = logging.getLogger(__name__)

ORACLE_ID = 0


class OracleAbba:
    """Node-side handle of the adjudicated binary agreement."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.input_bit: Optional[int] = None
        self.output: Optional[int] = None

    def input(self, bit: int):
        if self.input_bit is not None:
            return []
        self.input_bit = bit
        return [(ORACLE_ID, AbbaIn(bit))]

    def handle(self, frm: int, msg):
        if isinstance(msg, AbbaOut) and frm == ORACLE_ID and self.output is None:
            self.output = msg.bit
        return []


class OracleAdjudicator:
    """Harness-side decision rule: adversary picks among proposed bits.

    The weakest decision rule consistent with validity and consistency,
    applied as proposals arrive: decides the hint as soon as any
    participant proposes it; decides the unanimous bit once all
    participants have proposed and none matched the hint.  Ignores inputs
    from outside the participant set.
    """

    def __init__(self, participants, hint: int = 0):
        self.participants = frozenset(participants)
        self.hint = hint
        self.inputs: dict = {}
        self.decided: Optional[int] = None

    def on_input(self, frm: int, bit: int) -> Optional[int]:
        """Record one proposal; returns the decision the first time it fixes."""
        if self.decided is not None or frm not in self.participants:
            return None
        if frm in self.inputs:
            return None
        self.inputs[frm] = bit
        if bit == self.hint:
            self.decided = self.hint
        elif len(self.inputs) == len(self.participants):
            # hint never proposed: inputs are unanimous on the other bit
            self.decided = bit
        return self.decided


class CoinOracle:
    """Deterministic common coin: same (seed, round) bit at every node."""

    def __init__(self, seed: int):
        self.seed = seed

    def bit(self, rnd: int) -> int:
        h = hashlib.sha256(f"coin:{self.seed}:{rnd}".encode()).digest()
        return h[0] & 1


def _is_bit(bit) -> bool:
    # 1.0 and True pass `in (0, 1)`, and a received bit may be relayed
    return type(bit) is int and bit in (0, 1)


class CoinAbba:
    """Round-based binary agreement over a perfect common coin."""

    def __init__(self, node_id: int, n: int, t: int, coin: CoinOracle):
        self.node_id = node_id
        self.n = n
        self.t = t
        self.coin = coin
        self.input_bit: Optional[int] = None
        self.est: Optional[int] = None
        self.round = 0
        self.est_recv: dict = {}        # (round, bit) -> senders
        self.est_sent: set = set()      # (round, bit)
        self.bin_values: dict = {}      # round -> set of accepted bits
        self.aux_sent: set = set()      # rounds
        self.aux_recv: dict = {}        # round -> (senders of 0, senders of 1)
        self.decide_sent = False
        self.decide_seen: set = set()
        self.decide_recv = {0: set(), 1: set()}
        self.output: Optional[int] = None

    def _broadcast(self, msg):
        return [(j, msg) for j in range(1, self.n + 1)]

    def input(self, bit: int):
        if self.input_bit is not None:
            return []
        self.input_bit = bit
        self.est = bit
        key = (0, bit)
        self.est_sent.add(key)
        return self._broadcast(Est(0, bit))

    def handle(self, frm: int, msg):
        if self.output is not None:
            return []
        if isinstance(msg, Est):
            return self._on_est(frm, msg.round, msg.bit)
        if isinstance(msg, Aux):
            return self._on_aux(frm, msg.round, msg.bit)
        if isinstance(msg, Decide):
            return self._on_decide(frm, msg.bit)
        return []

    def _on_est(self, frm: int, rnd: int, bit: int):
        if not _is_bit(bit) or type(rnd) is not int or rnd < 0:
            return []
        sends = []
        key = (rnd, bit)
        got = self.est_recv.setdefault(key, set())
        if frm in got:
            return []
        got.add(frm)
        if len(got) >= self.t + 1 and key not in self.est_sent:
            self.est_sent.add(key)
            sends += self._broadcast(Est(rnd, bit))
        if len(got) >= 2 * self.t + 1:
            accepted = self.bin_values.setdefault(rnd, set())
            if bit not in accepted:
                accepted.add(bit)
                if rnd not in self.aux_sent:
                    self.aux_sent.add(rnd)
                    sends += self._broadcast(Aux(rnd, bit))
        sends += self._advance()
        return sends

    def _on_aux(self, frm: int, rnd: int, bit: int):
        if not _is_bit(bit) or type(rnd) is not int or rnd < 0:
            return []
        aux = self.aux_recv.get(rnd)
        if aux is None:
            aux = self.aux_recv[rnd] = (set(), set())
        if frm not in aux[0] and frm not in aux[1]:
            aux[bit].add(frm)
        return self._advance()

    def _on_decide(self, frm: int, bit: int):
        if not _is_bit(bit) or frm in self.decide_seen:
            return []
        self.decide_seen.add(frm)
        self.decide_recv[bit].add(frm)
        sends = []
        if len(self.decide_recv[bit]) >= self.t + 1 and not self.decide_sent:
            self.decide_sent = True
            sends += self._broadcast(Decide(bit))
        if len(self.decide_recv[bit]) >= 2 * self.t + 1:
            self.output = bit
        return sends

    def _advance(self):
        """Close the current round whenever its AUX quorum is coherent."""
        sends = []
        while self.input_bit is not None and self.output is None:
            rnd = self.round
            accepted = self.bin_values.get(rnd)
            if not accepted:
                break
            aux = self.aux_recv.get(rnd)
            if aux is None:
                break
            # accepted bit -> its AUX senders, for the bits that have any
            support = {b: len(aux[b]) for b in accepted if aux[b]}
            if sum(support.values()) < self.n - self.t:
                break
            s = self.coin.bit(rnd)
            if len(support) == 1:
                (v,) = support
                self.est = v
                if v == s and not self.decide_sent:
                    self.decide_sent = True
                    sends += self._broadcast(Decide(v))
            else:
                self.est = s
            self.round = rnd + 1
            key = (self.round, self.est)
            if key not in self.est_sent:
                self.est_sent.add(key)
                sends += self._broadcast(Est(self.round, self.est))
        return sends
