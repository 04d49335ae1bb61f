"""Reliable agreement and leader broadcast built on unique agreement.

`RbaNode` replaces the binary-agreement stage with a direct quorum rule:
the first phase-2 indicator set to reach n-t peers triggers the READY
vote for that bit, after which amplification, decision and the final
multicast decode work exactly as in the main composition.

`RbcNode` adds a leader dispersal phase in front of reliable agreement.
In balanced mode the leader sends one coded share per node and every
node echoes its share to all, so followers reconstruct the message by
accumulated decode and the leader's egress stays near message size; in
unbalanced mode the leader simply broadcasts the whole message.
"""

from __future__ import annotations

import logging
from typing import Optional

from .bua import Bua, BuaConfig
from .field_ecc import CodeParams, OecAccumulator, ecc_encode
from .messages import (
    CorrectSymbol, Initial, Leader, LeaderMessage, Ready, Si, Symbol,
)
from .protocol import NodeState, ProtocolBase

log = logging.getLogger(__name__)


class RbaNode(ProtocolBase):
    """Reliable multi-valued agreement: totality without binary agreement."""

    def __init__(self, node_id: int, params: CodeParams):
        super().__init__(node_id, params)
        self.bua = Bua(BuaConfig(0, params, node_id))
        self.w_input: Optional[bytes] = None
        self.quorum_collision = False

    def introspect(self) -> NodeState:
        return NodeState(self.oec_final.attempts, ((0, self.bua),), False,
                         self.quorum_collision)

    def input(self, w: bytes):
        sends: list = []
        if self.terminated or self.w_input is not None:
            return sends
        if not w:
            return sends
        self.w_input = w
        s, ev = self.bua.input(w)
        sends += s
        self._absorb_final(self.bua, ev)
        self._pump(sends)
        return sends

    def handle(self, frm: int, msg):
        sends: list = []
        if self.terminated:
            return sends
        if isinstance(msg, (Symbol, Si)) and msg.inst == 0:
            s, ev = self.bua.handle(frm, msg)
            sends += s
            self._absorb_final(self.bua, ev)
        elif isinstance(msg, Ready):
            self._on_ready(frm, msg.bit)
        elif isinstance(msg, CorrectSymbol):
            self._on_correct_symbol(frm, msg.elems)
        else:
            log.debug("node %d: dropping %r", self.node_id, msg)
        self._pump(sends)
        return sends

    def _pump(self, sends):
        changed = True
        while changed and not self.terminated:
            changed = False
            changed |= self._quorum_ready_guard(sends)
            changed |= self._ready_guards(sends)
            changed |= self._decision_guard()
            changed |= self._final_decode_guard(self.bua, sends)

    def _quorum_ready_guard(self, sends) -> bool:
        """First phase-2 indicator set reaching n-t fires READY for its bit."""
        n, t = self.params.n, self.params.t
        sets = {1: self.bua.S1p2, 0: self.bua.S0p2}
        if self.ready_sent is not None:
            other = 1 - self.ready_sent
            if len(sets[other]) >= n - t and not self.quorum_collision:
                self.quorum_collision = True
                log.debug("node %d: second quorum also reached n-t", self.node_id)
            return False
        for b in (1, 0):
            if len(sets[b]) >= n - t:
                self.ready_sent = b
                self._broadcast(Ready(b), sends)
                return True
        return False


class RbcNode:
    """Leader broadcast: dispersal (balanced or not) feeding reliable agreement."""

    def __init__(self, node_id: int, params: CodeParams, leader: int,
                 balanced: bool = True):
        self.node_id = node_id
        self.params = params
        self.leader = leader
        self.balanced = balanced
        self.inner = RbaNode(node_id, params)
        self.initial_acc = OecAccumulator(params, accept=lambda m: len(m) > 0)
        self.leader_seen = False
        self.initial_seen: set = set()
        self.w: Optional[bytes] = None
        self.fed = False

    def poll_output(self):
        return self.inner.poll_output()

    def is_terminated(self) -> bool:
        return self.inner.is_terminated()

    def introspect(self) -> NodeState:
        inner = self.inner.introspect()
        return inner._replace(decode_attempts=self.initial_acc.attempts
                              + inner.decode_attempts)

    def input(self, w: bytes):
        sends: list = []
        if self.node_id != self.leader:
            log.debug("node %d: not the leader, input rejected", self.node_id)
            return sends
        if not w:
            return sends
        if self.balanced:
            shares = ecc_encode(self.params, w)
            for j in range(1, self.params.n + 1):
                sends.append((j, Leader(shares[j - 1].elems)))
        else:
            for j in range(1, self.params.n + 1):
                sends.append((j, LeaderMessage(w)))
        return sends

    def handle(self, frm: int, msg):
        sends: list = []
        if self.inner.terminated:
            return sends
        if isinstance(msg, Leader):
            if (self.balanced and frm == self.leader and not self.leader_seen
                    and self.params.valid_elems(msg.elems)):
                self.leader_seen = True
                for j in range(1, self.params.n + 1):
                    sends.append((j, Initial(msg.elems)))
        elif isinstance(msg, Initial):
            if (self.balanced and frm not in self.initial_seen
                    and self.params.valid_elems(msg.elems)):
                self.initial_seen.add(frm)
                if not self.initial_acc.done:
                    got = self.initial_acc.submit(frm, msg.elems)
                    if got is not None and self.w is None:
                        self.w = got
        elif isinstance(msg, LeaderMessage):
            if (not self.balanced and frm == self.leader and not self.leader_seen):
                self.leader_seen = True
                if (self.w is None and msg.payload
                        and self.params.valid_message(msg.payload)):
                    self.w = msg.payload
        else:
            sends += self.inner.handle(frm, msg)
        if self.w is not None and not self.fed:
            self.fed = True
            sends += self.inner.input(self.w)
        return sends
