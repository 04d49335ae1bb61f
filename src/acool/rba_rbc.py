"""Reliable agreement and leader broadcast built on unique agreement.

`RbaNode` replaces the binary-agreement stage with a direct quorum rule:
the first phase-2 indicator set to reach n-t peers triggers the READY
vote for that bit, after which amplification, decision and the final
multicast decode work exactly as in the main composition.

`RbcNode` is an `RbaNode` with a leader dispersal phase in front.  In
balanced mode the leader sends one coded share per node and every node
echoes its share to all, so followers reconstruct the message by
accumulated decode and the leader's egress stays near message size; in
unbalanced mode the leader simply broadcasts the whole message.  Either
way the leader's message, once known, is the node's agreement input.
"""

from __future__ import annotations

import logging

from .bua import Bua
from .field_ecc import CodeParams, OecAccumulator, ecc_encode
from .messages import Initial, Leader, LeaderMessage, Ready, Si
from .protocol import _ABBA_INPUT, ProtocolBase

log = logging.getLogger(__name__)


class RbaNode(ProtocolBase):
    """Reliable multi-valued agreement: totality without binary agreement."""

    def __init__(self, node_id: int, params: CodeParams):
        super().__init__(node_id, params)
        self.bua = Bua(0, params, node_id)
        self.buas = {0: self.bua}
        self.final_bua = self.bua

    # bound in the class body: the perfbench tracer wraps the entry points
    # each class holds itself
    input = ProtocolBase.input
    handle = ProtocolBase.handle

    def _absorb(self, bua: Bua, frm: int, msg, fixed: bool) -> int:
        """The instance backs the final decode; the quorum rule can newly
        fire only when a phase-2 set reaches exactly n-t."""
        wake = self._absorb_final(bua, frm, msg)
        if type(msg) is Si and msg.phase == 2:
            grown = bua.S1p2 if msg.bit == 1 else bua.S0p2
            if len(grown) == self.params.n - self.params.t:
                wake |= _ABBA_INPUT
        return wake

    def _quorum_ready_guard(self, sends) -> bool:
        """First phase-2 indicator set reaching n-t fires READY for its bit.

        A set reaching n-t after READY amplification sent the other bit
        sets ``quorum_collision``: t+1 honest peers reported that bit.
        """
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

    _GUARDS = ((_ABBA_INPUT, _quorum_ready_guard), *ProtocolBase._GUARDS)


class RbcNode(RbaNode):
    """Leader broadcast: dispersal (balanced or not) feeding reliable agreement."""

    def __init__(self, node_id: int, params: CodeParams, leader: int,
                 balanced: bool = True):
        super().__init__(node_id, params)
        self.leader = leader
        self.balanced = balanced
        self.initial_acc = OecAccumulator(params)
        self.accumulators = (self.initial_acc, self.oec_final)
        self.leader_seen = False

    handle = ProtocolBase.handle

    def input(self, w: bytes):
        """Disperse ``w`` if this node leads and `CodeParams.valid_message`
        takes it; any other input is dropped."""
        sends: list = []
        if self.node_id != self.leader or not self.params.valid_message(w):
            return sends
        if self.balanced:
            rows = ecc_encode(self.params, w)
            for j in range(1, self.params.n + 1):
                sends.append((j, Leader(rows[j - 1])))
        else:
            self._broadcast(LeaderMessage(w), sends)
        return sends

    # -- dispersal handlers ----------------------------------------------

    def _on_leader(self, frm: int, msg, sends) -> int:
        if (self.balanced and frm == self.leader and not self.leader_seen
                and self.params.valid_elems(msg.elems)):
            self.leader_seen = True
            self._broadcast(Initial(msg.elems), sends)
        return 0

    def _on_initial(self, frm: int, msg, sends) -> int:
        if self.balanced:
            got = self.initial_acc.submit(frm, msg.elems)
            if got is not None:
                sends += ProtocolBase.input(self, got)
        return 0

    def _on_leader_message(self, frm: int, msg, sends) -> int:
        if not self.balanced and frm == self.leader and not self.leader_seen:
            self.leader_seen = True
            sends += ProtocolBase.input(self, msg.payload)
        return 0

    _HANDLERS = {
        **RbaNode._HANDLERS,
        Leader: _on_leader, Initial: _on_initial,
        LeaderMessage: _on_leader_message,
    }
