"""Committee-scoped agreement for small fault bounds.

When t is much smaller than n, running the full composition on all n
nodes wastes bandwidth.  Instead the lowest 3t+1 node ids form a
committee that runs the full composition among themselves; each member
then sends one coded share of the agreed message to every outsider, and
outsiders reconstruct it by accumulated decode at the usual k+t
threshold with the codeword match check.

An empty (bottom) committee decision is not encodable, so members
disperse a one-bit marker instead and outsiders accept bottom on t+1
matching markers, which guarantees at least one honest witness.
"""

from __future__ import annotations

import logging
from typing import Optional

from .field_ecc import CodeParams, OecAccumulator, encode_elements, pack_message
from .messages import Shmdm
from .protocol import BOTTOM, AcoolNode, NodeState

log = logging.getLogger(__name__)


def committee_size(t: int) -> int:
    return 3 * t + 1


class SmallTNode:
    """Wrapper running the composition inside the committee [1..3t+1].

    Committee members route the protocol traffic of committee senders to
    an inner `AcoolNode` whose peer space is the committee; outsiders only
    consume SHMDM shares.  Outsider inputs are ignored (with a warning):
    only committee inputs reach the agreement.
    """

    def __init__(self, node_id: int, n: int, params: CodeParams, abba=None):
        self.node_id = node_id
        self.n = n
        self.params = params                    # committee code geometry
        self.n_prime = params.n
        self.in_committee = node_id <= self.n_prime
        self.inner: Optional[AcoolNode] = None
        if self.in_committee:
            self.inner = AcoolNode(node_id, params, abba)
        self.oec = OecAccumulator(params)
        self.shmdm_seen: set = set()
        self.bottom_votes: set = set()
        self.dispersed = False
        self.output = None
        self.terminated = False

    def poll_output(self):
        return self.output

    def is_terminated(self) -> bool:
        return self.terminated

    def introspect(self) -> NodeState:
        if self.inner is None:
            return NodeState(self.oec.attempts, (), False, False)
        inner = self.inner.introspect()
        return inner._replace(decode_attempts=self.oec.attempts
                              + inner.decode_attempts)

    def input(self, w: bytes):
        if not self.in_committee:
            log.warning("node %d outside committee: input ignored", self.node_id)
            return []
        sends = self.inner.input(w)
        sends += self._check_inner()
        return sends

    def handle(self, frm: int, msg):
        sends: list = []
        if self.terminated:
            return sends
        if isinstance(msg, Shmdm):
            self._on_shmdm(frm, msg)
            return sends
        if self.in_committee and frm <= self.n_prime:
            sends += self.inner.handle(frm, msg)
            sends += self._check_inner()
        return sends

    def _on_shmdm(self, frm: int, msg: Shmdm):
        if self.in_committee or frm > self.n_prime or frm in self.shmdm_seen:
            return
        self.shmdm_seen.add(frm)
        if msg.elems is None:
            self.bottom_votes.add(frm)
            if len(self.bottom_votes) >= self.params.t + 1:
                self.output = BOTTOM
                self.terminated = True
            return
        if self.oec.done or not self.params.valid_elems(msg.elems):
            return
        got = self.oec.submit(frm, msg.elems)
        if got is not None:
            self.output = got
            self.terminated = True

    def _check_inner(self):
        """Disperse and terminate once the committee run concludes."""
        sends: list = []
        if self.dispersed or not self.inner.is_terminated():
            return sends
        self.dispersed = True
        decided = self.inner.poll_output()
        outsiders = range(self.n_prime + 1, self.n + 1)
        if decided is BOTTOM:
            for j in outsiders:
                sends.append((j, Shmdm(None)))
        else:
            rows = encode_elements(self.params, pack_message(self.params, decided))
            own = rows[self.node_id - 1]
            for j in outsiders:
                sends.append((j, Shmdm(own)))
        self.output = decided
        self.terminated = True
        return sends
