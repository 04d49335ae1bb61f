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

from .field_ecc import CodeParams, encode_elements, pack_message
from .messages import Shmdm
from .protocol import BOTTOM, AcoolNode, ProtocolBase

log = logging.getLogger(__name__)


def committee_size(t: int) -> int:
    return 3 * t + 1


class SmallTNode(AcoolNode):
    """A committee member: the composition among nodes [1..3t+1], then dispersal.

    ``params`` is the committee's code geometry and ``n`` the size of the
    whole network.  Traffic from senders outside the committee is dropped;
    once the composition terminates the node, it sends its own row of the
    decision (or a bottom marker) to every outsider.
    """

    def __init__(self, node_id: int, n: int, params: CodeParams, abba):
        super().__init__(node_id, params, abba)
        self.n = n

    # bound in the class body: the perfbench tracer wraps the entry points
    # each class holds itself
    input = ProtocolBase.input

    def handle(self, frm: int, msg):
        if frm > self.params.n:
            return []
        return ProtocolBase.handle(self, frm, msg)

    def _disperse_guard(self, sends) -> bool:
        """Disperse the decision in the pass that terminated the node; only
        a live node is pumped, and that pass is the pump's last."""
        if not self.terminated:
            return False
        params = self.params
        if self.output is BOTTOM:
            share = Shmdm(None)
        else:
            rows = encode_elements(params, pack_message(params, self.output))
            share = Shmdm(rows[self.node_id - 1])
        for j in range(params.n + 1, self.n + 1):
            sends.append((j, share))
        return True

    _GUARDS = (*AcoolNode._GUARDS, (0, _disperse_guard))


class SmallTOutsider(ProtocolBase):
    """A node outside the committee: it only decodes the committee's dispersal.

    Its input is ignored (with a warning): only committee inputs reach
    the agreement.
    """

    def __init__(self, node_id: int, params: CodeParams):
        super().__init__(node_id, params)
        self.shmdm_seen: set = set()
        self.bottom_votes: set = set()

    def input(self, w: bytes):
        log.warning("node %d outside committee: input ignored", self.node_id)
        return []

    def _on_shmdm(self, frm: int, msg, sends) -> int:
        if frm > self.params.n or frm in self.shmdm_seen:
            return 0
        self.shmdm_seen.add(frm)
        if msg.elems is None:
            self.bottom_votes.add(frm)
            if len(self.bottom_votes) >= self.params.t + 1:
                self._terminate(BOTTOM)
        else:
            got = self.oec_final.submit(frm, msg.elems)
            if got is not None:
                self._terminate(got)
        return 0

    _HANDLERS = {Shmdm: _on_shmdm}
