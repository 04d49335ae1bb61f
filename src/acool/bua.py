"""Two-phase unique-agreement state machine.

Each node encodes its input and exchanges per-link symbol pairs; matching
links accumulate in L1, mismatching ones in L0.  Phase-1 and phase-2
success indicators gossip through SI messages, and a final binary vote is
reached from the phase-2 indicator sets.  The enclosing protocol reads
the machine's sets and write-once flags directly.

Safety rests on the code geometry: two distinct messages agree on fewer
than k encoding positions, so at most two distinct honest inputs can ever
reach a phase-1 success, and at most one can reach phase-2.
"""

from __future__ import annotations

from typing import Optional

from .field_ecc import CodeParams, ecc_encode
from .messages import Si, Symbol


class Bua:
    """One unique-agreement instance, driven by symbol and SI messages.

    ``instance`` is the SYMBOL/SI tag: 1 or 2 in the composition, 0
    standalone.  Handlers append their sends, (destination, message)
    pairs addressed to every node including self, to the caller's list.
    All indicator flags are write-once and guard evaluation order is
    fixed, so replaying the same deliveries always produces the same
    outcome.  The instance is quiescent between calls: no guard can
    fire.  A message handler therefore checks only the guards whose
    inputs its message changed, and returns 0 if it recorded nothing, 2
    if it fixed ``s1``, ``s2`` or ``vote``, and 1 otherwise.
    """

    def __init__(self, instance: int, params: CodeParams, self_id: int):
        self.instance = instance
        self.params = params
        self.self_id = self_id
        self.w: Optional[bytes] = None
        self.own_shares: Optional[tuple] = None  # own_shares[j-1] = elems for node j
        self.L0: set = set()
        self.L1: set = set()
        self.S1p1: set = set()
        self.S0p1: set = set()
        self.S1p2: set = set()
        self.S0p2: set = set()
        self.s1: Optional[int] = None
        self.s2: Optional[int] = None
        self.vote: Optional[int] = None
        self.delivered: dict = {}     # sender -> pair whose pair[0] is a share
        self.symbol_seen: set = set()
        self.pending: list = []

    # -- input and message handlers ------------------------------------

    def input(self, w: bytes, sends: list):
        """Set the initial value; encodes and fans out one pair per node.
        The caller has checked it: a first input that is a message."""
        self.w = w
        self.own_shares = ecc_encode(self.params, w)
        inst = self.instance
        my_elems = self.own_shares[self.self_id - 1]
        for j in range(1, self.params.n + 1):
            sends.append((j, Symbol(inst, (self.own_shares[j - 1], my_elems))))
        pending, self.pending = self.pending, []
        for frm, pair, ok in pending:
            self._classify(frm, pair, ok)
        self._guards(sends)

    def on_symbol(self, frm: int, pair, sends: list) -> int:
        """First SYMBOL from ``frm``; returns 0, 1 or 2 as the class says.

        A pair is delivered upward immediately if it is exactly a 2-tuple
        whose recipient half ``pair[0]``, the half this node reads, is a
        share (`CodeParams.valid_elems`); the `OecAccumulator` that stores
        the forwarded half ``pair[1]`` checks that one.  The enclosing
        protocol consumes symbol halves and set memberships only, so a node
        without an input can still calibrate and decode (its peers may
        already have terminated and will not resend).  Only the link-set
        classification waits for the local encode.
        """
        if frm in self.symbol_seen:
            return 0
        self.symbol_seen.add(frm)
        ok = (type(pair) is tuple and len(pair) == 2
              and self.params.valid_elems(pair[0]))
        if ok:
            self.delivered[frm] = pair
        if self.own_shares is None:
            self.pending.append((frm, pair, ok))
            return 1
        flags = self.s1, self.s2
        self._classify(frm, pair, ok)
        self._guards(sends)
        return 1 + (flags != (self.s1, self.s2))

    def on_si(self, phase: int, frm: int, bit: int, sends: list) -> int:
        """First SI of phase 1 or 2 from ``frm`` joins the indicator sets;
        returns 0, 1 or 2 as the class says.

        A phase or bit that is not exactly such an int is dropped.  Only
        the one guard that reads the grown set is checked: phase-1 one
        feeds phase-2 one, phase-1 zero phase-2 zero, and the phase-2 sets
        their votes.  None of those flags is read by another guard.
        """
        if (type(phase) is not int or phase not in (1, 2)
                or type(bit) is not int or bit not in (0, 1)):
            return 0
        ones, zeros = ((self.S1p1, self.S0p1) if phase == 1
                       else (self.S1p2, self.S0p2))
        if frm in ones or frm in zeros:
            return 0
        n, t = self.params.n, self.params.t
        if phase == 2:
            if bit == 1:
                self.S1p2.add(frm)
                if self.vote is None and len(self.S1p2) >= n - t:
                    self.vote = 1
                    return 2
            else:
                self.S0p2.add(frm)
                if self.vote is None and len(self.S0p2) >= t + 1:
                    self.vote = 0
                    return 2
        elif bit == 1:
            self.S1p1.add(frm)
            if self.s2 is None and self._phase2_one():
                self._set_s(2, 1, sends)
                return 2
        else:
            self.S0p1.add(frm)
            if self.s2 is None and self._phase2_zero():
                self._set_s(2, 0, sends)
                return 2
        return 1

    # -- internals -------------------------------------------------------

    def _classify(self, frm: int, pair, ok: bool):
        # L1 only if both halves are shares equal to the expected ones
        shares = self.own_shares
        mine, theirs = shares[self.self_id - 1], shares[frm - 1]
        if ok and (pair[0] is mine or pair[0] == mine) and (
                pair[1] is theirs
                or self.params.valid_elems(pair[1]) and pair[1] == theirs):
            self.L1.add(frm)
        else:
            # any non-equal (or malformed) pair is a mismatch
            self.L0.add(frm)

    def _guards(self, sends: list):
        """Evaluate all standing guards in fixed order after a mutation.

        Order: phase-1 one, phase-1 zero, phase-2 zero, phase-2 one.
        Every flag is write-once and the sets only grow, so delivery order
        cannot change which guards eventually fire.  A link-set change can
        fix ``s1`` and then ``s2`` in one pass, so `input` and `on_symbol`
        run them all.  The vote is fixed in `on_si`, where its sets grow.
        """
        n, t = self.params.n, self.params.t
        if self.s1 is None and len(self.L1) >= n - t:
            self._set_s(1, 1, sends)
        if self.s1 is None and len(self.L0) >= t + 1:
            self._set_s(1, 0, sends)
        if self.s2 is None and self._phase2_zero():
            self._set_s(2, 0, sends)
        if self.s2 is None and self._phase2_one():
            self._set_s(2, 1, sends)

    def _phase2_zero(self) -> bool:
        """The phase-2 zero threshold; a union is built only when the set
        sizes alone cannot settle it."""
        t = self.params.t
        s0p1, l0 = self.S0p1, self.L0
        return (self.s1 == 0 or len(s0p1) > t or len(l0) > t
                or (len(s0p1) + len(l0) > t and len(s0p1 | l0) > t))

    def _phase2_one(self) -> bool:
        m = self.params.n - self.params.t
        return (self.s1 == 1 and len(self.S1p1) >= m and len(self.L1) >= m
                and len(self.S1p1 & self.L1) >= m)

    def _set_s(self, phase: int, bit: int, sends: list):
        if phase == 1:
            self.s1 = bit
        else:
            self.s2 = bit
        msg = Si(self.instance, phase, bit)
        for j in range(1, self.params.n + 1):
            sends.append((j, msg))
