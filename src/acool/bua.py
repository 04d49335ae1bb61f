"""Two-phase unique-agreement state machine.

Each node encodes its input and exchanges per-link symbol pairs; matching
links accumulate in L1, mismatching ones in L0.  Phase-1 and phase-2
success indicators gossip through SI messages, and a final binary vote is
reached from the phase-2 indicator sets.  The machine continuously
surfaces its internal sets and write-once flags to the enclosing
protocol, both as events returned from each handler and as directly
readable state.

Safety rests on the code geometry: two distinct messages agree on fewer
than k encoding positions, so at most two distinct honest inputs can ever
reach a phase-1 success, and at most one can reach phase-2.
"""

from __future__ import annotations

import logging
from typing import NamedTuple, Optional

from .field_ecc import CodeParams, ecc_encode
from .messages import Si, Symbol

log = logging.getLogger(__name__)


class BuaConfig(NamedTuple):
    instance: int             # SYMBOL/SI sub-tag: 1 or 2 in the composition, 0 standalone
    params: CodeParams
    self_id: int


class SymbolDelivered(NamedTuple):
    """A well-formed symbol pair from ``sender`` was recorded."""

    sender: int
    pair: tuple


class IndicatorSet(NamedTuple):
    """Own phase indicator was fixed (write-once)."""

    phase: int
    bit: int


class SiRecorded(NamedTuple):
    """A peer's indicator joined the phase sets."""

    phase: int
    bit: int
    sender: int


class Final(NamedTuple):
    """Vote fired: the (message, phase-2 indicator, vote) triple."""

    w: Optional[bytes]
    s2: Optional[int]
    vote: int


class Bua:
    """One unique-agreement instance, driven by symbol and SI messages.

    Handlers return (sends, events); sends are (destination, message)
    pairs addressed to every node including self.  All indicator flags
    are write-once and guard evaluation order is fixed, so replaying the
    same deliveries always produces the same outcome.
    """

    def __init__(self, cfg: BuaConfig):
        self.cfg = cfg
        self.params = cfg.params
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
        self.delivered: dict = {}                # sender -> well-formed pair
        self.symbol_seen: set = set()
        self.si_seen = (set(), set())            # per phase
        self.pending: list = []

    # -- input and message handlers ------------------------------------

    def input(self, w: bytes):
        """Set the initial value; encodes and fans out one pair per node."""
        sends: list = []
        events: list = []
        if self.w is not None:
            log.debug("duplicate input ignored")
            return sends, events
        if not w:
            log.debug("empty input rejected")
            return sends, events
        self.w = w
        self.own_shares = ecc_encode(self.params, w)
        me = self.cfg.self_id
        inst = self.cfg.instance
        my_elems = self.own_shares[me - 1]
        for j in range(1, self.params.n + 1):
            sends.append((j, Symbol(inst, (self.own_shares[j - 1], my_elems))))
        pending, self.pending = self.pending, []
        for frm, pair, ok in pending:
            self._classify(frm, pair, ok)
        self._guards(sends, events)
        return sends, events

    def on_symbol(self, frm: int, pair):
        """First SYMBOL from ``frm``.

        The pair is delivered upward immediately: the enclosing protocol
        consumes received symbol halves and set memberships only, so a
        node without an input can still calibrate and decode (its peers
        may already have terminated and will not resend).  Only the
        link-set classification waits for the local encode.
        """
        sends: list = []
        events: list = []
        if frm in self.symbol_seen:
            return sends, events
        self.symbol_seen.add(frm)
        valid = self.params.valid_elems
        ok = (isinstance(pair, tuple) and len(pair) == 2
              and valid(pair[0]) and valid(pair[1]))
        if ok:
            self.delivered[frm] = pair
            events.append(SymbolDelivered(frm, pair))
        if self.own_shares is None:
            self.pending.append((frm, pair, ok))
            return sends, events
        self._classify(frm, pair, ok)
        self._guards(sends, events)
        return sends, events

    def on_si(self, phase: int, frm: int, bit: int):
        """First SI of phase 1 or 2 from ``frm`` joins the indicator sets."""
        sends: list = []
        events: list = []
        if type(phase) is not int or phase not in (1, 2):
            return sends, events
        seen = self.si_seen[phase - 1]
        if frm in seen:
            return sends, events
        seen.add(frm)
        if phase == 1:
            (self.S1p1 if bit == 1 else self.S0p1).add(frm)
        else:
            (self.S1p2 if bit == 1 else self.S0p2).add(frm)
        events.append(SiRecorded(phase, 1 if bit == 1 else 0, frm))
        self._guards(sends, events)
        return sends, events

    # -- internals -------------------------------------------------------

    def _classify(self, frm: int, pair, well_formed: bool):
        me = self.cfg.self_id
        expected = (self.own_shares[me - 1], self.own_shares[frm - 1])
        if well_formed and pair == expected:
            self.L1.add(frm)
        else:
            # any non-equal (or malformed) pair is a mismatch
            self.L0.add(frm)

    def _guards(self, sends: list, events: list):
        """Evaluate all standing guards in fixed order after a mutation.

        Order: phase-1 one, phase-1 zero, phase-2 zero, phase-2 one,
        vote one, vote zero.  Every flag is write-once and the sets only
        grow, so delivery order cannot change which guards eventually fire.
        A union or intersection is built only when the set sizes alone
        cannot settle its threshold.
        """
        n, t = self.params.n, self.params.t
        if self.s1 is None and len(self.L1) >= n - t:
            self._set_s(1, 1, sends, events)
        if self.s1 is None and len(self.L0) >= t + 1:
            self._set_s(1, 0, sends, events)
        s0p1, l0 = self.S0p1, self.L0
        if self.s2 is None and (
                self.s1 == 0 or len(s0p1) > t or len(l0) > t
                or (len(s0p1) + len(l0) > t and len(s0p1 | l0) > t)):
            self._set_s(2, 0, sends, events)
        if (self.s2 is None and self.s1 == 1
                and len(self.S1p1) >= n - t and len(self.L1) >= n - t
                and len(self.S1p1 & self.L1) >= n - t):
            self._set_s(2, 1, sends, events)
        if self.vote is None and len(self.S1p2) >= n - t:
            self.vote = 1
            events.append(Final(self.w, self.s2, 1))
        if self.vote is None and len(self.S0p2) >= t + 1:
            self.vote = 0
            events.append(Final(self.w, self.s2, 0))

    def _set_s(self, phase: int, bit: int, sends: list, events: list):
        if phase == 1:
            self.s1 = bit
        else:
            self.s2 = bit
        msg = Si(self.cfg.instance, phase, bit)
        for j in range(1, self.params.n + 1):
            sends.append((j, msg))
        events.append(IndicatorSet(phase, bit))
