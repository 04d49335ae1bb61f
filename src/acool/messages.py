"""Wire messages exchanged by the agreement protocols.

Every message is a small NamedTuple, hashable and cheap to construct.
Coded symbols travel as tuples of field elements (one per chunk); a
SYMBOL message carries the pair (value for the recipient, value for the
sender) from the sender's own encoding.

An object is a message only if its class is exactly one of these, by
identity: that rule decides dispatch, tag and bit width, and runs no code
a sender defined.  Metric bit widths count protocol payload only: symbol
messages cost ``symbol_bits`` per symbol, indicator and READY messages
one bit, coin-based agreement messages a byte, any other object 0 bits.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Symbol(NamedTuple):
    """Coded-symbol exchange inside a unique-agreement instance."""

    inst: int                 # 1 or 2 inside the composition, 0 standalone
    pair: tuple               # (y_for_recipient, y_for_sender)


class Si(NamedTuple):
    """Phase success indicator announcement."""

    inst: int
    phase: int                # 1 or 2
    bit: int


class NewSymbol(NamedTuple):
    """Majority-calibrated own symbol, fed to the shared-input decoder."""

    elems: tuple


class Ready(NamedTuple):
    """Binary reliable-agreement vote."""

    bit: int


class CorrectSymbol(NamedTuple):
    """Calibrated own symbol for the final multicast decode."""

    elems: tuple


class Shmdm(NamedTuple):
    """Committee-to-outsider share; ``elems is None`` marks an empty decision."""

    elems: Optional[tuple]


class Leader(NamedTuple):
    """Balanced broadcast: leader's per-node share."""

    elems: tuple


class Initial(NamedTuple):
    """Echo of the leader share during broadcast dispersal."""

    elems: tuple


class LeaderMessage(NamedTuple):
    """Unbalanced broadcast: the full message."""

    payload: bytes


class Est(NamedTuple):
    """Round estimate of the coin-based binary agreement."""

    round: int
    bit: int


class Aux(NamedTuple):
    round: int
    bit: int


class Decide(NamedTuple):
    """Halting gadget of the coin-based binary agreement."""

    bit: int


class AbbaIn(NamedTuple):
    """Side channel to the adjudicated binary-agreement oracle."""

    bit: int


class AbbaOut(NamedTuple):
    bit: int


def tag_of(msg) -> str:
    """Metric and event-log tag; UNNAMED unless the metaclass is ``type``."""
    cls = type(msg)
    if cls is Si:
        phase = msg.phase       # only the exact int 1 or 2 names a phase
        return f"SI{phase}" if type(phase) is int and phase in (1, 2) else "SI"
    # a class's name may be a str subclass, whose own `upper` could raise
    return str.upper(cls.__name__) if type(cls) is type else "UNNAMED"


def payload_bits(msg, sym):
    """Accounted payload width of a message whose coded symbol is ``sym`` bits.

    ``sym`` is `CodeParams.symbol_bits` for the raw accounting, or the
    fractional analytical width for the idealized one.  A `LeaderMessage`
    whose payload is not exactly bytes counts 0 bits: honest nodes drop it.
    """
    cls = type(msg)
    if cls is Symbol:
        return 2 * sym
    if cls is Si or cls is Ready:
        return 1
    if (cls is NewSymbol or cls is CorrectSymbol or cls is Leader
            or cls is Initial):
        return sym
    if cls is Shmdm:
        return sym if msg.elems is not None else 1
    if cls is LeaderMessage:
        return 8 * len(msg.payload) if type(msg.payload) is bytes else 0
    if cls is Est or cls is Aux or cls is Decide:
        return 8
    if cls is AbbaIn or cls is AbbaOut:
        return 1
    return 0
