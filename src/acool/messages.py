"""Wire messages exchanged by the agreement protocols.

Every message is a small NamedTuple, hashable and cheap to construct.
Coded symbols travel as tuples of field elements (one per chunk); a
SYMBOL message carries the pair (value for the recipient, value for the
sender) from the sender's own encoding.

Metric bit widths count protocol payload only: symbol-bearing messages
cost ``symbol_bits`` per symbol, indicator and READY messages cost one
bit, and the coin-based binary agreement messages cost a flat byte.
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
    """Spec-facing tag used in metrics and event logs."""
    if isinstance(msg, Si):
        # only an exact int is formatted: a sender's subclass could raise
        return f"SI{msg.phase}" if type(msg.phase) is int else "SI"
    return type(msg).__name__.upper()


def payload_bits(msg, sym):
    """Accounted payload width of a message whose coded symbol is ``sym`` bits.

    ``sym`` is `CodeParams.symbol_bits` for the raw accounting, or the
    fractional analytical width for the idealized one.  An ill-typed
    object a Byzantine node may send, a `LeaderMessage` whose payload is
    not exactly bytes or anything that is no message at all, counts 0
    bits: honest nodes drop it.
    """
    if isinstance(msg, Symbol):
        return 2 * sym
    if isinstance(msg, (Si, Ready)):
        return 1
    if isinstance(msg, (NewSymbol, CorrectSymbol, Leader, Initial)):
        return sym
    if isinstance(msg, Shmdm):
        return sym if msg.elems is not None else 1
    if isinstance(msg, LeaderMessage):
        return 8 * len(msg.payload) if type(msg.payload) is bytes else 0
    if isinstance(msg, (Est, Aux, Decide)):
        return 8
    if isinstance(msg, (AbbaIn, AbbaOut)):
        return 1
    return 0
