"""Honest nodes survive every ill-typed message a Byzantine peer can build.

Every message type is sent to every honest node kind, first well-typed
and then with one field at a time replaced by an ill-typed or
out-of-range value, from every sender id of the simulated network; each
such value is also sent as the whole message.  The values include
hostile objects whose comparisons, hash, format, length, iteration or
``__class__`` raise, an instance of a class whose metaclass's hash,
equality and ``__name__`` raise, and one of a class whose name's
``upper`` raises; each also stands in for one element of a share and
for each half of a SYMBOL pair, so a node that calls a method a sender
defined fails the test.  For the committee variant that network is
larger than the committee, so members also hear from ids outside their
peer range.  A node must not raise, and must not send a message whose
``inst``, ``phase``, ``bit`` or ``round`` is anything but an int.  Whole
runs with a Byzantine node that sends objects of no message type must
end like fault-free ones.
"""

import ast
import pathlib

import pytest

from acool import simnet
from acool.aba import CoinAbba, CoinOracle, OracleAbba
from acool.field_ecc import ecc_encode, params_for_message_bits
from acool.messages import (
    AbbaIn, AbbaOut, Aux, CorrectSymbol, Decide, Est, Initial, Leader,
    LeaderMessage, NewSymbol, Ready, Shmdm, Si, Symbol,
)
from acool.protocol import AcoolNode
from acool.rba_rbc import RbaNode, RbcNode
from acool.small_t import SmallTNode, SmallTOutsider, committee_size

N, T = 4, 1
SMALL_N = 7                                # committee 1..4, outsiders 5..7
P = params_for_message_bits(N, T, 64)
P_COMMITTEE = params_for_message_bits(committee_size(T), T, 64)
W = bytes(range(8))
SHARE = ecc_encode(P, W)[0]
MINE = ecc_encode(P, W)[1]                 # what node 2 expects from peers


def _raise(self, *args):
    raise RuntimeError(f"a {type(self).__name__} method ran")


class HostileInt(int):
    """An int whose comparisons, hash and format raise."""

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _raise
    __hash__ = __format__ = _raise

    def __repr__(self):
        return "HostileInt()"


class HostileObject:
    """An object whose equality and hash raise."""

    __eq__ = __hash__ = _raise

    def __repr__(self):
        return "HostileObject()"


class HostileTuple(tuple):
    """A tuple holding a valid share, whose length and iteration raise."""

    __len__ = __iter__ = __getitem__ = _raise

    def __repr__(self):
        return "HostileTuple()"


class HostileBytes(bytes):
    """Bytes whose length raises."""

    __len__ = _raise

    def __repr__(self):
        return "HostileBytes()"


class HostileClassAttr:
    """An object whose ``__class__`` property raises, as `isinstance` reads it."""

    @property
    def __class__(self):
        raise RuntimeError("a __class__ property ran")

    def __repr__(self):
        return "HostileClassAttr()"


class HostileMeta(type):
    """A metaclass whose hash, equality and ``__name__`` raise."""

    __eq__ = __hash__ = _raise

    @property
    def __name__(cls):
        raise RuntimeError("a metaclass __name__ ran")


class HostileMetaInstance(metaclass=HostileMeta):
    """An instance of a class whose metaclass's hash, equality and name raise."""

    def __repr__(self):
        return "HostileMetaInstance()"


class HostileStr(str):
    """A str whose ``upper`` raises."""

    upper = _raise


class HostileNamed:
    """An object whose class's ``__name__`` is a `HostileStr`."""

    def __repr__(self):
        return "HostileNamed()"


HostileNamed.__name__ = HostileStr("HostileNamed")

HOSTILE = (HostileInt(1), HostileObject(), HostileTuple(SHARE), HostileBytes(W),
           HostileClassAttr(), HostileMetaInstance(), HostileNamed())
# 10 ** 5000 has more digits than an int may format to
BAD = (1.0, True, None, [1], -1, 2 ** 70, 10 ** 5000, "1") + HOSTILE
INT_FIELDS = ("inst", "phase", "bit", "round")

TEMPLATES = (
    [Symbol(inst, (SHARE, SHARE)) for inst in (0, 1, 2)]
    + [Si(inst, phase, 1) for inst in (0, 1, 2) for phase in (1, 2)]
    + [NewSymbol(SHARE), Ready(1), CorrectSymbol(SHARE), Shmdm(SHARE),
       Shmdm(None), Leader(SHARE), Initial(SHARE), LeaderMessage(W),
       Est(0, 1), Aux(0, 1), Decide(1), AbbaIn(1), AbbaOut(1)]
)


def _cases():
    yield from BAD
    for msg in TEMPLATES:
        yield msg
        for name in msg._fields:
            for bad in BAD:
                yield msg._replace(**{name: bad})
    yield LeaderMessage(bytes(100))        # more than the code can carry
    for bad in HOSTILE:
        share = (bad,) + SHARE[1:]         # one hostile element
        for msg in TEMPLATES:
            if "elems" in msg._fields:
                yield msg._replace(elems=share)
            if "pair" in msg._fields:
                for half in (bad, share):
                    yield msg._replace(pair=(half, MINE))
                    yield msg._replace(pair=(MINE, half))


def _with_input(node):
    node.input(W)
    return node


# kind -> (network size, fresh node under test)
KINDS = {
    "acool-oracle": (N, lambda: _with_input(AcoolNode(2, P, OracleAbba(2)))),
    "acool-coin": (N, lambda: _with_input(
        AcoolNode(2, P, CoinAbba(2, N, T, CoinOracle(7))))),
    "acool-legacy": (N, lambda: _with_input(
        AcoolNode(2, P, OracleAbba(2), legacy=True))),
    "rba": (N, lambda: _with_input(RbaNode(2, P))),
    "rbc-balanced": (N, lambda: RbcNode(2, P, leader=1)),
    "rbc-unbalanced": (N, lambda: RbcNode(2, P, leader=1, balanced=False)),
    "small_t-member": (SMALL_N, lambda: _with_input(
        SmallTNode(2, SMALL_N, P_COMMITTEE, OracleAbba(2)))),
    "small_t-outsider": (SMALL_N, lambda: SmallTOutsider(6, P_COMMITTEE)),
}


def _ill_typed(msg) -> bool:
    return any(type(getattr(msg, name)) is not int
               for name in INT_FIELDS if name in msg._fields)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_node_survives_malformed_messages(kind):
    size, make = KINDS[kind]
    problems = []
    for msg in _cases():
        node = make()
        for frm in range(1, size + 1):
            try:
                sends = node.handle(frm, msg)
            except Exception as e:             # collect all, assert once
                problems.append(f"{msg!r} from {frm}: {type(e).__name__}: {e}")
                break
            problems += [f"{msg!r} from {frm} made it send {out!r}"
                         for _, out in sends if _ill_typed(out)]
    assert not problems, "\n".join(problems[:20])


class IllTypedSender(simnet.Strategy):
    """Sends every node and the oracle (id 0) ``None``, a non-bytes
    `LeaderMessage`, a bare `object()`, an SI and a READY with hostile
    fields, an SI whose phase cannot format, an object whose ``__class__``
    raises, one whose metaclass raises and one whose class name's ``upper``
    raises, at start and on its first few deliveries."""

    budget = 3

    def _spray(self):
        if self.budget <= 0:
            return []
        self.budget -= 1
        hostile = HostileInt(1)
        return [(dst, msg) for dst in range(0, self.ctx.n + 1)
                for msg in (None, LeaderMessage(1.0), object(),
                            Si(hostile, hostile, hostile), Ready(hostile),
                            Si(0, 10 ** 5000, 1), HostileClassAttr(),
                            HostileMetaInstance(), HostileNamed())]

    def on_start(self, w):
        return self._spray()

    def on_deliver(self, frm, msg):
        return self._spray()


@pytest.mark.parametrize("protocol,extra", [
    ("acool", {}), ("acool", {"abba": "coin"}), ("rba", {}),
    ("rbc", {"balanced": False}), ("small_t", {}),
])
def test_run_survives_ill_typed_sends(protocol, extra, monkeypatch):
    monkeypatch.setitem(simnet._STRATEGIES, "crash_silent", IllTypedSender)
    n, t = (SMALL_N, T) if protocol == "small_t" else (N, T)
    cfg = simnet.SimConfig(n=n, t=t, seed=3, msg_len_bits=64, protocol=protocol,
                           adversary="crash_silent", count_byzantine_bits=True,
                           **extra)
    rep = simnet.run(cfg)
    assert rep.reason == "ok" and all(rep.checks.values()), rep.to_json()
    byz, = cfg.byzantine_ids()
    sent = IllTypedSender.budget * (n + 1)   # one bit per SI and READY copy
    assert rep.metrics.egress_by_tag[byz] == {
        "LEADERMESSAGE": 0, "NONETYPE": 0, "OBJECT": 0, "SI": 2 * sent,
        "READY": sent, "HOSTILECLASSATTR": 0, "UNNAMED": 0,
        "HOSTILENAMED": 0}


def test_core_has_no_isinstance_call():
    """`isinstance` reads a sender's ``__class__`` and accepts subclasses;
    outside the command line, the core tests exact classes by identity."""
    src = pathlib.Path(simnet.__file__).parent
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py")) if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "isinstance"]
    assert not calls, calls
