"""Outside-in layer tracer for the simulator.

`install` wraps the public entry points of each `acool` module in a
span recorder, from outside the program.  A wrapped function is replaced
at every binding that refers to it: in its defining module and in every
module that copied it with ``from ... import``.  `uninstall` puts the
originals back.

Each span records a name, start, end and parent span.  Spans are kept in
memory for one simulator run and folded into per-layer totals by
`Tracer.fold` after it.  A span's self time is its duration minus the
time covered by its child spans.  Two rules shape the tree:

* a call into a layer that is already the innermost open span (such as
  `RbcNode.handle` calling `RbaNode.handle`, or `ecc_encode` calling
  `encode_elements`) is part of that span and not a new call;
* everything beneath a Byzantine strategy's `on_start`/`on_deliver`
  counts toward `simnet.adversary`.  Byzantine replicas run full honest
  nodes, and without this rule their work would count as honest-layer
  time.
"""

from __future__ import annotations

import sys
from time import perf_counter

from acool import aba, bua, field_ecc, protocol, rba_rbc, simnet, small_t

ADVERSARY = "simnet.adversary"
RAISED = object()          # note of a span whose call raised


def _wait_steps(args, result):
    # _Queue.pop(self, step) returns (enqueue_step, frm, dst, msg, rnd)
    return args[1] - result[0]


def _accepted(args, result):
    return result is not None


def _strategy_classes() -> list:
    found, todo = [], [simnet.Strategy]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _method_targets() -> list:
    """(class, method name, span name, observer) for every traced method."""
    targets = [
        (field_ecc.OecAccumulator, "submit", "field_ecc.oec.submit", _accepted),
        (bua.Bua, "input", "bua.input", None),
        (bua.Bua, "on_symbol", "bua.on_symbol", None),
        (bua.Bua, "on_si", "bua.on_si", None),
        (protocol.AcoolNode, "input", "protocol.handle", None),
        (protocol.AcoolNode, "handle", "protocol.handle", None),
        (rba_rbc.RbaNode, "input", "rba_rbc.handle", None),
        (rba_rbc.RbaNode, "handle", "rba_rbc.handle", None),
        (rba_rbc.RbcNode, "input", "rba_rbc.handle", None),
        (rba_rbc.RbcNode, "handle", "rba_rbc.handle", None),
        (small_t.SmallTNode, "input", "small_t.handle", None),
        (small_t.SmallTNode, "handle", "small_t.handle", None),
        (aba.CoinAbba, "input", "aba.coin", None),
        (aba.CoinAbba, "handle", "aba.coin", None),
        (aba.OracleAbba, "input", "aba.oracle", None),
        (aba.OracleAbba, "handle", "aba.oracle", None),
        (aba.OracleAdjudicator, "on_input", "aba.oracle", None),
        (simnet._Queue, "push", "simnet.queue.push", None),
        (simnet._Queue, "pop", "simnet.queue.pop", _wait_steps),
    ]
    for cls in _strategy_classes():
        for meth in ("on_start", "on_deliver"):
            if meth in vars(cls):
                targets.append((cls, meth, ADVERSARY, None))
    return targets


# Module-level functions; each is rebound wherever a module holds it.
FUNCTION_TARGETS = (
    (field_ecc.encode_elements, "field_ecc.encode"),
    (field_ecc.ecc_encode, "field_ecc.encode"),
    (field_ecc.ecc_decode, "field_ecc.decode"),
    (simnet.payload_bits, "messages.accounting"),
    (simnet.tag_of, "messages.accounting"),
    (simnet.run, "simnet.run"),
)


class Tracer:
    """Span recorder plus the per-layer totals of every folded run."""

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.notes: list = []      # observer value, or RAISED
        self.stack: list = [-1]
        self.calls: dict = {}      # span name -> count
        self.self_s: dict = {}     # span name -> seconds
        self.raised: dict = {}     # span name -> calls that raised
        self.oec_reencode_calls = 0
        self.decodes_under_submit = 0
        self.accepted_submits = 0
        self.wait_steps: list = []
        self._patches: list = []

    def wrap(self, name: str, fn, observe=None):
        names, parents, starts, ends, notes, stack = (
            self.names, self.parents, self.starts, self.ends, self.notes,
            self.stack)

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] in (name, ADVERSARY):
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(top)
            ends.append(0.0)
            notes.append(None)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                stack.pop()
                notes[idx] = RAISED
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if observe is not None:
                notes[idx] = observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Wrap every target at every binding; returns the bindings patched."""
        for cls, meth, name, observe in _method_targets():
            self._patch(cls, meth, self.wrap(name, vars(cls)[meth], observe))
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "acool" or key.startswith("acool.")]
        for fn, name in FUNCTION_TARGETS:
            traced = self.wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, traced)
        return len(self._patches)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def fold(self):
        """Add the spans recorded so far to the totals and drop them."""
        names, parents, starts, ends, notes = (
            self.names, self.parents, self.starts, self.ends, self.notes)
        child = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        for i, name in enumerate(names):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + ends[i] - starts[i] - child[i])
            note = notes[i]
            if note is RAISED:
                self.raised[name] = self.raised.get(name, 0) + 1
            parent = parents[i]
            under_submit = parent >= 0 and names[parent] == "field_ecc.oec.submit"
            if name == "field_ecc.encode" and under_submit:
                self.oec_reencode_calls += 1
            elif name == "field_ecc.decode" and under_submit:
                self.decodes_under_submit += 1
            elif name == "field_ecc.oec.submit" and note is True:
                self.accepted_submits += 1
            elif name == "simnet.queue.pop":
                self.wait_steps.append(note)
        for column in (names, parents, starts, ends, notes):
            column.clear()
