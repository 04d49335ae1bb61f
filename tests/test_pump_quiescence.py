"""The woken-guard pump leaves every node quiescent.

`ProtocolBase.handle` pumps only when a handler reports a guard its
delivery can newly fire, and `ProtocolBase._pump` then evaluates only
the guards of the class's `_GUARDS` table that handler reported.  That
is sound only if no other guard could fire: after each `handle` call on
a live node, a full cascade over every guard must send nothing and
change no flag.
The check runs over the acceptance-grid slice (every strategy and
scheduler at n = 4, 7 and 10, equal inputs and two camps, both
binary-agreement hints), over cells whose code dimension k is 2 and 3,
over the wirings the grid leaves out, over committee runs (whose members
define their own `handle`), and over reliable agreement and broadcast
(balanced and unbalanced dispersal, honest and Byzantine leader),
Byzantine replicas included.  Scripted flows cover the wake bits no run
of those needs, and the wake pin checks that the node pumps on few of
its deliveries without losing a pump that changes state.
"""

from dataclasses import replace

import pytest

from acool.aba import OracleAbba
from acool.field_ecc import ecc_encode, params_for_message_bits
from acool.messages import CorrectSymbol, NewSymbol, Ready, Si, Symbol
from acool.protocol import _ALL_GUARDS, AcoolNode
from acool.rba_rbc import RbaNode, RbcNode
from acool.small_t import SmallTNode
from acool.simnet import (
    ADVERSARIES, SCHEDULERS, SimConfig, run, scenario_split_input,
)


def _acool_state(node):
    return (node.y_major, node.abba.input_bit, node.ready_sent, node.v_out,
            node.calibrated, node.terminated, node.bua2.w, node.abba.output)


def _grid():
    for seed in (0, 1):
        for n, t in ((4, 1), (7, 2), (10, 3)):
            for adversary in ADVERSARIES:
                for scheduler in SCHEDULERS:
                    equal = SimConfig(n=n, t=t, seed=seed, msg_len_bits=64,
                                      adversary=adversary, scheduler=scheduler,
                                      abba_hint=seed % 2)
                    camp_a = equal.default_message(1)
                    camp_b = equal.default_message(2)
                    yield equal
                    yield replace(equal, inputs={
                        i: camp_a if i <= n // 2 else camp_b
                        for i in range(1, n + 1)})


def _wide():
    """Cells where a codeword is not the message repeated: (19, 6) has
    k = 2 and (28, 9) k = 3, under every strategy and scheduler with two
    camps; and one clean run at n = 49, t = 16, the geometry of the
    scaling benchmark."""
    for n, t in ((19, 6), (28, 9)):
        for adversary in ADVERSARIES:
            for scheduler in SCHEDULERS:
                config = SimConfig(n=n, t=t, seed=n, msg_len_bits=64,
                                   adversary=adversary, scheduler=scheduler)
                camp_a = config.default_message(1)
                camp_b = config.default_message(2)
                yield replace(config, inputs={
                    i: camp_a if i <= n // 2 else camp_b
                    for i in range(1, n + 1)})
    yield SimConfig(n=49, t=16, seed=0, msg_len_bits=256)


def _variants():
    """Wirings the grid leaves out: legacy, coin agreement, no READY stage."""
    for seed in (0, 1):
        for n, t in ((4, 1), (7, 2), (10, 3)):
            for adversary in ADVERSARIES:
                base = SimConfig(n=n, t=t, seed=seed, msg_len_bits=64,
                                 adversary=adversary, scheduler="adversary")
                yield replace(base, legacy_cool=True)
                yield replace(base, abba="coin", skip_brba=seed == 1)
            yield scenario_split_input(n, t, seed=seed, msg_len_bits=64,
                                       abba="coin")


def _small_t():
    """Committee runs: the variants workload's cell, criterion 8's
    strategies, and a split committee that decides bottom."""
    yield SimConfig(n=31, t=2, seed=0, msg_len_bits=1024, protocol="small_t",
                    adversary="garbage_shares")
    for adversary in ("none", "crash_silent", "garbage_shares",
                      "equivocate_symbols"):
        for seed in (0, 1):
            yield SimConfig(n=31, t=2, seed=seed, msg_len_bits=256,
                            protocol="small_t", adversary=adversary)
    yield SimConfig(n=10, t=1, seed=2, msg_len_bits=64, protocol="small_t",
                    inputs={1: b"aa", 2: b"aa", 3: b"bb", 4: b"bb"},
                    abba_hint=0)


def _rb_state(node):
    return (node.bua.w, node.ready_sent, node.v_out, node.calibrated,
            node.terminated)


def _rb_runs():
    """Reliable agreement and broadcast over every strategy and scheduler."""
    for n, t in ((4, 1), (7, 2), (10, 3)):
        for adversary in ADVERSARIES:
            for scheduler in SCHEDULERS:
                base = SimConfig(n=n, t=t, seed=n, msg_len_bits=64,
                                 adversary=adversary, scheduler=scheduler)
                yield replace(base, protocol="rba"), True
                for balanced in (True, False):
                    rbc = replace(base, protocol="rbc", balanced=balanced)
                    yield rbc, True
                    yield replace(rbc, leader=n), False   # Byzantine leader


def _check_every_handle(monkeypatch, cls, state, calls):
    """Run a full cascade after every ``cls.handle`` on a live node."""
    handle = cls.handle

    def handle_then_full_pump(self, frm, msg):
        sends = handle(self, frm, msg)
        if not self.terminated:
            before = state(self)
            extra = []
            self._pump(extra)
            assert extra == [] and state(self) == before, (
                f"node {self.node_id} not quiescent after {msg!r} from {frm}")
            calls.append(1)
        return sends

    monkeypatch.setattr(cls, "handle", handle_then_full_pump)


@pytest.fixture
def checked(monkeypatch):
    calls = []
    for cls in (AcoolNode, SmallTNode):
        _check_every_handle(monkeypatch, cls, _acool_state, calls)
    return calls


@pytest.fixture
def checked_rb(monkeypatch):
    calls = []
    for cls in (RbaNode, RbcNode):
        _check_every_handle(monkeypatch, cls, _rb_state, calls)
    return calls


@pytest.mark.parametrize("configs,runs",
                         [(_grid, 252), (_wide, 43), (_variants, 90),
                          (_small_t, 10)],
                         ids=["accept-grid", "k-ge-2", "variants", "small_t"])
def test_full_cascade_after_every_delivery_changes_nothing(configs, runs,
                                                           checked):
    done = 0
    for config in configs():
        report = run(config)
        assert report.reason == "ok" and all(report.checks.values())
        done += 1
    assert done == runs and len(checked) > 100 * runs


def test_full_cascade_after_every_rba_and_rbc_delivery_changes_nothing(
        checked_rb):
    done = 0
    for config, live in _rb_runs():
        report = run(config)
        assert all(report.checks.values()), config
        # an honest leader or equal inputs force termination
        assert report.reason == "ok" or not live, config
        done += 1
    assert done == 315 and len(checked_rb) > 100 * done


def test_legacy_phase2_success_after_phase_three_wakes_final_decode(checked):
    """Legacy decodes on instance 1, so an instance-1 event can finish it.

    Only peer 2 reports phase-2 success, so no symbol has the t+1
    phase-2-successful senders calibration needs: the node can finish
    only through its own phase-2 success."""
    params = params_for_message_bits(4, 1, 64)
    w = b"legacy-1"
    rows = ecc_encode(params, w)
    node = AcoolNode(1, params, OracleAbba(1), legacy=True)
    node.input(w)
    for j, bit in ((2, 1), (3, 0), (4, 0)):
        node.handle(j, Si(1, 2, bit))             # vote 0 before own s2
    for j in (2, 3, 4):
        node.handle(j, Ready(1))
    assert node.v_out == 1 and node.bua1.s2 is None and not node.terminated
    for j in (1, 2, 3, 4):
        node.handle(j, Symbol(1, (rows[0], rows[j - 1])))
    assert not node.calibrated and not node.terminated
    for j in (1, 2, 3):
        node.handle(j, Si(1, 1, 1))               # own phase-2 success
    assert node.terminated and node.output == w
    assert len(checked) == 12


def test_legacy_symbols_after_phase_three_calibrate_and_decode(checked):
    """A legacy node that enters phase three with no t+1 majority still
    calibrates and decodes from later instance-1 symbols of
    phase-2-successful peers, without its own phase-2 success."""
    params = params_for_message_bits(4, 1, 64)
    w = b"legacy-2"
    rows = ecc_encode(params, w)
    node = AcoolNode(1, params, OracleAbba(1), legacy=True)
    node.input(w)
    for j in (2, 3, 4):
        node.handle(j, Si(1, 2, 1))
    for j in (2, 3, 4):
        node.handle(j, Ready(1))
    assert node.v_out == 1 and not node.calibrated and not node.terminated
    node.handle(2, Symbol(1, (rows[0], rows[1])))
    assert not node.calibrated
    sends = node.handle(3, Symbol(1, (rows[0], rows[2])))
    assert sends == [(j, CorrectSymbol(rows[0])) for j in (1, 2, 3, 4)]
    assert node.calibrated and node.bua1.s2 is None
    assert node.terminated and node.output == w


def test_correct_symbol_that_completes_the_final_decode_terminates(checked):
    params = params_for_message_bits(4, 1, 64)
    w = b"final-w!"
    rows = ecc_encode(params, w)
    garbage = tuple((v + 1) % params.q for v in rows[2])
    node = AcoolNode(1, params, OracleAbba(1))
    node.input(b"other")
    node.handle(2, NewSymbol(rows[1]))
    node.handle(3, NewSymbol(rows[2]))            # instance 2 runs on w
    node.handle(2, Symbol(2, (rows[0], rows[1])))
    node.handle(3, Symbol(2, (rows[0], garbage)))
    for j in (2, 3):
        node.handle(j, Si(2, 2, 1))               # harvested shares disagree
    for j in (2, 3, 4):
        node.handle(j, Ready(1))
    assert node.calibrated and node.oec_final.decoded is None
    node.handle(1, CorrectSymbol(rows[0]))        # own symbol loops back
    assert node.terminated and node.output == w


def test_phase2_success_before_shared_decode_starts_second_instance(checked):
    """Peers' NEWSYMBOLs of other values keep the shared decode failing."""
    params = params_for_message_bits(4, 1, 64)
    w = b"own-val!"
    rows = ecc_encode(params, w)
    node = AcoolNode(1, params, OracleAbba(1))
    node.input(w)
    node.handle(2, NewSymbol(ecc_encode(params, b"value-A!")[1]))
    node.handle(3, NewSymbol(ecc_encode(params, b"value-B!")[2]))
    for j in (1, 2, 3, 4):
        node.handle(j, Symbol(1, (rows[0], rows[j - 1])))
    for j in (1, 2, 3, 4):
        node.handle(j, Si(1, 1, 1))
    assert node.bua1.s2 == 1 and node.oec_new.decoded is None
    assert node.bua2.w == w


def test_wake_pin_clean_n49_pumps_rarely_and_keeps_every_state_change(
        monkeypatch):
    """A clean n = 49 run pumps on at most a fifth of its deliveries, and
    pumps that change state exactly as often as pumping every guard after
    every delivery does."""
    config = SimConfig(n=49, t=16, seed=0, msg_len_bits=256)
    pump, handle = AcoolNode._pump, AcoolNode.handle

    def count(totals):
        def counted_pump(self, sends, wake=_ALL_GUARDS):
            before, sent = _acool_state(self), len(sends)
            pump(self, sends, wake)
            totals["pumps"] += 1
            if _acool_state(self) != before or len(sends) != sent:
                totals["changed"] += 1
        return counted_pump

    def counted_handle(self, frm, msg):
        precise["handles"] += 1
        return handle(self, frm, msg)

    precise = {"pumps": 0, "changed": 0, "handles": 0}
    monkeypatch.setattr(AcoolNode, "_pump", count(precise))
    monkeypatch.setattr(AcoolNode, "handle", counted_handle)
    report = run(config)
    handles = precise["handles"]

    def wake_all(on):
        def handler(self, frm, msg, sends):
            on(self, frm, msg, sends)
            return _ALL_GUARDS
        return handler

    every = {"pumps": 0, "changed": 0}
    monkeypatch.setattr(AcoolNode, "_pump", count(every))
    monkeypatch.setattr(AcoolNode, "_HANDLERS", {
        kind: wake_all(on) for kind, on in AcoolNode._HANDLERS.items()})
    assert run(config) == report
    assert report.reason == "ok" and all(report.checks.values())
    assert every["pumps"] >= handles > 5 * precise["pumps"]
    assert precise["changed"] == every["changed"] > 0
