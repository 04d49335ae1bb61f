"""Composition tests: scripted single-node flows and small end-to-end runs."""

import random

import pytest

from acool.aba import OracleAbba, ORACLE_ID
from acool.field_ecc import (
    CodeParams, OecAccumulator, ecc_encode, params_for_message_bits,
)
from acool.messages import (
    AbbaIn, AbbaOut, CorrectSymbol, NewSymbol, Ready, Shmdm, Si, Symbol,
)
from acool.protocol import BOTTOM, AcoolNode
from acool.simnet import SimConfig, run, scenario_split_input
from acool.small_t import SmallTOutsider

P41 = params_for_message_bits(4, 1, 64)
W = b"m1-value"


def rows_for(w, params=P41):
    return ecc_encode(params, w)


def fresh(node_id=1, **kw):
    return AcoolNode(node_id, P41, OracleAbba(node_id), **kw)


def sends_of_type(sends, typ):
    return [(d, m) for d, m in sends if isinstance(m, typ)]


def test_input_starts_first_instance_only():
    node = fresh()
    sends = node.input(W)
    syms = sends_of_type(sends, Symbol)
    assert len(syms) == 4 and all(m.inst == 1 for _, m in syms)
    assert len(syms) == len(sends)


def test_duplicate_input_ignored():
    node = fresh()
    node.input(W)
    assert node.input(b"other") == []
    assert node.bua1.w == W


def test_empty_input_ignored():
    """A node takes only non-empty exact bytes that fit after framing."""
    too_long = bytes(P41.capacity_bits // 8)
    for w in (b"", bytearray(W), too_long, None, 7):
        node = fresh()
        assert node.input(w) == []
        assert node.bua1.w is None


def test_rows_of_the_empty_message_are_never_accepted():
    """The k + t memo rows of b"" decode to b"", which no accumulator
    accepts.  Fed as NEWSYMBOLs, they once set the shared-input decoder
    to b"", which `Bua.input` dropped, so `_second_input_guard` reported
    a change on every pass and `handle` never returned.  Through
    CORRECTSYMBOL in phase three and through SHMDM to a committee
    outsider, no node terminates with b""."""
    empty = rows_for(b"")
    acc = OecAccumulator(P41)
    for x in range(1, P41.oec_threshold + 1):
        assert acc.submit(x, empty[x - 1]) is None
    assert acc.attempts == 1 and acc.decoded is None and not acc.done

    node = fresh()
    node.input(W)
    for j in (2, 3):
        node.handle(j, NewSymbol(empty[j - 1]))
    assert node.oec_new.decoded is None and node.bua2.w is None

    node = fresh()
    node.v_out, node.calibrated = 1, True         # phase three, calibrated
    for j in (2, 3, 4):
        node.handle(j, CorrectSymbol(empty[j - 1]))
    assert node.oec_final.decoded is None and not node.terminated

    outsider = SmallTOutsider(7, P41)             # committee 1..4 for t = 1
    for j in (1, 2, 3):
        outsider.handle(j, Shmdm(empty[j - 1]))
    assert outsider.oec_final.decoded is None and not outsider.terminated


def test_malformed_symbols_that_fix_indicators_keep_their_sends():
    """Two malformed pairs push L0 past t: no pair is delivered, yet the
    phase indicators they fix must still go out, and the zero they fix
    feeds the binary agreement."""
    params = params_for_message_bits(4, 1, 64)
    node = AcoolNode(2, params, OracleAbba(2))
    node.input(b"m1")
    assert node.handle(3, Symbol(1, ("garbage",))) == []
    sends = node.handle(4, Symbol(1, [1, 2]))
    assert sends == ([(j, Si(1, 1, 0)) for j in range(1, 5)]
                     + [(j, Si(1, 2, 0)) for j in range(1, 5)]
                     + [(ORACLE_ID, AbbaIn(0))])
    assert node.bua1.delivered == {} and node.bua1.L0 == {3, 4}


def test_new_symbols_decode_shared_input_and_start_second_instance():
    node = fresh()
    node.input(W)
    rows = rows_for(b"mB")
    sends = node.handle(2, NewSymbol(rows[1]))
    assert node.bua2.w is None and sends == []
    sends = node.handle(3, NewSymbol(rows[2]))   # k + t = 2 shares
    assert node.bua2.w == b"mB"
    syms = sends_of_type(sends, Symbol)
    assert len(syms) == 4 and all(m.inst == 2 for _, m in syms)


def test_new_symbol_garbage_tolerated_via_retry():
    node = fresh()
    node.input(W)
    rows = rows_for(b"mB")
    node.handle(4, NewSymbol((12345 % P41.q,) * P41.chunks))
    node.handle(2, NewSymbol(rows[1]))
    assert node.bua2.w is None                   # garbage blocked this attempt
    node.handle(3, NewSymbol(rows[2]))
    assert node.bua2.w == b"mB"


def test_new_symbol_after_decode_is_ignored():
    node = fresh()
    node.input(W)
    rows = rows_for(b"mB")
    node.handle(2, NewSymbol(rows[1]))
    node.handle(3, NewSymbol(rows[2]))
    attempts = node.oec_new.attempts
    node.handle(4, NewSymbol(rows[3]))
    assert node.oec_new.attempts == attempts and node.bua2.w == b"mB"
    assert 4 not in node.oec_new.shares


def test_duplicate_new_symbol_dropped():
    node = fresh()
    node.input(W)
    rows = rows_for(b"mB")
    node.handle(2, NewSymbol(rows[1]))
    node.handle(2, NewSymbol(rows_for(b"mC")[1]))
    assert node.oec_new.shares[2] == rows[1]


def test_harvest_from_phase1_success_peers_feeds_decoder():
    """Peers with a phase-1 success contribute their own symbols to the
    shared-input decode even without any NEWSYMBOL traffic."""
    node = fresh()
    node.input(b"other")
    rows = rows_for(W)
    for j in (2, 3):
        node.handle(j, Symbol(1, (rows[0], rows[j - 1])))
    assert not node.oec_new.shares
    node.handle(2, Si(1, 1, 1))
    node.handle(3, Si(1, 1, 1))                  # k + t = 2 harvested
    assert node.bua2.w == W


def test_second_instance_fed_from_own_input_on_phase2_success():
    node = fresh()
    node.input(W)
    rows = rows_for(W)
    # all four matching symbols, then unanimous phase-1 indicators
    for j in (1, 2, 3, 4):
        node.handle(j, Symbol(1, (rows[0], rows[j - 1])))
    for j in (1, 2, 3, 4):
        node.handle(j, Si(1, 1, 1))
    assert node.bua1.s2 == 1
    assert node.bua2.w == W                      # reused own input


def test_second_input_equal_to_first_shares_its_encoding():
    # phase-2 success path: the second input is the node's own input
    node = fresh()
    node.input(W)
    rows = rows_for(W)
    for j in (1, 2, 3, 4):
        node.handle(j, Symbol(1, (rows[0], rows[j - 1])))
    for j in (1, 2, 3, 4):
        node.handle(j, Si(1, 1, 1))
    assert node.bua2.own_shares is node.bua1.own_shares
    # decode path: the second input is decoded from NEWSYMBOL shares
    node = fresh()
    node.input(bytes(bytearray(W)))
    node.handle(2, NewSymbol(rows[1]))
    node.handle(3, NewSymbol(rows[2]))
    assert node.bua2.w == node.bua1.w == W
    assert node.bua2.own_shares is node.bua1.own_shares


def test_abba_gets_vote_from_second_instance():
    node = fresh()
    node.input(W)
    rows = rows_for(b"mB")
    node.handle(2, NewSymbol(rows[1]))
    node.handle(3, NewSymbol(rows[2]))
    sends = []
    for j in (1, 2, 3):
        sends += node.handle(j, Si(2, 2, 1))     # instance-2 phase-2 quorum
    assert node.bua2.vote == 1
    assert [(d, m) for d, m in sends if isinstance(m, AbbaIn)] == \
        [(ORACLE_ID, AbbaIn(1))]


def test_abba_gets_zero_from_first_instance():
    node = fresh()
    node.input(W)
    sends = []
    for j in (2, 3):
        sends += node.handle(j, Si(1, 2, 0))     # instance-1 phase-2 zeros
    assert node.bua1.vote == 0
    assert [(d, m) for d, m in sends if isinstance(m, AbbaIn)] == \
        [(ORACLE_ID, AbbaIn(0))]


def test_abba_output_broadcasts_ready_once():
    node = fresh()
    node.input(W)
    sends = node.handle(ORACLE_ID, AbbaOut(1))
    readies = sends_of_type(sends, Ready)
    assert len(readies) == 4 and all(m.bit == 1 for _, m in readies)
    assert node.handle(ORACLE_ID, AbbaOut(0)) == []


def test_ready_amplification_at_t_plus_one():
    node = fresh()
    node.input(W)
    assert node.handle(2, Ready(0)) == []
    sends = node.handle(3, Ready(0))
    readies = sends_of_type(sends, Ready)
    assert len(readies) == 4 and node.ready_sent == 0


def test_ready_decision_zero_terminates_bottom():
    node = fresh()
    node.input(W)
    for j in (2, 3, 4):
        node.handle(j, Ready(0))
    assert node.terminated and node.output is BOTTOM


def test_ready_decision_requires_exactly_2t_plus_1():
    node = fresh()
    node.input(W)
    node.handle(2, Ready(1))
    node.handle(3, Ready(1))                     # 2t readies: not enough
    assert node.v_out is None
    node.handle(4, Ready(1))
    assert node.v_out == 1


def test_ready_decision_one_enters_phase_three():
    node = fresh()
    node.input(W)
    for j in (2, 3, 4):
        node.handle(j, Ready(1))
    assert node.v_out == 1 and not node.terminated


def test_first_ready_per_sender_counts():
    node = fresh()
    node.input(W)
    node.handle(2, Ready(0))
    node.handle(2, Ready(1))
    assert node.ready_from == {0: {2}, 1: set()}


def test_phase_three_fast_path_outputs_second_instance_message():
    node = fresh()
    node.input(W)
    rows = rows_for(W)
    node.handle(2, NewSymbol(rows[1]))
    node.handle(3, NewSymbol(rows[2]))            # feeds instance 2 with W
    for j in (1, 2, 3, 4):
        node.handle(j, Symbol(2, (rows[0], rows[j - 1])))
    for j in (1, 2, 3, 4):
        node.handle(j, Si(2, 1, 1))
    assert node.bua2.s2 == 1
    for j in (1, 2, 3):
        node.handle(j, Si(2, 2, 1))               # vote triple delivered
    for j in (2, 3, 4):
        node.handle(j, Ready(1))
    assert node.terminated and node.output == W


def test_phase_three_calibration_path():
    """Without a phase-2 success, the node adopts the majority symbol of
    phase-2-successful peers, multicasts it, and decodes the final value."""
    node = fresh()
    node.input(b"other")                          # own input differs
    rows = rows_for(W)
    node.handle(2, NewSymbol(rows[1]))
    node.handle(3, NewSymbol(rows[2]))            # instance 2 runs on W
    # peers 2,3 ran instance 2 on W: deliver their symbols and indicators
    for j in (2, 3):
        node.handle(j, Symbol(2, (rows[0], rows[j - 1])))
        node.handle(j, Si(2, 2, 1))
    for j in (2, 3, 4):
        node.handle(j, Ready(1))
    assert node.v_out == 1 and node.bua2.s2 is None and node.calibrated
    # own CORRECTSYMBOL loops back, then one more peer share decodes
    node.handle(1, CorrectSymbol(rows[0]))
    node.handle(4, CorrectSymbol(rows[3]))
    assert node.terminated and node.output == W


def test_correct_symbol_before_phase_three_is_stored():
    node = fresh()
    node.input(W)
    rows = rows_for(W)
    node.handle(2, CorrectSymbol(rows[1]))
    assert 2 in node.oec_final.shares and node.v_out is None


def test_correct_symbol_duplicates_dropped():
    """A sender's first valid share is kept.  An invalid share does not use
    up its sender; a repeat, or a share already harvested from instance 2,
    is dropped without a wake."""
    node = fresh()
    node.input(W)
    rows = rows_for(W)
    other = rows_for(b"zz")
    node.handle(2, CorrectSymbol(rows[1]))
    node.handle(2, CorrectSymbol(other[1]))
    assert node.oec_final.shares[2] == rows[1]
    node.handle(3, CorrectSymbol((P41.q,) + rows[2][1:]))   # out of range
    node.handle(3, CorrectSymbol(rows[2]))
    assert node.oec_final.shares[3] == rows[2]

    node = fresh()
    node.input(W)
    node.handle(2, NewSymbol(rows[1]))
    node.handle(3, NewSymbol(rows[2]))
    node.handle(2, Symbol(2, (rows[0], rows[1])))
    node.handle(2, Si(2, 2, 1))                  # harvested from instance 2
    assert node.oec_final.shares[2] == rows[1]
    assert node._on_correct_symbol(2, CorrectSymbol(other[1]), []) == 0
    assert node.oec_final.shares[2] == rows[1]


def test_harvest_from_phase2_success_peers_feeds_final_decode():
    node = fresh()
    node.input(W)
    rows = rows_for(W)
    node.handle(2, NewSymbol(rows[1]))
    node.handle(3, NewSymbol(rows[2]))           # instance 2 gains an input
    node.handle(2, Symbol(2, (rows[0], rows[1])))
    assert 2 not in node.oec_final.shares
    node.handle(2, Si(2, 2, 1))                  # peer 2 joins phase-2 ones
    assert node.oec_final.shares.get(2) == rows[1]


def test_invalid_forwarded_half_is_stored_by_no_accumulator():
    """A pair whose recipient half is a share is delivered, but an invalid
    forwarded half is ignored by the accumulator each harvest feeds; a
    valid one from another peer on the same path is stored."""
    node = fresh()
    node.input(W)
    rows = rows_for(W)
    node.handle(2, NewSymbol(rows[1]))
    node.handle(3, NewSymbol(rows[2]))           # instance 2 gains an input
    bad = (float(rows[3][0]),) + rows[3][1:]
    for inst, phase in ((1, 1), (2, 2)):
        node.handle(4, Symbol(inst, (rows[0], bad)))
        node.handle(4, Si(inst, phase, 1))
        node.handle(2, Symbol(inst, (rows[0], rows[1])))
        node.handle(2, Si(inst, phase, 1))
    for bua in (node.bua1, node.bua2):
        assert bua.delivered[4] == (rows[0], bad) and 4 in bua.L0
    assert node.oec_final.shares.get(2) == rows[1]
    assert all(4 not in acc.shares for acc in node.accumulators)


def test_no_share_object_is_checked_in_full_twice(monkeypatch):
    """Each share is checked once, by the part that keeps it: on the
    n=31, t=10 garbage-shares run no object outside the encode memo
    reaches `valid_elems` twice."""
    checked = {}              # id -> [object, calls]; the object pins its id
    valid = CodeParams.valid_elems

    def counted(self, elems):
        if id(elems) not in self.encoded_rows:
            checked.setdefault(id(elems), [elems, 0])[1] += 1
        return valid(self, elems)

    monkeypatch.setattr(CodeParams, "valid_elems", counted)
    report = run(SimConfig(n=31, t=10, seed=0, msg_len_bits=1024,
                           adversary="garbage_shares", scheduler="adversary"))
    assert report.reason == "ok" and all(report.checks.values())
    assert len(checked) > 1000
    assert max(calls for _, calls in checked.values()) == 1


# -- end-to-end over the simulator ------------------------------------------


def test_fault_free_validity_all_protocolwide():
    cfg = SimConfig(n=4, t=1, seed=11, msg_len_bits=64)
    rep = run(cfg)
    assert rep.reason == "ok" and all(rep.checks.values())
    outs = {v["output"] for v in rep.outputs.values()}
    assert len(outs) == 1 and not any(v["bottom"] for v in rep.outputs.values())


def test_skip_brba_with_totality_oracle():
    cfg = SimConfig(n=4, t=1, seed=3, msg_len_bits=64, skip_brba=True)
    rep = run(cfg)
    assert rep.reason == "ok" and all(rep.checks.values())
    assert "READY" not in rep.metrics.bits_by_tag


def test_split_input_scenario_terminates_and_agrees():
    for n, t in ((4, 1), (7, 2)):
        cfg = scenario_split_input(n, t, msg_len_bits=64, seed=5, abba="coin")
        rep = run(cfg)
        assert rep.reason == "ok", (n, t, rep.reason)
        assert all(rep.checks.values())


def test_split_input_default_partition_sizes():
    cfg = scenario_split_input(4, 1, msg_len_bits=64)
    byz = cfg.byzantine_ids()
    assert len(byz) == 1 and cfg.adversary_targets == (1, 2)
    cfg = scenario_split_input(7, 2, msg_len_bits=64)
    assert len(cfg.byzantine_ids()) == 2 and cfg.adversary_targets == (1, 2, 3)


def test_legacy_wiring_stalls_on_split_input():
    cfg = scenario_split_input(7, 2, msg_len_bits=64, seed=5, abba="coin",
                               legacy_cool=True, event_cap=30_000)
    rep = run(cfg)
    assert rep.reason in ("deadlock", "cap")
    assert not any(v["terminated"] for v in rep.outputs.values())


def test_mixed_inputs_consistent_over_seeds():
    rng = random.Random(0)
    for seed in range(8):
        inputs = {i: (b"aa" if rng.random() < 0.5 else b"bb") for i in range(1, 8)}
        cfg = SimConfig(n=7, t=2, seed=seed, msg_len_bits=64, inputs=inputs,
                        adversary="equivocate_symbols", scheduler="adversary")
        rep = run(cfg)
        assert rep.checks["consistency"] and rep.checks["unique_agreement"]


@pytest.mark.parametrize("overrides,instances", [
    ({}, 7),
    # two replicas per Byzantine id, none of them counted
    ({"adversary": "equivocate_symbols"}, 5),
    # committee of 7 with two Byzantine members; outsiders run no agreement
    ({"n": 13, "protocol": "small_t", "adversary": "garbage_shares"}, 5),
    ({"protocol": "rba", "adversary": "equivocate_symbols"}, 0),
], ids=["clean", "equivocate", "small_t", "rba"])
def test_single_abba_instance_per_node(overrides, instances):
    cfg = SimConfig(**{"n": 7, "t": 2, "seed": 2, "msg_len_bits": 64,
                       **overrides})
    rep = run(cfg)
    assert rep.metrics.abba_instances == instances
