"""Reliable agreement and leader broadcast tests."""

import itertools

import pytest

from acool.field_ecc import ecc_encode, params_for_message_bits
from acool.messages import Initial, Leader, LeaderMessage, Ready, Si, Symbol
from acool.protocol import BOTTOM
from acool.rba_rbc import RbaNode, RbcNode
from acool.simnet import ADVERSARIES, SCHEDULERS, SimConfig, run

P72 = params_for_message_bits(7, 2, 64)
W = b"w-value!"
P72_ROWS = ecc_encode(P72, W)


def rows_for(w, params=P72):
    return ecc_encode(params, w)


# -- reliable agreement -------------------------------------------------------


def test_rba_quorum_triggers_ready():
    node = RbaNode(1, P72)
    node.input(W)
    sends = []
    for j in range(1, 6):
        sends += node.handle(j, Si(0, 2, 1))
    readies = [(d, m) for d, m in sends if isinstance(m, Ready)]
    assert node.ready_sent == 1 and len(readies) == 7


def test_rba_zero_quorum_needs_n_minus_t():
    node = RbaNode(1, P72)
    node.input(W)
    for j in range(1, 4):
        node.handle(j, Si(0, 2, 0))       # t + 1 zeros are not enough
    assert node.ready_sent is None
    for j in range(4, 6):
        node.handle(j, Si(0, 2, 0))
    assert node.ready_sent == 0


def test_rba_decision_zero_outputs_bottom():
    node = RbaNode(1, P72)
    node.input(W)
    for j in range(2, 7):
        node.handle(j, Ready(0))
    assert node.terminated and node.output is BOTTOM


def test_rba_ready_thresholds_exact():
    node = RbaNode(1, P72)
    node.input(W)
    node.handle(2, Ready(1))
    node.handle(3, Ready(1))
    assert node.ready_sent is None              # t readies do not amplify
    node.handle(4, Ready(1))
    assert node.ready_sent == 1
    node.handle(5, Ready(1))                    # 2t distinct senders so far
    assert node.v_out is None
    node.handle(6, Ready(1))
    assert node.v_out == 1


def test_rba_ready_value_callback():
    node = RbaNode(1, P72)
    node.input(W)
    for j in range(1, 6):
        node.handle(j, Si(0, 2, 1))
    assert node.ready_sent == 1


@pytest.mark.parametrize("msg", [
    Si(False, 2, 1), Si(0.0, 2, 1),
    Symbol(False, (P72_ROWS[1], P72_ROWS[0])),
], ids=["si-false", "si-float", "symbol-false"])
def test_rba_instance_tag_must_be_exactly_int(msg):
    """`False == 0` and `0.0 == 0`, but only the int 0 names the instance."""
    node = RbaNode(1, P72)
    node.input(W)
    bua = node.bua
    before = [set(s) for s in (bua.L0, bua.L1, bua.S1p1, bua.S0p1,
                               bua.S1p2, bua.S0p2)]
    sends = []
    for j in range(1, 6):
        sends += node.handle(j, msg)
    after = [bua.L0, bua.L1, bua.S1p1, bua.S0p1, bua.S1p2, bua.S0p2]
    assert sends == [] and after == before and bua.delivered == {}
    assert node.ready_sent is None


def test_rba_ready_then_opposite_quorum_sets_quorum_collision():
    """READY amplification fixes bit 1; then n-t phase-2 zeros arrive."""
    node = RbaNode(1, P72)
    for j in (2, 3, 4):
        node.handle(j, Ready(1))                # t + 1 readies amplify
    assert node.ready_sent == 1 and not node.quorum_collision
    for j in range(1, 5):
        node.handle(j, Si(0, 2, 0))
    assert not node.quorum_collision            # n - t - 1 zeros
    node.handle(5, Si(0, 2, 0))
    assert node.quorum_collision


def test_quorum_collision_never_fires_in_a_run():
    """Over criterion 7's RBA and RBC configs, no honest node sets
    ``quorum_collision``, as it never can.  An honest node sends one
    phase-2 SI bit, the same to every node.  The first honest READY for a
    bit comes from an n-t phase-2 quorum for that bit, and READY
    amplification at t+1 always includes an honest READY.  A quorum for
    the other bit as well needs 2(n-t-f) distinct honest senders among
    the n-f honest nodes, f <= t the Byzantine count; so n <= 2t + f <=
    3t, against n >= 3t + 1.  The scripted test above feeds one node
    such a second quorum by hand."""
    for adv, sched, seed in itertools.product(ADVERSARIES, SCHEDULERS, range(2)):
        for protocol, leader in (("rba", 1), ("rbc", 1), ("rbc", 7)):
            rep = run(SimConfig(n=7, t=2, seed=seed, msg_len_bits=64,
                                protocol=protocol, leader=leader,
                                adversary=adv, scheduler=sched))
            assert rep.flags["quorum_collisions"] == 0, (adv, sched, seed)


def test_rba_fault_free_all_output_within_flat_rounds():
    for seed in range(5):
        rep = run(SimConfig(n=7, t=2, seed=seed, msg_len_bits=64,
                            protocol="rba", fairness_window=1))
        assert rep.reason == "ok" and all(rep.checks.values())
        # good case: symbol, two indicator phases, ready, amplification
        assert rep.metrics.max_causal_round <= 6


def test_rba_split_inputs_stay_consistent():
    # totality allows a stalled run; only agreement is asserted
    for seed in range(10):
        inputs = {i: (b"aa" if i <= 5 else b"bb") for i in range(1, 8)}
        rep = run(SimConfig(n=7, t=2, seed=seed, msg_len_bits=64,
                            protocol="rba", inputs=inputs,
                            adversary="crash_silent"))
        assert rep.checks["consistency"] and rep.checks["totality"]


def test_rba_adversary_grid_small():
    for adv in ("equivocate_symbols", "garbage_shares", "ready_spammer"):
        for seed in range(5):
            rep = run(SimConfig(n=7, t=2, seed=seed, msg_len_bits=64,
                                protocol="rba", adversary=adv))
            assert rep.checks["consistency"], (adv, seed)
            assert rep.checks["unique_agreement"], (adv, seed)


# -- reliable broadcast -------------------------------------------------------


def test_rbc_leader_balanced_sends_one_share_each():
    node = RbcNode(1, P72, leader=1, balanced=True)
    sends = node.input(W)
    assert len(sends) == 7 and all(isinstance(m, Leader) for _, m in sends)
    rows = rows_for(W)
    assert tuple(m.elems for _, m in sends) == rows


def test_rbc_leader_unbalanced_broadcasts_message():
    node = RbcNode(1, P72, leader=1, balanced=False)
    sends = node.input(W)
    assert len(sends) == 7
    assert all(isinstance(m, LeaderMessage) and m.payload == W for _, m in sends)


def test_rbc_non_leader_input_rejected():
    node = RbcNode(2, P72, leader=1)
    assert node.input(W) == []


def test_rbc_empty_input_rejected():
    """The leader disperses only non-empty exact bytes that fit."""
    too_long = bytes(P72.capacity_bits // 8)
    for balanced in (True, False):
        node = RbcNode(1, P72, leader=1, balanced=balanced)
        for w in (b"", bytearray(W), too_long):
            assert node.input(w) == []


def test_rbc_follower_echoes_leader_share():
    node = RbcNode(2, P72, leader=1, balanced=True)
    rows = rows_for(W)
    sends = node.handle(1, Leader(rows[1]))
    echoes = [(d, m) for d, m in sends if isinstance(m, Initial)]
    assert len(echoes) == 7 and all(m.elems == rows[1] for _, m in echoes)
    assert node.handle(1, Leader(rows[0])) == []   # first LEADER only


def test_rbc_follower_reconstructs_from_initials():
    """Each sender's first valid INITIAL counts; a repeat is ignored before
    and after the decode, and starts no decode attempt."""
    node = RbcNode(2, P72, leader=1, balanced=True)
    rows = rows_for(W)
    sends = []
    for j in range(1, 5):                          # k + t = 3 suffice
        sends += node.handle(j, Initial(rows[j - 1]))
    assert node.bua.w == W
    assert any(isinstance(m, Symbol) for _, m in sends)  # agreement started
    attempts = node.initial_acc.attempts
    assert node.handle(3, Initial(rows[2])) == []
    assert node.initial_acc.attempts == attempts

    node = RbcNode(2, P72, leader=1, balanced=True)
    other = rows_for(b"zz")
    for j, share in ((1, rows[0]), (2, rows[1]), (3, other[2]), (3, rows[2])):
        node.handle(j, Initial(share))
    acc = node.initial_acc                         # one wrong share of three
    assert (acc.attempts, acc.done, acc.shares[3]) == (1, False, other[2])


def test_rbc_empty_decode_rejected_by_guard():
    node = RbcNode(2, P72, leader=1, balanced=True)
    rows = ecc_encode(P72, b"")
    for j in range(1, 6):
        node.handle(j, Initial(rows[j - 1]))
    assert node.bua.w is None and not node.initial_acc.done


def test_rbc_honest_leader_validity_end_to_end():
    for seed in range(5):
        rep = run(SimConfig(n=7, t=2, seed=seed, msg_len_bits=1024,
                            protocol="rbc"))
        assert rep.reason == "ok" and all(rep.checks.values())


def test_rbc_byzantine_leader_stays_consistent():
    # leader inside the Byzantine set, equivocating between halves
    for seed in range(8):
        rep = run(SimConfig(n=7, t=2, seed=seed, msg_len_bits=64,
                            protocol="rbc", leader=7,
                            adversary="equivocate_symbols"))
        assert rep.checks["consistency"] and rep.checks["totality"], seed


def test_rbc_balanced_leader_dispersal_egress_bound():
    params = params_for_message_bits(7, 2, 1024)
    rep = run(SimConfig(n=7, t=2, seed=3, msg_len_bits=1024, protocol="rbc"))
    lead = rep.metrics.egress_by_tag[1]
    bound = 1.5 * (1024 + 7 * params.symbol_bits)
    assert lead["LEADER"] <= bound
    assert "LEADERMESSAGE" not in lead


def test_rbc_unbalanced_leader_dispersal_at_least_n_ell():
    rep = run(SimConfig(n=7, t=2, seed=3, msg_len_bits=1024, protocol="rbc",
                        balanced=False))
    lead = rep.metrics.egress_by_tag[1]
    assert lead["LEADERMESSAGE"] >= 7 * 1024
