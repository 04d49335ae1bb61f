"""Unique-agreement state machine tests.

Drives single instances with scripted deliveries; the permutation check
replays the same deliveries in many random orders and expects identical
final state, which is what makes deferred guard evaluation safe.
"""

import random

from acool.bua import Bua
from acool.field_ecc import params_for_message_bits
from acool.messages import Si, Symbol

P41 = params_for_message_bits(4, 1, 64)


def fresh(node_id=1, params=P41, inst=1):
    return Bua(inst, params, node_id)


def pair_for(params, w, sender, recipient):
    """The symbol pair node ``sender`` with input ``w`` sends to ``recipient``."""
    from acool.field_ecc import ecc_encode

    rows = ecc_encode(params, w)
    return (rows[recipient - 1], rows[sender - 1])


def test_input_fans_out_one_symbol_per_node():
    b = fresh()
    sends = []
    assert b.input(b"m1", sends) is None
    assert len(sends) == 4
    assert {dst for dst, _ in sends} == {1, 2, 3, 4}
    for dst, msg in sends:
        assert isinstance(msg, Symbol) and msg.inst == 1
        assert msg.pair == pair_for(P41, b"m1", 1, dst)


def test_matching_symbols_set_phase1_one():
    b = fresh()
    b.input(b"m1", [])
    fired_at = None
    for j in (1, 2, 3):
        sends = []
        assert b.on_symbol(j, pair_for(P41, b"m1", j, 1), sends)
        if any(m == Si(1, 1, 1) for _, m in sends):
            fired_at = j
    assert b.s1 == 1 and fired_at == 3  # n - t = 3rd matching symbol
    assert sends == [(j, Si(1, 1, 1)) for j in (1, 2, 3, 4)]


def test_mismatching_symbols_set_phase1_zero():
    b = fresh()
    b.input(b"m1", [])
    for j in (2, 3):
        b.on_symbol(j, pair_for(P41, b"other", j, 1), [])
    assert b.s1 == 0  # t + 1 = 2 mismatches


def test_malformed_pair_counts_as_mismatch():
    b = fresh()
    b.input(b"m1", [])
    assert b.on_symbol(2, ("garbage",), [])
    assert b.on_symbol(3, [1, 2, 3], [])
    assert b.L0 == {2, 3}
    assert b.delivered == {}


def test_float_pair_equal_to_expected_counts_as_mismatch():
    # floats compare equal to the expected ints, but are not field elements
    expected = pair_for(P41, b"m1", 2, 1)
    floats = tuple(tuple(float(e) for e in half) for half in expected)
    assert floats == expected
    direct = fresh()
    direct.input(b"m1", [])
    direct.on_symbol(2, floats, [])
    queued = fresh()
    queued.on_symbol(2, floats, [])
    queued.input(b"m1", [])
    for b in (direct, queued):
        assert b.L0 == {2} and b.L1 == set() and 2 not in b.delivered


def test_invalid_forwarded_half_is_delivered_and_counts_as_mismatch():
    """Only the recipient half is checked on delivery: the forwarded half
    is checked by the accumulator that would store it.  A forwarded half
    that is no share joins L0, also one of floats equal to the expected."""
    expected = pair_for(P41, b"m1", 2, 1)
    floats = tuple(float(e) for e in expected[1])
    assert floats == expected[1]
    bad_halves = (floats, None, [1], expected[1][:-1],
                  (P41.q,) + expected[1][1:], (True,) + expected[1][1:],
                  type("Sub", (tuple,), {})(expected[1]))
    for bad in bad_halves:
        pair = (expected[0], bad)
        direct = fresh()
        direct.input(b"m1", [])
        assert direct.on_symbol(2, pair, [])
        queued = fresh()
        queued.on_symbol(2, pair, [])
        queued.input(b"m1", [])
        for b in (direct, queued):
            assert b.L0 == {2} and b.L1 == set() and b.delivered == {2: pair}


def test_symbol_before_input_is_queued():
    b = fresh()
    b.on_symbol(2, pair_for(P41, b"m1", 2, 1), [])
    assert b.L0 == set() and b.L1 == set()
    b.input(b"m1", [])
    assert b.L1 == {2}


def test_queued_and_inorder_runs_agree():
    rng = random.Random(21)
    msgs = []
    for j in (1, 2, 3, 4):
        w = b"m1" if j != 4 else b"m2"
        msgs.append(("sym", j, pair_for(P41, w, j, 1)))
    for j in (1, 2, 3):
        msgs.append(("si1", j, 1))
    for j in (1, 2, 3):
        msgs.append(("si2", j, 1))

    def play(order, input_at):
        b = fresh()
        step = 0
        for i, item in enumerate(order):
            if i == input_at:
                b.input(b"m1", [])
            kind, frm, payload = item
            if kind == "sym":
                b.on_symbol(frm, payload, [])
            elif kind == "si1":
                b.on_si(1, frm, payload, [])
            else:
                b.on_si(2, frm, payload, [])
            step += 1
        if input_at >= len(order):
            b.input(b"m1", [])
        return (b.s1, b.s2, b.vote, sorted(b.L0), sorted(b.L1),
                sorted(b.S1p1), sorted(b.S1p2))

    baseline = play(msgs, 0)
    for _ in range(40):
        order = msgs[:]
        rng.shuffle(order)
        assert play(order, rng.randrange(len(order) + 1)) == baseline


def test_phase2_one_needs_indicator_overlap():
    b = fresh()
    b.input(b"m1", [])
    for j in (1, 2, 3):
        b.on_symbol(j, pair_for(P41, b"m1", j, 1), [])
    assert b.s2 is None
    for j in (1, 2, 3):
        b.on_si(1, j, 1, [])
    assert b.s2 == 1  # |S1p1 & L1| >= n - t


def test_phase2_zero_from_mixed_zero_evidence():
    b = fresh()
    b.input(b"m1", [])
    b.on_symbol(2, pair_for(P41, b"other", 2, 1), [])   # L0 = {2}
    b.on_si(1, 3, 0, [])                                 # S0p1 = {3}
    assert b.s2 == 0  # |S0p1 | L0| >= t + 1


def test_vote_one_at_quorum():
    b = fresh()
    b.input(b"m1", [])
    for j in (1, 2):
        b.on_si(2, j, 1, [])
        assert b.vote is None
    b.on_si(2, 3, 1, [])
    assert b.vote == 1 and b.w == b"m1"
    b.on_si(2, 4, 0, [])
    assert b.vote == 1


def test_vote_zero_at_t_plus_one():
    b = fresh()
    b.input(b"m1", [])
    b.on_si(2, 2, 0, [])
    assert b.vote is None
    b.on_si(2, 3, 0, [])
    assert b.vote == 0
    b.on_si(2, 4, 0, [])
    assert b.vote == 0


def test_vote_fires_without_own_indicator():
    # n - t peers can push the vote before the local phase-2 flag is set
    b = fresh()
    b.input(b"m1", [])
    for j in (2, 3, 4):
        b.on_si(2, j, 1, [])
    assert b.vote == 1 and b.s2 is None


def test_first_si_per_sender_wins():
    b = fresh()
    b.input(b"m1", [])
    assert b.on_si(1, 2, 0, [])
    assert not b.on_si(1, 2, 1, [])
    assert b.on_si(2, 2, 1, [])              # phases are tracked apart
    assert b.S0p1 == {2} and b.S1p1 == set() and b.S1p2 == {2}


def test_si_outside_phases_one_and_two_not_recorded():
    b = fresh()
    b.input(b"m1", [])
    for phase in (0, 3, True, 1.0, "1", None):
        sends = []
        assert not b.on_si(phase, 2, 1, sends)
        assert sends == []
    assert not (b.S1p1 or b.S0p1 or b.S1p2 or b.S0p2)


def test_sender_joins_at_most_one_set_per_phase():
    """First SI per phase wins, so |S1p2| + |S0p2| <= n in every run.

    Both vote thresholds together, (n - t) + (t + 1), exceed n, so the two
    votes can never both be enabled.
    """
    rng = random.Random(5)
    bits = (0, 1, 2, -1, True, False, 1.0, 0.0, None, "1")
    for trial in range(200):
        b = fresh()
        if trial % 2:
            b.input(b"m1", [])
        for _ in range(40):
            b.on_si(rng.choice((1, 2)), rng.randrange(1, 5), rng.choice(bits),
                    [])
            assert not b.S1p1 & b.S0p1 and not b.S1p2 & b.S0p2
            assert len(b.S1p2) + len(b.S0p2) <= P41.n


def test_duplicate_symbol_dropped():
    b = fresh()
    b.input(b"m1", [])
    assert b.on_symbol(2, pair_for(P41, b"m1", 2, 1), [])
    assert not b.on_symbol(2, pair_for(P41, b"other", 2, 1), [])
    assert b.L1 == {2} and 2 not in b.L0


def test_unique_agreement_two_camps():
    """No run of deliveries can give phase-2 success to two different inputs.

    With n=4, t=1, k=1 all shares of one message are equal, so two camps
    mismatch on every link; drive both camps fully and check at most one
    reaches phase-2 success.
    """
    params = params_for_message_bits(4, 1, 64)
    inputs = {1: b"m1", 2: b"m1", 3: b"m2", 4: b"m2"}
    nodes = {i: fresh(i, params) for i in inputs}
    chans = []
    for i, b in nodes.items():
        sends = []
        b.input(inputs[i], sends)
        chans += [(i, dst, m) for dst, m in sends]
    rng = random.Random(2)
    rng.shuffle(chans)
    while chans:
        frm, dst, m = chans.pop()
        sends = []
        if isinstance(m, Symbol):
            nodes[dst].on_symbol(frm, m.pair, sends)
        else:
            nodes[dst].on_si(m.phase, frm, m.bit, sends)
        chans += [(dst, d2, m2) for d2, m2 in sends]
        rng.shuffle(chans)
    winners = {inputs[i] for i, b in nodes.items() if b.s2 == 1}
    assert len(winners) <= 1



P196 = params_for_message_bits(19, 6, 64)   # k = 2


def _random_call(rng, b, own, other, lean):
    """One random handler call on ``b``: SYMBOL pairs of the own or the
    other value, malformed pairs, and SI messages with ill-typed or
    out-of-range phases and bits; ``lean`` is the usual SI bit."""
    frm = rng.randrange(1, b.params.n + 1)
    if rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.8:
            w = own if rng.random() < 0.9 else other
            pair = pair_for(b.params, w, frm, b.self_id)
        elif roll < 0.9:
            pair = pair_for(b.params, own, frm, b.self_id)[:1]
        else:
            pair = rng.choice((None, "ab", (1, 2), ((1.0,), (2,))))
        return lambda sends: b.on_symbol(frm, pair, sends)
    phase = (rng.choice((1, 2)) if rng.random() < 0.9
             else rng.choice((0, 3, True, 1.0, None)))
    bit = lean if rng.random() < 0.8 else rng.choice((0, 1, 2, True, 0.0, None))
    return lambda sends: b.on_si(phase, frm, bit, sends)


def _recorded(b):
    """Sizes of the sets a recorded SYMBOL or SI grows."""
    return (len(b.symbol_seen), len(b.S1p1), len(b.S0p1), len(b.S1p2),
            len(b.S0p2))


def _enabled_rules(b):
    """The six flag rules of the two phases and the vote, written from
    their thresholds: those that hold while their flag is unset."""
    n, t = b.params.n, b.params.t
    rules = {
        ("s1", 1): b.s1 is None and len(b.L1) >= n - t,
        ("s1", 0): b.s1 is None and len(b.L0) >= t + 1,
        ("s2", 0): b.s2 is None and (b.s1 == 0 or len(b.S0p1 | b.L0) >= t + 1),
        ("s2", 1): b.s2 is None and b.s1 == 1 and len(b.S1p1 & b.L1) >= n - t,
        ("vote", 1): b.vote is None and len(b.S1p2) >= n - t,
        ("vote", 0): b.vote is None and len(b.S0p2) >= t + 1,
    }
    return [rule for rule, holds in rules.items() if holds]


def test_handlers_leave_the_instance_quiescent_and_report_fixes():
    """After every handler call no flag rule is enabled, and the return
    value is falsy exactly when nothing was recorded and 2 exactly when
    ``s1``, ``s2`` or ``vote`` changed."""
    rng = random.Random(14)
    reached = set()
    for params in (P41, P196):
        for trial in range(200):
            b = fresh(rng.randrange(1, params.n + 1), params)
            own, other = (b"m1", b"m2") if trial % 2 else (b"m2", b"m1")
            steps = 8 * params.n
            input_at = rng.choice((0, rng.randrange(steps), None))
            lean = rng.choice((0, 1))
            for step in range(steps):
                if step == input_at:
                    b.input(own, [])
                call = _random_call(rng, b, own, other, lean)
                seen = _recorded(b)
                flags = (b.s1, b.s2, b.vote)
                got = call([])
                recorded = seen != _recorded(b)
                assert bool(got) == recorded
                assert (got == 2) == (flags != (b.s1, b.s2, b.vote))
                assert _enabled_rules(b) == []
            reached |= {(params.n, "s1", b.s1), (params.n, "s2", b.s2),
                        (params.n, "vote", b.vote)}
    assert reached == {(n, flag, bit) for n in (4, 19)
                       for flag in ("s1", "s2", "vote")
                       for bit in (None, 0, 1)}
