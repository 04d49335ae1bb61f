"""Binary agreement dependency tests."""

import itertools
import random

import pytest

from acool.aba import (
    CoinAbba, CoinOracle, OracleAbba, OracleAdjudicator, ORACLE_ID,
)
from acool.messages import AbbaIn, AbbaOut, Aux, Est


def oracle_abba_decide(inputs: dict, adversary_hint: int) -> int:
    """Reference batch form of the adjudicator's rule: the hint when any
    honest participant proposed it, otherwise the unanimous honest bit."""
    if not inputs:
        raise ValueError("no honest input present")
    values = set(inputs.values())
    if adversary_hint in values:
        return adversary_hint
    (bit,) = values
    return bit


def test_decision_rule_batch_form():
    assert oracle_abba_decide({1: 1, 2: 1, 3: 1}, 0) == 1
    assert oracle_abba_decide({1: 1, 2: 0, 3: 1}, 0) == 0
    assert oracle_abba_decide({1: 0}, 1) == 0
    with pytest.raises(ValueError):
        oracle_abba_decide({}, 0)


def test_adjudicator_matches_batch_rule():
    import itertools

    for bits in itertools.product((0, 1), repeat=3):
        for hint in (0, 1):
            inputs = {i + 1: bits[i] for i in range(3)}
            adj = OracleAdjudicator([1, 2, 3], hint=hint)
            decided = None
            for i in sorted(inputs):
                got = adj.on_input(i, inputs[i])
                if got is not None:
                    decided = got
            assert decided == oracle_abba_decide(inputs, hint)


def test_oracle_unanimous_one_beats_hint():
    adj = OracleAdjudicator([1, 2, 3], hint=0)
    assert adj.on_input(1, 1) is None
    assert adj.on_input(2, 1) is None
    assert adj.on_input(3, 1) == 1


def test_oracle_hint_wins_when_proposed():
    adj = OracleAdjudicator([1, 2, 3], hint=0)
    assert adj.on_input(1, 1) is None
    assert adj.on_input(2, 0) == 0


def test_oracle_hint_never_proposed():
    adj = OracleAdjudicator([1], hint=1)
    assert adj.on_input(1, 0) == 0


def test_oracle_ignores_outsiders_and_duplicates():
    adj = OracleAdjudicator([1, 2], hint=0)
    assert adj.on_input(9, 0) is None and not adj.inputs
    adj.on_input(1, 1)
    adj.on_input(1, 0)
    assert adj.inputs == {1: 1}


def test_oracle_handle_requires_oracle_sender():
    h = OracleAbba(1)
    h.handle(5, AbbaOut(1))
    assert h.output is None
    h.handle(ORACLE_ID, AbbaOut(1))
    assert h.output == 1


def test_oracle_input_writes_once():
    h = OracleAbba(1)
    assert h.input(1) == [(ORACLE_ID, AbbaIn(1))]
    assert h.input(0) == []


def run_coin_net(n, t, inputs, seed, crash=()):
    """Shuffle-deliver messages among CoinAbba instances until all output."""
    coin = CoinOracle(seed)
    live = [i for i in range(1, n + 1) if i not in crash]
    nodes = {i: CoinAbba(i, n, t, coin) for i in live}
    rng = random.Random(seed * 31 + 7)
    queue = []
    for i in live:
        if inputs.get(i) is not None:
            queue += [(i, dst, m) for dst, m in nodes[i].input(inputs[i])]
    steps = 0
    while queue and steps < 200_000:
        steps += 1
        idx = rng.randrange(len(queue))
        frm, dst, msg = queue.pop(idx)
        if dst not in nodes:
            continue
        queue += [(dst, d, m) for d, m in nodes[dst].handle(frm, msg)]
        if all(nodes[i].output is not None for i in live):
            break
    return {i: nodes[i].output for i in live}


def test_coin_unanimous_inputs_decide_that_bit():
    for b in (0, 1):
        outs = run_coin_net(4, 1, {i: b for i in range(1, 5)}, seed=3)
        assert set(outs.values()) == {b}


@pytest.mark.parametrize("vector", list(itertools.product((0, 1), repeat=4)))
def test_coin_agreement_all_input_vectors(vector):
    inputs = {i + 1: vector[i] for i in range(4)}
    for seed in range(10):
        outs = run_coin_net(4, 1, inputs, seed=seed)
        vals = set(outs.values())
        assert len(vals) == 1 and None not in vals
        if len(set(vector)) == 1:
            assert vals == {vector[0]}


def test_coin_agreement_mixed_inputs_many_schedules():
    for vector in ((1, 0, 1, 0), (0, 1, 1, 0)):
        inputs = {i + 1: vector[i] for i in range(4)}
        for seed in range(1000):
            outs = run_coin_net(4, 1, inputs, seed=seed)
            vals = set(outs.values())
            assert len(vals) == 1 and None not in vals, (vector, seed)


def test_coin_survives_crashed_minority():
    outs = run_coin_net(4, 1, {1: 1, 2: 1, 3: 1}, seed=5, crash=(4,))
    assert set(outs.values()) == {1}
    outs = run_coin_net(7, 2, {i: i % 2 for i in range(1, 6)}, seed=8, crash=(6, 7))
    assert len(set(outs.values())) == 1


def test_coin_stalls_without_enough_inputs():
    # only t honest participants have inputs: quorums cannot form
    outs = run_coin_net(4, 1, {1: 1}, seed=2)
    assert set(outs.values()) == {None}


@pytest.mark.parametrize("msg", [Est(None, 0), Aux(None, 0), Est("x", 1),
                                 Aux(1.0, 1), Est(-1, 0)])
def test_coin_ignores_ill_typed_or_negative_rounds(msg):
    node = CoinAbba(1, 4, 1, CoinOracle(3))
    node.input(1)
    before = (dict(node.est_recv), dict(node.aux_recv), node.round)
    assert node.handle(2, msg) == []
    assert (node.est_recv, node.aux_recv, node.round) == before


def test_coin_oracle_is_common_and_deterministic():
    a, b = CoinOracle(99), CoinOracle(99)
    assert [a.bit(r) for r in range(32)] == [b.bit(r) for r in range(32)]
    assert 0 < sum(a.bit(r) for r in range(64)) < 64
