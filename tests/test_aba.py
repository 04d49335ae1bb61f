"""Binary agreement dependency tests."""

import itertools
import random

import pytest

from acool.aba import (
    CoinAbba, CoinOracle, OracleAbba, OracleAdjudicator, ORACLE_ID,
)
from acool.messages import AbbaIn, AbbaOut, Aux, Decide, Est


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


def _decided(adj, frm, bit):
    """Deliver one proposal; the decision it sends, or None."""
    sends = adj.on_input(frm, AbbaIn(bit))
    if not sends:
        return None
    (decision,) = {msg for _, msg in sends}
    assert [p for p, _ in sends] == list(adj.participants)
    assert type(decision) is AbbaOut
    return decision.bit


def test_adjudicator_matches_batch_rule():
    for bits in itertools.product((0, 1), repeat=3):
        for hint in (0, 1):
            inputs = {i + 1: bits[i] for i in range(3)}
            adj = OracleAdjudicator([1, 2, 3], hint=hint)
            decided = None
            for i in sorted(inputs):
                got = _decided(adj, i, inputs[i])
                if got is not None:
                    decided = got
            assert decided == oracle_abba_decide(inputs, hint)


def test_oracle_unanimous_one_beats_hint():
    adj = OracleAdjudicator([1, 2, 3], hint=0)
    assert _decided(adj, 1, 1) is None
    assert _decided(adj, 2, 1) is None
    assert _decided(adj, 3, 1) == 1
    assert adj.on_input(2, AbbaIn(0)) == []     # decided: sends once


def test_oracle_hint_wins_when_proposed():
    adj = OracleAdjudicator([1, 2, 3], hint=0)
    assert _decided(adj, 1, 1) is None
    assert _decided(adj, 2, 0) == 0


def test_oracle_hint_never_proposed():
    adj = OracleAdjudicator([1], hint=1)
    assert _decided(adj, 1, 0) == 0


def test_oracle_ignores_outsiders_and_duplicates():
    adj = OracleAdjudicator([1, 2], hint=0)
    assert _decided(adj, 9, 0) is None and not adj.inputs
    _decided(adj, 1, 1)
    _decided(adj, 1, 0)
    assert adj.inputs == {1: 1}


@pytest.mark.parametrize("msg", [AbbaOut(0), Est(0, 0), (0,), 0, None])
def test_oracle_takes_only_abba_in(msg):
    adj = OracleAdjudicator([1], hint=0)
    assert adj.on_input(1, msg) == [] and not adj.inputs
    assert not adj.terminated


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


class DictRuleCoin(CoinAbba):
    """Reference for the round rule: each round's AUX as {sender: first
    bit}, rebuilt from every well-typed AUX delivered so far whenever the
    rule is checked."""

    def __init__(self, *args):
        super().__init__(*args)
        self.aux_log = []           # (sender, round, bit), in delivery order

    def first_aux(self, rnd: int) -> dict:
        aux = {}
        for frm, r, bit in self.aux_log:
            if r == rnd:
                aux.setdefault(frm, bit)
        return aux

    def _on_aux(self, frm, rnd, bit):
        if (type(bit) is not int or bit not in (0, 1)
                or type(rnd) is not int or rnd < 0):
            return []
        self.aux_log.append((frm, rnd, bit))
        return self._advance()

    def _advance(self):
        sends = []
        while self.input_bit is not None and self.output is None:
            rnd = self.round
            accepted = self.bin_values.get(rnd)
            if not accepted:
                break
            aux = self.first_aux(rnd)
            vals = {b for b in aux.values() if b in accepted}
            support = sum(1 for b in aux.values() if b in accepted)
            if support < self.n - self.t:
                break
            s = self.coin.bit(rnd)
            if len(vals) == 1:
                (v,) = vals
                self.est = v
                if v == s and not self.decide_sent:
                    self.decide_sent = True
                    sends += self._broadcast(Decide(v))
            else:
                self.est = s
            self.round = rnd + 1
            key = (self.round, self.est)
            if key not in self.est_sent:
                self.est_sent.add(key)
                sends += self._broadcast(Est(self.round, self.est))
        return sends


ILL_TYPED_AUX = (Aux(1.0, 1), Aux(0, 2), Aux(0, True), Aux("0", 0),
                 Aux(-1, 1), Aux(None, 0), Aux(0, 1.0))


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_coin_rounds_from_aux_sets_match_the_dict_rule(n, t):
    """Over random delivery orders with exact duplicate AUX, a second AUX
    of the other bit from the same sender, ill-typed AUX, and one node's
    input held back until it holds an AUX quorum, every delivery sends
    what the dict rule sends and leaves the same round state; each
    round's per-bit sets are its senders' first well-typed AUX."""
    late_after_quorum = conflicting = closed = decided = 0
    for seed in range(30):
        rng = random.Random(seed)
        coin = CoinOracle(seed)
        nodes = {i: CoinAbba(i, n, t, coin) for i in range(1, n + 1)}
        refs = {i: DictRuleCoin(i, n, t, coin) for i in range(1, n + 1)}
        inputs = {i: rng.randrange(2) for i in nodes}
        late = rng.randrange(1, n + 1)
        queue = []

        def deliver(i, frm=None, msg=None):
            node, ref = nodes[i], refs[i]
            if msg is None:
                got, want = node.input(inputs[i]), ref.input(inputs[i])
            else:
                got, want = node.handle(frm, msg), ref.handle(frm, msg)
            assert got == want
            state = ("round", "est", "decide_sent", "output", "est_sent")
            assert all(getattr(node, a) == getattr(ref, a) for a in state)
            for rnd, (zeros, ones) in node.aux_recv.items():
                first = ref.first_aux(rnd)
                assert zeros == {f for f, b in first.items() if b == 0}
                assert ones == {f for f, b in first.items() if b == 1}
            queue.extend((i, dst, m) for dst, m in got)

        for i in nodes:
            if i != late:
                deliver(i)
        for _ in range(20_000):
            aux = nodes[late].aux_recv.get(0, (set(), set()))
            quorum = len(aux[0] | aux[1]) >= n - t
            if nodes[late].input_bit is None and (quorum or not queue):
                late_after_quorum += quorum
                deliver(late)
                continue
            if not queue:
                break
            frm, dst, msg = queue.pop(rng.randrange(len(queue)))
            deliver(dst, frm, msg)
            draw = rng.random()
            if type(msg) is Aux and type(msg.bit) is int and msg.bit in (0, 1):
                if draw < 0.2:
                    queue.append((frm, dst, msg))
                elif draw < 0.3:
                    conflicting += 1
                    queue.append((frm, dst, Aux(msg.round, 1 - msg.bit)))
            if draw > 0.95:
                queue.append((rng.randrange(1, n + 1), dst,
                              rng.choice(ILL_TYPED_AUX)))
        closed += sum(node.round for node in nodes.values())
        decided += sum(node.output is not None for node in nodes.values())
    assert late_after_quorum and conflicting and closed and decided
