"""Committee-scoped agreement tests."""

from acool import field_ecc
from acool.aba import OracleAbba
from acool.field_ecc import OecAccumulator, ecc_encode, params_for_message_bits
from acool.messages import Shmdm, Symbol
from acool.protocol import BOTTOM
from acool.simnet import SimConfig, run
from acool.small_t import SmallTNode, SmallTOutsider, committee_size

P_C = params_for_message_bits(4, 1, 64)     # committee code for t=1
W = b"decided!"


def outsider(node_id=7):
    return SmallTOutsider(node_id, P_C)


def test_committee_is_lowest_ids():
    assert committee_size(1) == 4
    rep = run(SimConfig(n=10, t=1, seed=0, msg_len_bits=64, protocol="small_t"))
    # only members take part in the agreement; outsiders never send
    assert {i for i in rep.metrics.egress_by_tag if i > 0} == {1, 2, 3, 4}


def test_outsider_input_ignored():
    node = outsider()
    assert node.input(W) == [] and not node.buas


def test_outsider_decodes_from_committee_shares():
    node = outsider()
    rows = ecc_encode(P_C, W)
    assert node.handle(1, Shmdm(rows[0])) == []
    assert not node.terminated
    node.handle(2, Shmdm(rows[1]))              # k + t = 2 shares
    assert node.terminated and node.output == W


def test_outsider_drops_shares_from_outside_committee():
    node = outsider()
    rows = ecc_encode(P_C, W)
    node.handle(5, Shmdm(rows[0]))
    node.handle(9, Shmdm(rows[1]))
    assert not node.terminated and not node.oec_final.shares


def test_outsider_bottom_markers_need_t_plus_one():
    node = outsider()
    node.handle(1, Shmdm(None))
    assert not node.terminated
    node.handle(2, Shmdm(None))
    assert node.terminated and node.output is BOTTOM


def test_outsider_first_message_per_sender_counts():
    node = outsider()
    rows = ecc_encode(P_C, W)
    node.handle(1, Shmdm(None))
    node.handle(1, Shmdm(rows[0]))              # same sender, now a share
    node.handle(2, Shmdm(rows[1]))
    assert not node.terminated


def test_member_disperses_own_share_to_outsiders():
    # each member sends exactly one share row to each outsider
    for n, t in ((10, 1), (13, 2)):
        rep = run(SimConfig(n=n, t=t, seed=3, msg_len_bits=64,
                            protocol="small_t"))
        assert rep.reason == "ok" and all(rep.checks.values())
        row_bits = params_for_message_bits(committee_size(t), t, 64).symbol_bits
        for i in range(1, committee_size(t) + 1):
            shmdm = rep.metrics.egress_by_tag[i]["SHMDM"]
            assert shmdm == (n - committee_size(t)) * row_bits, (n, i)


def test_member_drops_shares_and_senders_outside_committee():
    member = SmallTNode(2, 10, P_C, OracleAbba(2))
    member.input(W)
    rows = ecc_encode(P_C, W)
    assert member.handle(1, Shmdm(rows[0])) == []      # members ignore shares
    assert member.handle(5, Symbol(1, (rows[1], rows[0]))) == []
    assert 5 not in member.bua1.symbol_seen


def test_end_to_end_all_nodes_output():
    for seed in range(5):
        rep = run(SimConfig(n=10, t=1, seed=seed, msg_len_bits=64,
                            protocol="small_t"))
        assert rep.reason == "ok" and all(rep.checks.values())
        outs = {v["output"] for v in rep.outputs.values()}
        assert len(outs) == 1 and None not in outs


def test_end_to_end_bottom_propagates_to_outsiders():
    # split committee inputs with a zero-preferring adversary hint: the
    # committee decides bottom and outsiders adopt it via markers
    inputs = {1: b"aa", 2: b"aa", 3: b"bb", 4: b"bb"}
    rep = run(SimConfig(n=10, t=1, seed=2, msg_len_bits=64,
                        protocol="small_t", inputs=inputs, abba_hint=0))
    assert rep.reason == "ok" and rep.checks["consistency"]
    assert all(v["bottom"] for v in rep.outputs.values())


def test_end_to_end_with_committee_byzantine():
    for adv in ("crash_silent", "garbage_shares", "equivocate_symbols"):
        for seed in range(3):
            rep = run(SimConfig(n=10, t=1, seed=seed, msg_len_bits=64,
                                protocol="small_t", adversary=adv))
            assert rep.checks["consistency"], (adv, seed)
            assert rep.checks["totality"], (adv, seed)


def test_member_ignores_traffic_from_outside_committee():
    # a Byzantine outsider's SYMBOL once crashed a member's link classifier
    rep = run(SimConfig(n=13, t=1, seed=20, msg_len_bits=64,
                        protocol="small_t", adversary="random_byzantine",
                        byzantine=(13,)))
    assert rep.reason == "ok" and all(rep.checks.values())


def test_total_bits_grow_linearly_in_n_at_fixed_t():
    totals = []
    for n in (10, 16, 22):
        rep = run(SimConfig(n=n, t=1, seed=4, msg_len_bits=256,
                            protocol="small_t"))
        assert rep.reason == "ok"
        totals.append(rep.metrics.total_bits)
    assert totals[0] < totals[1] < totals[2]
    # committee cost is fixed; the per-outsider increment is one share row
    inc1 = (totals[1] - totals[0]) / 6
    inc2 = (totals[2] - totals[1]) / 6
    assert abs(inc1 - inc2) / inc2 < 0.05


def test_small_t_beats_full_protocol_on_bits():
    small = run(SimConfig(n=31, t=2, seed=1, msg_len_bits=1024,
                          protocol="small_t"))
    full = run(SimConfig(n=31, t=10, seed=1, msg_len_bits=1024))
    assert small.reason == full.reason == "ok"
    assert small.metrics.total_bits < full.metrics.total_bits


def _count_decodes(monkeypatch) -> list:
    """Count `decode_elements` calls, the full decoder's entry point."""
    calls = []
    decode = field_ecc.decode_elements

    def counted(*args, **kwargs):
        calls.append(1)
        return decode(*args, **kwargs)

    monkeypatch.setattr(field_ecc, "decode_elements", counted)
    return calls


def test_dispersal_rows_are_memo_rows_and_outsiders_never_decode(monkeypatch):
    """Every honest member disperses its own row of the decision as the
    encode memo holds it, and the honest outsiders accept from their memo
    tallies: no outsider share reaches the full decoder."""
    cfg = SimConfig(n=31, t=2, seed=0, msg_len_bits=1024, protocol="small_t",
                    adversary="garbage_shares")
    byzantine = set(cfg.byzantine_ids())
    outsiders, received, inside = [], [], []
    init, submit = SmallTOutsider.__init__, OecAccumulator.submit
    decodes = _count_decodes(monkeypatch)

    def outsider_init(self, node_id, params):
        init(self, node_id, params)
        if node_id not in byzantine:
            outsiders.append(self)

    def recorded(acc, index, elems):
        mine = any(acc is node.oec_final for node in outsiders)
        if mine:
            received.append((acc, index, elems))
        before = len(decodes)
        try:
            return submit(acc, index, elems)
        finally:
            if mine:
                inside.append(len(decodes) - before)

    monkeypatch.setattr(SmallTOutsider, "__init__", outsider_init)
    monkeypatch.setattr(OecAccumulator, "submit", recorded)
    rep = run(cfg)
    assert rep.reason == "ok" and all(rep.checks.values())
    assert len(outsiders) == cfg.n - committee_size(cfg.t)
    params = outsiders[0].params
    decision = {node.output for node in outsiders}
    assert len(decision) == 1
    rows = params.encodings[decision.pop()]
    honest = [(i, elems) for _, i, elems in received if i not in byzantine]
    assert honest and all(elems is rows[i - 1] for i, elems in honest)
    assert {i for i, _ in honest} <= set(range(1, committee_size(cfg.t) + 1))
    assert inside and sum(inside) == 0


def test_outsider_decodes_copies_through_the_full_decoder(monkeypatch):
    """Plain-tuple copies of the committee's rows are not memo rows: the
    outsider decodes the same message, through the full decoder."""
    rows = ecc_encode(P_C, W)
    decodes = _count_decodes(monkeypatch)
    node = outsider()
    for i in (1, 2):
        node.handle(i, Shmdm(tuple(list(rows[i - 1]))))
    assert node.terminated and node.output == W and len(decodes) == 1
    memo_fed = outsider(8)
    for i in (1, 2):
        memo_fed.handle(i, Shmdm(rows[i - 1]))
    assert memo_fed.output == W and len(decodes) == 1
