"""Command-line interface tests."""

import json

from acool.cli import main


def test_run_prints_valid_json(capsys):
    code = main(["run", "--n", "4", "--t", "1", "--len", "64", "--seed", "7"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert report["reason"] == "ok"
    outputs = set(v["output"] for v in report["outputs"].values())
    assert len(outputs) == 1


def test_run_scenario_split_input(capsys):
    code = main(["run", "--scenario", "split-input", "--n", "7", "--t", "2",
                 "--len", "64", "--abba", "coin"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["reason"] == "ok"


def test_run_resilience_violation_exits_1(capsys):
    code = main(["run", "--n", "3", "--t", "1"])
    err = capsys.readouterr().err
    assert code == 1 and "3t+1" in err


def test_negative_fault_bound_or_event_cap_exits_1(capsys):
    """t = -1, given or derived from n = 0, and a negative event cap are
    configuration errors, not a Byzantine count or a liveness failure."""
    cases = (
        (["--n", "4", "--t", "-1"], "need t >= 0 and n >= 3t+1, got n=4, t=-1"),
        (["--n", "0"], "need t >= 0 and n >= 3t+1, got n=0, t=-1"),
        (["--n", "4", "--event-cap", "-5"], "negative event cap"),
    )
    for args, message in cases:
        code = main(["run"] + args)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_message_length_below_one_bit_exits_1(capsys):
    for length in ("0", "-5"):
        code = main(["run", "--n", "4", "--t", "1", "--len", length])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: message length must be >= 1 bit\n"


def test_bad_flag_exits_1(capsys):
    assert main(["run", "--no-such-flag"]) == 1


def test_liveness_failure_exits_3(capsys):
    code = main(["run", "--scenario", "split-input", "--n", "4", "--t", "1",
                 "--len", "64", "--abba", "coin", "--legacy-cool",
                 "--event-cap", "20000"])
    assert code == 3


def test_out_writes_report_and_log(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--n", "4", "--t", "1", "--len", "64",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["reason"] == "ok"
    log_lines = (tmp_path / "report.json.ndjson").read_text().splitlines()
    assert log_lines and all(
        set(json.loads(l)) == {"step", "from", "to", "tag", "bits", "round"}
        for l in log_lines)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "report.json", "report.json.ndjson"]


def test_scenario_keeps_count_byzantine_bits(capsys):
    args = ["--n", "7", "--t", "2", "--len", "64", "--count-byzantine-bits"]
    for extra in ([], ["--scenario", "split-input"]):
        code = main(["run"] + extra + args)
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["config"]["count_byzantine_bits"] is True
        code = main(["run"] + extra + args + ["--protocol", "small_t"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["config"]["protocol"] == "small_t"


def test_scenario_list(capsys):
    assert main(["scenario-list"]) == 0
    assert "split-input" in capsys.readouterr().out


def test_sweep_emits_csv(capsys):
    code = main(["sweep", "--n-list", "4,7", "--len", "256", "--seeds", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("n,t,mean_bits")
    assert len(out) == 3


def _sweep_rows(tmp_path, protocol, n_list):
    out = tmp_path / f"{protocol}-{n_list}.json"
    assert main(["sweep", "--protocol", protocol, "--n-list", n_list,
                 "--t", "1", "--len", "64", "--seeds", "1",
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_sweep_without_seeds_exits_1(capsys):
    for seeds in ("0", "-2"):
        code = main(["sweep", "--n-list", "4", "--len", "64", "--seeds", seeds])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: seeds must be >= 1, got {seeds}\n"


def test_auto_protocol_selects_committee_at_ratio(tmp_path, capsys):
    code = main(["run", "--protocol", "auto", "--n", "10", "--t", "1",
                 "--len", "64"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["config"]["protocol"] == "small_t"
    code = main(["run", "--protocol", "auto", "--n", "7", "--t", "2",
                 "--len", "64"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["config"]["protocol"] == "acool"
    # a sweep resolves auto per cell: n=4 runs the composition, n=25 the
    # committee
    auto = _sweep_rows(tmp_path, "auto", "4,25")
    assert auto[0] == _sweep_rows(tmp_path, "acool", "4")[0]
    assert auto[1] == _sweep_rows(tmp_path, "small_t", "25")[0]
    assert auto[1]["mean_bits"] == 16064


def test_unbalanced_rbc_flag(capsys):
    code = main(["run", "--protocol", "rbc", "--n", "7", "--t", "2",
                 "--len", "64", "--unbalanced"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["metrics"]["bits_by_tag"].get("LEADERMESSAGE", 0) > 0


def test_accept_prints_one_line_per_criterion_and_exits_2_on_failure(
        monkeypatch, capsys):
    from acool import acceptance

    calls = []

    def stub(passed):
        def criterion(quick, workers):
            calls.append((quick, workers))
            return passed, "stub detail"
        return criterion

    monkeypatch.setattr(acceptance, "CRITERIA",
                        [("a passing", stub(True)), ("b failing", stub(False))])
    assert main(["accept", "--workers", "1"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "PASS  a passing: stub detail", "FAIL  b failing: stub detail"]
    assert calls == [(False, 1), (False, 1)]
