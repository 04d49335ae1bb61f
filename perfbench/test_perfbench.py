"""Tests of the benchmark itself.

Run from the root of the repository with

    python3 -m pytest -q perfbench

They take about two minutes on a 2-core machine: each benchmark call runs
a workload's fixed prefix (about ten seconds) at least once.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tracer as tracing  # noqa: E402


def bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    return out


def deterministic(metrics: dict) -> dict:
    """Metrics that count simulated work, which must repeat exactly."""
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] in ("bits", "deliveries", "rounds", "count",
                             "steps", "calls/event")
            or name.endswith("_ratio")}


@pytest.fixture(scope="module")
def untraced_pair():
    return result("accept-grid", 0), result("accept-grid", 0)


@pytest.fixture(scope="module")
def traced_pair():
    return result("accept-grid", 1), result("accept-grid", 1)


def emitted_units(out: dict) -> dict:
    return {name: m["unit"] for name, m in out["metrics"].items()}


def spec_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_untraced_run_emits_every_end_to_end_metric(untraced_pair):
    for out in untraced_pair:
        assert emitted_units(out) == spec_units("end_to_end")


def test_traced_run_emits_every_per_layer_metric(traced_pair):
    for out in traced_pair:
        assert emitted_units(out) == spec_units("per_layer")


def test_deterministic_metrics_repeat_exactly(untraced_pair, traced_pair):
    for first, second in (untraced_pair, traced_pair):
        values = deterministic(first["metrics"])
        assert values == deterministic(second["metrics"])
    assert {"bits_per_run", "events_per_run",
            "causal_rounds.mean"} <= set(deterministic(untraced_pair[0]["metrics"]))
    assert {"simnet.queue.wait_steps.p50", "field_ecc.decode.success_ratio",
            "field_ecc.encode.calls"} <= set(deterministic(traced_pair[0]["metrics"]))


def test_trace_covers_the_run_and_grid_is_not_codec_bound(traced_pair):
    metrics = traced_pair[0]["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.99
    assert metrics["field_ecc.self_share"]["value"] < 0.25


def test_scale_workload_is_codec_bound():
    metrics = result("scale-n49", 1)["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.99
    shares = {name: m["value"] for name, m in metrics.items()
              if name.endswith("self_share")}
    assert max(shares, key=shares.get) == "field_ecc.self_share"
    encodes = metrics["field_ecc.encode.calls"]["value"]
    assert 2 * metrics["field_ecc.encode.oec_reencode_calls"]["value"] == encodes


def test_tracer_replaces_every_binding():
    originals = [fn for fn, _ in tracing.FUNCTION_TARGETS]

    def is_original(value):
        return any(value is fn for fn in originals)

    tracer = tracing.Tracer()
    patched = tracer.install()
    try:
        modules = [m for key, m in sys.modules.items()
                   if key == "acool" or key.startswith("acool.")]
        left = [(m.__name__, attr) for m in modules
                for attr, value in vars(m).items() if is_original(value)]
        assert left == []
        from acool import bua, rba_rbc, simnet, small_t
        for fn in (bua.ecc_encode, rba_rbc.ecc_encode, small_t.encode_elements,
                   simnet.payload_bits, simnet.tag_of):
            assert is_original(fn.__wrapped__)
        assert patched > len(originals)
    finally:
        tracer.uninstall()
    from acool import simnet
    assert is_original(simnet.payload_bits)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("accept-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
