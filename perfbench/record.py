"""Measure the checkout and write perfbench/baseline.json.

Run from the root of the repository:

    python3 perfbench/record.py                 # every workload
    python3 perfbench/record.py accept-grid     # only the named workloads

Each workload runs untraced once for each of ten seeds, then traced once
at the default seed, each run in its own process with the ``run_seconds``
of BENCHMARK.json.  For every end-to-end metric it records the median,
the quartiles and their distance as a share of the median (the spread),
with the sample count; it also records the per-layer numbers and each
seed's replay digest, which later runs of the benchmark compare against.
A workload not named keeps what baseline.json already holds for it.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"
SEEDS = range(10)
DIGEST = re.compile(r"replay digest ([0-9a-f]{64})")


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stdout}{proc.stderr}")
    digest = DIGEST.search(proc.stdout).group(1)
    return json.loads(lines[-1]), digest


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "samples": len(values)}


def record(workload: dict, spec: dict) -> dict:
    name, seconds = workload["name"], spec["run_seconds"]
    runs, digests = [], {}
    for seed in SEEDS:
        out, digests[str(seed)] = bench(name, seed, seconds, 0)
        if not out["correct"] or out["failed"]:
            raise SystemExit(f"{name} seed {seed}: incorrect run: {out}")
        runs.append(out)
        print(f"{name} seed {seed}: " + ", ".join(
            f"{k} {m['value']:.6g}" for k, m in out["metrics"].items()),
            flush=True)
    end_to_end = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        end_to_end[metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], **summary(values)}
    traced, _ = bench(name, SEEDS[0], seconds, 1)
    return {
        "why": workload["why"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": end_to_end,
        "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        "digests": digests,
    }


def main(argv: list) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = argv or [w["name"] for w in spec["workloads"]]
    baseline = json.loads(BASELINE.read_text())
    baseline["hardware"] = (f"{os.cpu_count()}-core {platform.machine()}, "
                            f"Python {platform.python_version()}")
    baseline["seeds"] = list(SEEDS)
    for workload in spec["workloads"]:
        if workload["name"] in names:
            baseline["workloads"][workload["name"]] = record(workload, spec)
            BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    for name, entry in baseline["workloads"].items():
        for metric, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"{name:<16}{metric:<20} median {s['median']:<12.6g} "
                  f"spread {s['spread']:7.2%} bound {s['bound']:.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
