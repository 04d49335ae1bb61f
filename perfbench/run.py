"""Benchmark of the acool simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload accept-grid --seed 0 --seconds 25 --trace 0

The benchmark needs only the standard library and the checkout's ``src``
tree.  It runs the simulator in one process, with no threads and no
worker pool; set-up is timed in short-lived child processes, one at a
time.

A workload seed selects a stream of simulator configs, in groups (see
``workloads.py``).  With ``--trace 0`` the stream is run from its start,
timing the CPU time of each `acool.simnet.run` call from outside, until
another group would end after ``--seconds`` of wall time; the workload's
fixed prefix always runs whole.  Before that, set-up (import `acool`,
build the fixed prefix's configs and code params) is timed in several
fresh processes.  Every run is checked.  Afterwards the first group is
run again, and every run must replay to the same report and event log as
before.  Metrics that count simulated work, and the replay digest, are
taken over the fixed prefix, so they repeat exactly for a seed.

With ``--trace 1`` the fixed prefix runs once untraced, then once more
with the tracer of ``tracer.py`` installed; the per-layer numbers come
from the traced runs and the overhead from comparing the two.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every check passed, 1 when one
failed, and 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
BASELINE = BENCH_DIR / "baseline.json"
SETUP_PROBES = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "runs/s",
    "events_per_s": "deliveries/s",
    "run_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "bits_per_run": "bits",
    "events_per_run": "deliveries",
    "causal_rounds.mean": "rounds",
}
# run_ms.p90 is printed only where at least 10 runs lie beyond it.
P90_MIN_RUNS = 100

# Child process that times set-up from a cold interpreter.
SETUP_PROBE = """
import sys
from time import process_time
t0 = process_time()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
setup = process_time() - t0
import hostspeed
speed = hostspeed.HostSpeed()
speed.sample(calls=25)
print(setup * speed.scale())
"""


def run_digest(report) -> str:
    """sha256 of one run's report JSON and event log."""
    blob = report.to_json() + "\n" + report.log_ndjson()
    return hashlib.sha256(blob.encode()).hexdigest()


def expected_output(config):
    """The value every honest node must output, or None if unconstrained."""
    inputs = config.effective_inputs()
    byzantine = set(config.byzantine_ids())
    if config.protocol == "rbc":
        leader_input = inputs.get(config.leader)
        return None if config.leader in byzantine else leader_input
    honest = {inputs.get(i) for i in range(1, config.n + 1) if i not in byzantine}
    return honest.pop() if len(honest) == 1 else None


def run_ok(config, report) -> bool:
    """The program's own checks plus termination, agreement and validity."""
    if report.reason != "ok" or not all(report.checks.values()):
        return False
    outputs = list(report.outputs.values())
    if not all(o["terminated"] for o in outputs):
        return False
    decided = {(o["output"], o["bottom"]) for o in outputs}
    if len(decided) != 1:
        return False
    expected = expected_output(config)
    return expected is None or decided == {(expected.hex(), False)}


class Measurement:
    """Timings and outcomes of every run made, and replay digests.

    ``clock`` times each run: process CPU time for the end-to-end
    metrics, which leaves out time the host gives to other guests, and
    wall time under the tracer, whose spans are wall time.  ``after_run``
    is called with each run's time, after the run and outside its timing.
    """

    def __init__(self, clock, after_run):
        self.clock = clock
        self.after_run = after_run
        self.durations: list = []
        self.events: list = []
        self.attempted = 0
        self.failed = 0
        self.replay_mismatches = 0

    def run_group(self, configs: list, run) -> tuple:
        """Run each config once with ``run``, timing the call.

        Returns the timed seconds and, per run, its digest and the
        simulated work it did: (digest, total bits, deliveries, causal
        rounds).
        """
        timed = 0.0
        records = []
        clock = self.clock
        for config in configs:
            self.attempted += 1
            t0 = clock()
            report = run(config)
            elapsed = clock() - t0
            self.after_run(elapsed)
            timed += elapsed
            self.durations.append(elapsed)
            metrics = report.metrics
            self.events.append(metrics.events_delivered)
            if not run_ok(config, report):
                self.failed += 1
            records.append((run_digest(report), metrics.total_bits,
                            metrics.events_delivered, metrics.max_causal_round))
            del report
        return timed, records

    def compare_replay(self, first: list, again: list):
        self.replay_mismatches += sum(
            a[0] != b[0] for a, b in zip(first, again))


def workload_digest(records: list) -> str:
    """sha256 over the run digests of the fixed prefix, in order."""
    return hashlib.sha256("\n".join(r[0] for r in records).encode()).hexdigest()


def percentile(values: list, q: int) -> float:
    """q-th percentile (1..99) by linear interpolation between order stats."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(workload: str, seed: int) -> list:
    """Set-up time of the workload in each of several fresh processes.

    Each process scales its own CPU time to reference host speed.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR),
             workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(proc.stdout))
    return samples


def untraced(simnet, workload, name: str, seed: int, seconds: float):
    setup = setup_seconds(name, seed)
    speed = hostspeed.HostSpeed()
    meas = Measurement(process_time, speed.sample)
    prefix = []
    start = perf_counter()
    j = 0
    while True:
        group_start = perf_counter()
        _, records = meas.run_group(workload.group(seed, j), simnet.run)
        j += 1
        if j <= workload.fixed_groups:
            prefix += records
        now = perf_counter()
        if (j >= workload.fixed_groups
                and now + (now - group_start) > start + seconds):
            break
    measured = perf_counter() - start
    first = workload.group(seed, 0)
    meas.compare_replay(prefix, meas.run_group(first, simnet.run)[1])
    replays = len(first)

    durations = meas.durations[:-replays]
    cpu = sum(durations)
    runs = len(durations)
    scale = speed.scale()
    _, bits, events, rounds = zip(*prefix)
    k = len(prefix)
    values = {
        "setup_s": statistics.median(setup),
        "runs_per_s": runs / (cpu * scale),
        "events_per_s": sum(meas.events[:-replays]) / (cpu * scale),
        "run_ms.p50": 1000 * statistics.median(durations) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bits_per_run": sum(bits) / k,
        "events_per_run": sum(events) / k,
        "causal_rounds.mean": sum(rounds) / k,
    }
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in END_TO_END_UNITS.items()}
    lines = [f"{runs} timed runs in {j} groups ({measured:.1f} s wall, "
             f"{cpu:.1f} CPU s in runs); fixed prefix {k} runs; "
             f"{replays} runs replayed",
             f"times are at reference host speed: CPU time x {scale:.4f} "
             f"from {speed.calls} kernel samples; unscaled: "
             f"{runs / cpu:.6g} runs/s, run_ms.p50 "
             f"{1000 * statistics.median(durations):.6g} ms",
             f"setup_s is the median of {len(setup)} fresh processes; "
             f"run_ms.p50 is over {runs} runs"]
    if runs >= P90_MIN_RUNS:
        lines.append(f"run_ms.p90 {1000 * percentile(durations, 90) * scale:.6g}"
                     f" ms over {runs} runs")
    return meas, prefix, metrics, lines


def layer_values(tracer, runs: int, events: int, traced_wall: float,
                 untraced_wall: float) -> dict:
    """Per-layer metrics of the traced fixed prefix of ``runs`` runs."""
    calls, self_s = tracer.calls, tracer.self_s
    total_self = sum(self_s.values())

    def n(span):
        return calls.get(span, 0)

    def ms_per_run(*spans):
        return 1000 * sum(self_s.get(s, 0.0) for s in spans) / runs

    def us_per_call(span):
        return 1e6 * self_s[span] / calls[span] if calls.get(span) else 0.0

    def share(*spans):
        return sum(self_s.get(s, 0.0) for s in spans) / total_self

    def ratio(num, den):
        return num / den if den else 0.0

    decodes = n("field_ecc.decode")
    codec = ("field_ecc.encode", "field_ecc.decode", "field_ecc.oec.submit")
    waits = tracer.wait_steps
    return {
        "field_ecc.encode.calls": (n("field_ecc.encode"), "count"),
        "field_ecc.encode.oec_reencode_calls": (tracer.oec_reencode_calls, "count"),
        "field_ecc.encode.self_ms": (ms_per_run("field_ecc.encode"), "ms"),
        "field_ecc.decode.calls": (decodes, "count"),
        "field_ecc.decode.self_ms": (ms_per_run("field_ecc.decode"), "ms"),
        "field_ecc.decode.success_ratio": (
            ratio(decodes - tracer.raised.get("field_ecc.decode", 0), decodes),
            "ratio"),
        "field_ecc.oec.submit.calls": (n("field_ecc.oec.submit"), "count"),
        "field_ecc.oec.submit.self_ms": (ms_per_run("field_ecc.oec.submit"), "ms"),
        "field_ecc.oec.accept_ratio": (
            ratio(tracer.accepted_submits, tracer.decodes_under_submit), "ratio"),
        "field_ecc.self_share": (share(*codec), "ratio"),
        "bua.input.self_ms": (ms_per_run("bua.input"), "ms"),
        "bua.on_symbol.calls": (n("bua.on_symbol"), "count"),
        "bua.on_symbol.self_us": (us_per_call("bua.on_symbol"), "us"),
        "bua.on_si.calls": (n("bua.on_si"), "count"),
        "bua.on_si.self_us": (us_per_call("bua.on_si"), "us"),
        "bua.self_share": (share("bua.input", "bua.on_symbol", "bua.on_si"), "ratio"),
        "protocol.handle.calls": (n("protocol.handle"), "count"),
        "protocol.handle.self_us": (us_per_call("protocol.handle"), "us"),
        "protocol.self_share": (share("protocol.handle"), "ratio"),
        "messages.accounting.calls_per_event": (
            ratio(n("messages.accounting"), events), "calls/event"),
        "messages.accounting.self_ms": (ms_per_run("messages.accounting"), "ms"),
        "messages.self_share": (share("messages.accounting"), "ratio"),
        "simnet.run.self_ms": (ms_per_run("simnet.run"), "ms"),
        "simnet.run.self_share": (share("simnet.run"), "ratio"),
        "simnet.queue.push.calls": (n("simnet.queue.push"), "count"),
        "simnet.queue.push.self_us": (us_per_call("simnet.queue.push"), "us"),
        "simnet.queue.pop.calls": (n("simnet.queue.pop"), "count"),
        "simnet.queue.pop.self_us": (us_per_call("simnet.queue.pop"), "us"),
        "simnet.queue.self_share": (
            share("simnet.queue.push", "simnet.queue.pop"), "ratio"),
        "simnet.queue.wait_steps.p50": (percentile(waits, 50), "steps"),
        "simnet.queue.wait_steps.p90": (percentile(waits, 90), "steps"),
        "simnet.adversary.calls": (n("simnet.adversary"), "count"),
        "simnet.adversary.self_share": (share("simnet.adversary"), "ratio"),
        "aba.coin.calls": (n("aba.coin"), "count"),
        "aba.coin.self_share": (share("aba.coin"), "ratio"),
        "aba.oracle.calls": (n("aba.oracle"), "count"),
        "rba_rbc.handle.calls": (n("rba_rbc.handle"), "count"),
        "rba_rbc.self_share": (share("rba_rbc.handle"), "ratio"),
        "small_t.handle.calls": (n("small_t.handle"), "count"),
        "small_t.self_share": (share("small_t.handle"), "ratio"),
        "trace.coverage": (total_self / traced_wall, "ratio"),
        "trace.overhead": (traced_wall / untraced_wall, "ratio"),
    }


def traced(simnet, configs: list):
    import tracer as tracing

    tracer = tracing.Tracer()
    meas = Measurement(perf_counter, lambda elapsed: tracer.fold())
    untraced_wall, prefix = meas.run_group(configs, simnet.run)
    events_untraced = sum(meas.events)
    tracer.install()
    try:
        traced_wall, again = meas.run_group(configs, simnet.run)
    finally:
        tracer.uninstall()
    meas.compare_replay(prefix, again)
    k = len(configs)
    values = layer_values(tracer, k, sum(meas.events) - events_untraced,
                          traced_wall, untraced_wall)
    metrics = {name: {"value": v, "unit": unit}
               for name, (v, unit) in values.items()}
    total_self = sum(tracer.self_s.values())
    lines = [f"fixed prefix of {k} runs, untraced then traced: "
             f"{untraced_wall:.2f} s untraced, {traced_wall:.2f} s traced",
             f"{'span':<24}{'calls':>10}{'self ms/run':>13}{'self us/call':>14}"
             f"{'share':>8}"]
    for name in sorted(tracer.self_s, key=tracer.self_s.get, reverse=True):
        calls, self_s = tracer.calls[name], tracer.self_s[name]
        lines.append(f"{name:<24}{calls:>10}{1000 * self_s / k:>13.2f}"
                     f"{1e6 * self_s / calls:>14.2f}{self_s / total_self:>8.1%}")
    return meas, prefix, metrics, lines


def replay_notice(workload: str, seed: int, digest: str) -> str:
    """Compare the workload's replay digest with the one recorded for seed."""
    recorded = json.loads(BASELINE.read_text())["workloads"]
    want = recorded.get(workload, {}).get("digests", {}).get(str(seed))
    if want is None:
        return f"replay digest {digest} (none recorded for seed {seed})"
    if want == digest:
        return f"replay digest {digest} matches the recorded one"
    return (f"notice: behaviour changed: replay digest {digest}, "
            f"recorded {want}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "acool" / "__init__.py").is_file():
        print(f"error: no acool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import acool
    from acool import simnet

    if Path(acool.__file__).resolve().parent != SRC / "acool":
        print(f"error: imported acool from {acool.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        configs, _ = workloads.build(args.workload, seed)
        meas, prefix, metrics, lines = traced(simnet, configs)
    else:
        meas, prefix, metrics, lines = untraced(
            simnet, workload, args.workload, seed, args.seconds)
    correct = meas.failed == 0 and meas.replay_mismatches == 0

    print(f"workload {args.workload}, seed {seed}, trace {args.trace}")
    for line in lines:
        print("  " + line)
    for name, metric in metrics.items():
        print(f"  {name:<40}{metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_share':<40}{meas.failed / meas.attempted:>16.6g} ratio "
          f"({meas.failed} of {meas.attempted} runs)")
    print(f"  repetitions replayed differently: {meas.replay_mismatches}")
    print("  " + replay_notice(args.workload, seed, workload_digest(prefix)))
    print(json.dumps({"correct": correct, "attempted": meas.attempted,
                      "failed": meas.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
