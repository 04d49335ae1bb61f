"""Batch command-line front end.

Subcommands: ``run`` executes one simulation and prints the run report
as JSON; ``sweep`` runs a parameter grid and prints summary CSV;
``scenario-list`` shows canned scenario builders; ``accept`` executes
the acceptance suite and prints one pass/fail line per criterion.

Exit codes: 0 success, 1 bad arguments, 2 property violation, 3 liveness
failure (event cap or deadlock).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .simnet import (
    ADVERSARIES, PROTOCOLS, SCHEDULERS, SCENARIOS, SimConfig, run, sweep,
)

# `--protocol auto` runs the committee once n >= SMALL_T_RATIO * (3t+1)
SMALL_T_RATIO = 2.0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_common(p: _Parser):
    p.add_argument("--protocol", choices=PROTOCOLS + ("auto",),
                   default="acool",
                   help=f"auto picks small_t once n >= {SMALL_T_RATIO:g} * "
                        "(3t+1)")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--t", type=int,
                   help="fault bound; default floor((n-1)/3)")
    p.add_argument("--len", type=int, dest="msg_len_bits", default=256,
                   help="message length in bits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--adversary", choices=("none",) + ADVERSARIES,
                   default="none")
    p.add_argument("--scheduler", choices=SCHEDULERS, default="uniform")
    p.add_argument("--abba", choices=("oracle", "coin"), default="oracle")
    p.add_argument("--abba-hint", type=int, choices=(0, 1), default=0)
    p.add_argument("--skip-brba", action="store_true")
    p.add_argument("--count-abba-bits", action="store_true")
    p.add_argument("--count-byzantine-bits", action="store_true")
    p.add_argument("--legacy-cool", action="store_true")
    p.add_argument("--leader", type=int, default=1)
    p.add_argument("--unbalanced", action="store_true")
    p.add_argument("--event-cap", type=int, default=1_000_000)
    p.add_argument("--out", help="write report JSON here (event log beside it)")


def _cell(args, n: int) -> dict:
    """n, the fault bound and the protocol, with auto resolved, for one n."""
    t = args.t if args.t is not None else (n - 1) // 3
    protocol = args.protocol
    if protocol == "auto":
        protocol = "small_t" if n >= SMALL_T_RATIO * (3 * t + 1) else "acool"
    return {"n": n, "t": t, "protocol": protocol}


def _config_from(args) -> SimConfig:
    return SimConfig(
        **_cell(args, args.n), seed=args.seed,
        msg_len_bits=args.msg_len_bits,
        adversary=args.adversary, scheduler=args.scheduler,
        abba=args.abba, abba_hint=args.abba_hint,
        skip_brba=args.skip_brba, count_abba_bits=args.count_abba_bits,
        count_byzantine_bits=args.count_byzantine_bits,
        legacy_cool=args.legacy_cool, leader=args.leader,
        balanced=not args.unbalanced, event_cap=args.event_cap,
    )


def cmd_run(args) -> int:
    config = _config_from(args)
    if args.scenario:
        # the scenario sets inputs, Byzantine ids and adversary; the rest stays
        config = SCENARIOS[args.scenario](**vars(config))
    report = run(config)
    print(report.to_json())
    if args.out:
        with open(args.out, "w") as f:
            f.write(report.to_json() + "\n")
        with open(args.out + ".ndjson", "w") as f:
            f.write(report.log_ndjson() + "\n")
    if not all(report.checks.values()):
        return 2
    if report.reason != "ok":
        return 3
    return 0


def cmd_sweep(args) -> int:
    cells = [_cell(args, int(x)) for x in args.n_list.split(",")]
    base = _config_from(args)
    rows = sweep(base, cells, seeds=args.seeds)
    cols = ["n", "t", "mean_bits", "max_bits", "mean_ideal_bits",
            "mean_rounds", "max_rounds", "ratio", "ideal_ratio", "ok"]
    print(",".join(cols))
    failed = False
    for row in rows:
        print(",".join(str(row[c]) for c in cols))
        failed = failed or not row["ok"]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(rows, f, sort_keys=True, indent=1)
    return 2 if failed else 0


def cmd_scenario_list(_args) -> int:
    for name, builder in sorted(SCENARIOS.items()):
        doc = (builder.__doc__ or "").strip().splitlines()[0]
        print(f"{name}: {doc}")
    return 0


def cmd_accept(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(quick=args.quick, workers=args.workers)
    failed = False
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {detail}")
        failed = failed or not ok
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = _Parser(prog="acool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation", parents=[])
    _add_common(p_run)
    p_run.add_argument("--scenario", choices=sorted(SCENARIOS))
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--n-list", default="4,7,13",
                         help="comma-separated node counts")
    p_sweep.add_argument("--seeds", type=int, default=3)
    p_sweep.set_defaults(func=cmd_sweep)

    p_list = sub.add_parser("scenario-list", help="list canned scenarios")
    p_list.set_defaults(func=cmd_scenario_list)

    p_acc = sub.add_parser("accept", help="run the acceptance suite")
    p_acc.add_argument("--quick", action="store_true")
    p_acc.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p_acc.set_defaults(func=cmd_accept)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
