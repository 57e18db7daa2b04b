"""The ``python -m repro.bench`` command line.

Three subcommands make up the regression-gating workflow::

    python -m repro.bench run --suite smoke --out bench_results/
    python -m repro.bench check --baseline . --current bench_results/
    python -m repro.bench append --results bench_results/ \\
        --trajectory BENCH_TRAJECTORY.json --label pr-7

``run`` executes every writer at the suite's pinned scale; ``check``
compares every metric of the fresh artifacts exactly against the
committed baselines and exits non-zero on any failure; ``append`` folds
the run into the per-PR trajectory time series.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.diff import check_directories
from repro.bench.runner import SUITES, BenchRunError, run_suite, suite_artifacts
from repro.bench.trajectory import append_run


def build_parser() -> argparse.ArgumentParser:
    """The harness's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regression-gating benchmark harness",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="execute the benchmark suite at its pinned scale"
    )
    run.add_argument(
        "--suite", choices=sorted(SUITES), default="smoke", help="which scale"
    )
    run.add_argument(
        "--out",
        default="bench_results",
        help="directory the artifacts are written into",
    )
    run.add_argument(
        "--bench-dir",
        default="benchmarks",
        help="directory holding the bench_*.py writer scripts",
    )
    run.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="NAME",
        help="run only these benchmarks (by suite job name)",
    )

    check = commands.add_parser(
        "check", help="diff fresh artifacts against committed baselines"
    )
    check.add_argument(
        "--baseline",
        default=".",
        help="directory holding the committed BENCH_*.json baselines",
    )
    check.add_argument(
        "--current",
        default=None,
        help=(
            "directory holding the fresh run (default: bench_results/ if it "
            "exists, else the baseline directory itself)"
        ),
    )
    check.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="smoke",
        help="suite whose artifact list is compared",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON instead of the readable table",
    )

    append = commands.add_parser(
        "append", help="fold one run into the BENCH_TRAJECTORY.json time series"
    )
    append.add_argument(
        "--results",
        default="bench_results",
        help="directory holding the run's artifacts",
    )
    append.add_argument(
        "--trajectory",
        default="BENCH_TRAJECTORY.json",
        help="trajectory document to append to (created if missing)",
    )
    append.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="smoke",
        help="suite whose artifact list is folded in",
    )
    append.add_argument(
        "--label", default=None, help="free-form tag (PR number, git sha, ...)"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "run":
        try:
            produced = run_suite(
                SUITES[args.suite],
                args.out,
                bench_dir=args.bench_dir,
                only=args.only,
            )
        except BenchRunError as exc:
            print(f"repro.bench run: {exc}", file=sys.stderr)
            return 1
        print(f"repro.bench run: wrote {len(produced)} artifact(s) to {args.out}")
        return 0

    if args.command == "check":
        current = args.current
        if current is None:
            default_results = Path("bench_results")
            current = (
                str(default_results) if default_results.is_dir() else args.baseline
            )
        report = check_directories(args.baseline, current, suite_artifacts(args.suite))
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        return 0 if report.ok else 1

    if args.command == "append":
        try:
            entry, appended = append_run(
                args.trajectory,
                args.results,
                suite_artifacts(args.suite),
                label=args.label,
            )
        except (FileNotFoundError, ValueError) as exc:
            print(f"repro.bench append: {exc}", file=sys.stderr)
            return 1
        if appended:
            print(
                f"repro.bench append: recorded run #{entry['sequence']} "
                f"({entry['scale']}) in {args.trajectory}"
            )
        else:
            print(
                f"repro.bench append: skipped duplicate of run "
                f"#{entry['sequence']} (label {entry['label']!r}, identical "
                f"artifacts) in {args.trajectory}"
            )
        return 0

    raise AssertionError(f"unreachable command {args.command!r}")
