"""Self-test of the benchmark: determinism, metric names, bare directory.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py                 # every workload, 1 s runs
    python3 perfbench/selftest.py --workload charged --seconds 2

Each workload is run in fresh processes: traced twice at one seed and
once at a second seed, plus one untraced run.  The test passes when

* both runs at one seed report identical exact metrics and identical
  per-layer counts (every per-layer metric that is not a real time);
* the second seed changes them;
* every run's output checks pass;
* a directory holding only ``BENCHMARK.json`` and the benchmark exits
  non-zero without printing a result.

Exits 0 on success, 1 on the first failed expectation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench-work" / "selftest"
FIRST_SEED, SECOND_SEED = 7, 8


def run(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    """One benchmark process: (exit code, result dict or None, report or None)."""
    completed = subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    result = report = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("REPORT "):
            report = json.loads(line[len("REPORT ") :])
    if completed.returncode != 0 and result is None:
        sys.stderr.write(completed.stderr[-2000:])
    return completed.returncode, result, report


def deterministic(result: dict, report: dict, units: dict) -> dict:
    """Everything a traced run reports that must repeat exactly."""
    layers = {
        name: value["value"]
        for name, value in result["metrics"].items()
        if units[name] != "s" and not name.startswith("trace.")
    }
    return {
        "attempted": result["attempted"],
        "exact": report["exact"],
        "layers": layers,
        "counts": report["layer_counts_raw"],
    }


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def check_result(label: str, code: int, result, report) -> None:
    expect(code == 0 and result is not None, f"{label}: exits 0 with a result")
    expect(result["correct"] and result["failed"] == 0, f"{label}: output checks pass")
    expect(
        report is not None and report["provenance"]["seed"] is not None,
        f"{label}: prints a provenance block",
    )


def check_bare_directory(seconds: float) -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        code, result, _ = run("we-batch", 1, seconds, 0, cwd=bare)
        expect(code != 0 and result is None, "bare directory: non-zero exit, no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in names:
        code, result, report = run(workload, FIRST_SEED, args.seconds, 0)
        check_result(f"{workload} untraced", code, result, report)
        runs = []
        for seed in (FIRST_SEED, FIRST_SEED, SECOND_SEED):
            code, result, report = run(workload, seed, args.seconds, 1)
            check_result(f"{workload} traced seed {seed}", code, result, report)
            runs.append(deterministic(result, report, per_layer))
        expect(
            runs[0] == runs[1],
            f"{workload}: two runs at seed {FIRST_SEED} agree exactly",
        )
        expect(
            runs[0] != runs[2],
            f"{workload}: seed {SECOND_SEED} changes the exact metrics",
        )
    check_bare_directory(args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
