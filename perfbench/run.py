"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload we-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload three times in this process, untraced, with every layer's
public functions wrapped (see ``tracing.py``) and untraced again, and
reports the per-layer metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, prefixed ``REPORT``, carries the exact metrics, every output
check by name and the provenance of the run.  Metric names and units come
from ``BENCHMARK.json`` at the root of the checkout.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"

#: Set-ups per untraced run: one before the timed ops, the rest spread
#: evenly between them.
SETUPS = 9
#: A traced run fails its closure check above this share.
CLOSURE_LIMIT = 0.05
#: A traced run fails its coverage check when the ``other`` bucket, time
#: no wrapped layer claims, is above this share of the traced op time.
OTHER_LIMIT = 0.10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import ``repro`` from this checkout's ``src/``, or return None."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        return None
    return repro


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_commit():
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the library's ``.py`` files: names the code under test."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed: int, seconds: float) -> dict:
    import numpy

    from repro.walks.kernels import default_backend_name

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "kernel_backend": default_backend_name(),
        "slab_storage": "shm" if workload.name == "service" else None,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def set_up(workload, seed: int, seconds: float, workdir: Path, setups: list):
    """One set-up and warm-up.  Appends to *setups* its real time and the
    mean of the reference times taken just before and just after it."""
    from workloads import reference_seconds

    shutil.rmtree(workdir, ignore_errors=True)
    before = reference_seconds()
    began = perf_counter()
    env = workload.setup(seed, seconds, workdir)
    workload.warm_up(env, seed)
    elapsed = perf_counter() - began
    setups.append((elapsed, (before + reference_seconds()) / 2.0))
    return env


def measure(workload, seed, seconds, workdir, recorder, count=1):
    """One pass: a set-up, then the timed ops on it, with *count* − 1 more
    set-ups spread evenly between the ops.  Returns the meter, the exact
    metrics and every set-up's (real time, reference time) in order; the
    first is the process's cold set-up."""
    from workloads import Meter, reference_seconds

    reference_seconds()  # its own first call pays one-time costs
    setups: list = []
    env = set_up(workload, seed, seconds, workdir / "ops", setups)

    def interlude() -> None:
        if len(setups) < count:
            spare = set_up(workload, seed, seconds, workdir / "spare", setups)
            workload.close(spare)

    meter = Meter(recorder, interlude, workload.ops(seconds) // count)
    try:
        exact = workload.run(env, seed, seconds, meter)
    finally:
        workload.close(env)
    return meter, exact, setups


def middle_mean(values: list) -> float:
    """Mean of the middle half of *values* (the interquartile mean)."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    middle = ordered[quarter : len(ordered) - quarter]
    return sum(middle) / len(middle)


def timings(latencies: list, samples: int, setups: list) -> dict:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": middle_mean(setups),
        "samples_per_s": samples / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": deciles[-1] * 1e3,
    }


def end_to_end(meter, setups: list, report: dict) -> dict:
    """The end-to-end metrics, timings at reference speed; the same
    timings in real time go to *report*."""
    from workloads import at_reference_speed

    scaled_setups = [at_reference_speed(real, ref) for real, ref in setups]
    values = timings(meter.scaled_latencies(), meter.samples, scaled_setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["real_time"] = timings(
        meter.latencies, meter.samples, [real for real, _ in setups]
    )
    report["real_time"]["reference_ms"] = statistics.median(meter.references) * 1e3
    return values


def traced_run(workload, seed, seconds, workdir, report, names):
    """Untraced, traced, untraced passes; per-layer metrics and checks.

    The traced pass sits between two untraced ones and its overhead is
    taken against their mean, so a process that speeds up (or slows
    down) as it runs does not bias the figure either way.
    """
    from tracing import Recorder, install, uninstall

    before, before_exact, _ = measure(workload, seed, seconds, workdir, None)
    recorder = Recorder()
    patches = install(recorder)
    try:
        traced, traced_exact, _ = measure(workload, seed, seconds, workdir, recorder)
    finally:
        uninstall(patches)
    after, after_exact, _ = measure(workload, seed, seconds, workdir, None)
    total = sum(traced.latencies)
    untraced = (sum(before.scaled_latencies()) + sum(after.scaled_latencies())) / 2
    values = recorder.metrics(names)
    values["trace.wrapper_s"] = recorder.wrapper_s
    values["trace.overhead"] = sum(traced.scaled_latencies()) / untraced - 1.0
    values["trace.closure"] = abs(recorder.span_seconds() - total) / total
    values.update(exact_values(traced_exact))
    traced.check("trace.closure_within_5pct", values["trace.closure"] <= CLOSURE_LIMIT)
    traced.check(
        "trace.other_within_10pct", values["other.self_s"] <= OTHER_LIMIT * total
    )
    traced.check("trace.spans_all_closed", recorder.open_spans() == 0)
    traced.check(
        "trace.exact_metrics_unchanged", before_exact == traced_exact == after_exact
    )
    report["exact"] = traced_exact
    report["layer_counts_raw"] = dict(sorted(recorder.counts.items()))
    report["wrapper_cost_us"] = {
        "inner": recorder.inner * 1e6,
        "residue": recorder.residue * 1e6,
    }
    passes = (("untraced", before), ("traced", traced), ("untraced-again", after))
    for label, meter in passes:
        for name, tally in meter.checks.items():
            report["checks"][f"{label}:{name}"] = tally
        report["errors"].extend(f"{label} {error}" for error in meter.errors)
    failed = before.failed | traced.failed | after.failed
    return values, len(traced.latencies), len(failed)


def exact_values(exact: dict) -> dict:
    """The ``exact.*`` per-layer metrics; absent quantities read 0."""
    return {
        "exact.samples": exact["samples"],
        "exact.queries_per_sample": exact.get("queries_per_sample", 0.0),
        "exact.rel_error": exact["rel_error"],
        "exact.sim_s": exact.get("sim_s", 0.0),
    }


def untraced_run(workload, seed, seconds, workdir, report, names):
    meter, exact, setups = measure(workload, seed, seconds, workdir, None, SETUPS)
    report["exact"] = exact
    report["setups_s"] = [real for real, _ in setups]
    report["checks"].update(meter.checks)
    report["errors"].extend(meter.errors)
    values = end_to_end(meter, setups, report)
    return values, len(meter.latencies), len(meter.failed)


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, if one started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_library() is None:
        print(f"perfbench: no library source under {SOURCE}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"valid: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workdir = WORKDIR / f"{workload.name}-{os.getpid()}"
    report = {
        "provenance": provenance(workload, args.seed, args.seconds),
        "checks": {},
        "errors": [],
    }
    try:
        run = traced_run if args.trace else untraced_run
        values, attempted, failed = run(
            workload,
            args.seed,
            args.seconds,
            workdir,
            report,
            [metric["name"] for metric in declared],
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
        stop_resource_tracker()
    checks_pass = all(tally[1] == 0 for tally in report["checks"].values())
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    result = {
        "correct": checks_pass and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    for name, (passed, failures) in sorted(report["checks"].items()):
        print(f"check {name}: {passed} passed, {failures} failed")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
