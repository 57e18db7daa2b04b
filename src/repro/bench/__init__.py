"""``repro.bench`` — the regression-gating benchmark subsystem.

Four pieces, one workflow (ROADMAP open item 5):

* **Schema** (:mod:`repro.bench.schema`): every bench writer emits one
  normalized envelope — ``schema_version``, host metadata, a scale tag,
  and a flat ``metrics`` map — through :func:`write_artifact`, which
  also gives every artifact the same atomic write-temp-then-rename
  discipline (:mod:`repro.bench.io`).
* **Runner** (:mod:`repro.bench.runner`): ``python -m repro.bench run
  --suite smoke`` executes the whole suite at pinned scales through one
  entry point.
* **Checker** (:mod:`repro.bench.diff`): ``python -m repro.bench
  check`` compares every metric of the fresh artifacts exactly against
  the committed ``BENCH_*.json`` baselines and exits non-zero on any
  drift.  Writers keep wall-clock numbers under ``timing`` keys, which
  never become metrics.
* **Trajectory** (:mod:`repro.bench.trajectory`): ``python -m repro.bench
  append`` folds each run into ``BENCH_TRAJECTORY.json``, the per-PR
  time series.
"""

from repro.bench.diff import (
    ArtifactReport,
    CheckReport,
    MetricDiff,
    check_directories,
    compare_envelopes,
)
from repro.bench.io import atomic_write_json, load_json
from repro.bench.runner import (
    SUITES,
    BenchJob,
    BenchRunError,
    run_suite,
    suite_artifacts,
)
from repro.bench.schema import (
    SCHEMA_VERSION,
    Envelope,
    flatten_metrics,
    host_metadata,
    load_artifact,
    make_envelope,
    write_artifact,
)
from repro.bench.trajectory import append_run, artifacts_digest, load_trajectory

__all__ = [
    "SCHEMA_VERSION",
    "SUITES",
    "ArtifactReport",
    "BenchJob",
    "BenchRunError",
    "CheckReport",
    "Envelope",
    "MetricDiff",
    "append_run",
    "artifacts_digest",
    "atomic_write_json",
    "check_directories",
    "compare_envelopes",
    "flatten_metrics",
    "host_metadata",
    "load_artifact",
    "load_json",
    "load_trajectory",
    "make_envelope",
    "run_suite",
    "suite_artifacts",
    "write_artifact",
]
