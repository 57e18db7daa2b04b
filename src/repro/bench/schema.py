"""The shared benchmark-artifact envelope.

Every bench writer (``benchmarks/bench_*.py``) wraps its nested record in
one normalized envelope before it hits disk::

    {
      "schema_version": 1,
      "benchmark": "walk_throughput",        # the record's own name
      "scale": "smoke" | "full",             # pinned workload size
      "host": {"cpu_count": ..., "platform": ..., "python": ...},
      "metrics": {"designs.srw.scalar.walks": 200, ...},  # flat map
      "record": {...}                        # the original nested record
    }

The flat ``metrics`` map is what the regression checker diffs, exactly:
dotted keys, numeric/boolean leaves only.  Two kinds of value stay out
of it.  Host facts are environment, not results: they live in ``host``.
Wall-clock numbers depend on the machine: each writer declares them by
putting them under a key named ``timing``, next to the counts they
belong to, and they stay in ``record`` for people to read.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional

from repro.bench.io import PathLike, atomic_write_json, load_json

#: Version of the envelope layout itself (not of any benchmark).
SCHEMA_VERSION = 1

#: Workload-size tags the runner pins (free-form tags also load fine).
KNOWN_SCALES = ("smoke", "full")

#: Top-level record key whose subtree never becomes metrics.
_HOST = "host"

#: Key whose subtree never becomes metrics, at any depth.
_TIMING = "timing"

MetricValue = object  # int | float | bool at runtime; kept loose for JSON


def effective_cpu_count() -> int:
    """Scheduling-affinity-aware CPU count (cgroup limits included)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def host_metadata() -> Dict[str, object]:
    """Where an artifact was measured: the context of its ``timing`` blocks.

    ``kernel_backend`` is the process-default walk-kernel backend
    (:mod:`repro.walks.kernels`) — an execution-environment fact, not a
    result, so it rides in the host block next to the CPU count.
    """
    from repro.walks.kernels import default_backend_name

    return {
        "cpu_count": effective_cpu_count(),
        "pid_cpu_count": os.cpu_count(),
        "platform": f"{platform.system().lower()}-{platform.machine()}",
        "python": platform.python_version(),
        "kernel_backend": default_backend_name(),
    }


def flatten_metrics(record: object) -> Dict[str, MetricValue]:
    """Flatten *record* into dotted-key → numeric/bool leaf pairs.

    Dicts flatten by key, lists by index; strings, ``None``, the
    top-level ``host`` block and every ``timing`` block are skipped.
    Booleans are kept as booleans — they diff exactly, like any other
    metric.
    """
    flat: Dict[str, MetricValue] = {}

    def visit(prefix: str, value: object) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                if key == _TIMING or (not prefix and key == _HOST):
                    continue
                visit(f"{prefix}{key}." if prefix else f"{key}.", item)
            return
        if isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                visit(f"{prefix}{index}.", item)
            return
        if isinstance(value, bool) or isinstance(value, (int, float)):
            flat[prefix[:-1]] = value

    visit("", record)
    return flat


@dataclass(frozen=True)
class Envelope:
    """One loaded benchmark artifact."""

    benchmark: str
    scale: Optional[str]
    host: Optional[Dict[str, object]]
    metrics: Dict[str, MetricValue]
    record: Dict[str, object]
    schema_version: int = SCHEMA_VERSION
    path: Optional[Path] = field(default=None, compare=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "benchmark": self.benchmark,
            "scale": self.scale,
            "host": self.host,
            "metrics": self.metrics,
            "record": self.record,
        }


def make_envelope(
    record: Dict[str, object],
    *,
    scale: str,
    host: Optional[Dict[str, object]] = None,
) -> Envelope:
    """Wrap one nested benchmark record in the normalized envelope."""
    if not isinstance(record, dict):
        raise TypeError(f"benchmark records must be dicts, got {type(record)!r}")
    return Envelope(
        benchmark=str(record.get("benchmark", "unknown")),
        scale=scale,
        host=dict(host) if host is not None else host_metadata(),
        metrics=flatten_metrics(record),
        record=record,
    )


def write_artifact(
    record: Dict[str, object],
    path: PathLike,
    *,
    scale: str,
    host: Optional[Dict[str, object]] = None,
) -> Envelope:
    """Envelope *record* and atomically write it to *path*.

    This is the single exit door for every bench writer: one schema, one
    atomic write, one loud failure mode on unwritable destinations.
    """
    envelope = make_envelope(record, scale=scale, host=host)
    atomic_write_json(path, envelope.to_dict())
    return replace(envelope, path=Path(path))


def load_artifact(path: PathLike) -> Envelope:
    """Load one enveloped artifact; anything else raises ``ValueError``."""
    document = load_json(path)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: benchmark artifacts must be JSON objects")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema_version {version!r} "
            f"(this checker understands {SCHEMA_VERSION})"
        )
    record = document.get("record")
    if not isinstance(record, dict):
        raise ValueError(f"{path}: envelope is missing its nested 'record'")
    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        metrics = flatten_metrics(record)
    return Envelope(
        benchmark=str(document.get("benchmark", "unknown")),
        scale=document.get("scale"),
        host=document.get("host"),
        metrics=metrics,
        record=record,
        schema_version=version,
        path=Path(path),
    )
