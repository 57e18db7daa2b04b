"""The per-PR benchmark time series (``BENCH_TRAJECTORY.json``).

Each gated run folds into one append-only document::

    {
      "schema_version": 1,
      "runs": [
        {"sequence": 1, "label": "...", "timestamp": "...",
         "scale": "smoke", "host": {...},
         "artifacts": {"BENCH_throughput.json": {"benchmark": ...,
                                                 "metrics": {...}}, ...}},
        ...
      ]
    }

This is the trajectory the roadmap re-anchors read: a metric's history
across PRs, not just its latest value.  Appends go through the same
atomic writer as every artifact, and a corrupt or foreign document fails
loudly instead of being silently replaced.

Appends are **idempotent** on ``(label, artifact digest)``: a re-run CI
job replaying ``repro.bench append`` on the same results under the same
label finds its entry already present and skips, instead of inflating
the series with duplicate sequence numbers.  The digest is computed over
the canonical JSON of the entry's artifacts map, so any metric change —
or a different label — still appends a genuinely new run.  Metrics hold
no ``timing`` block, so a re-run of unchanged code digests the same.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.io import PathLike, atomic_write_json, load_json
from repro.bench.schema import SCHEMA_VERSION, host_metadata, load_artifact

_EMPTY = {"schema_version": SCHEMA_VERSION, "runs": []}


def load_trajectory(path: PathLike) -> Dict[str, object]:
    """Load (or initialize) the trajectory document, validating its shape."""
    target = Path(path)
    if not target.exists():
        return {"schema_version": SCHEMA_VERSION, "runs": []}
    document = load_json(target)
    if (
        not isinstance(document, dict)
        or document.get("schema_version") != SCHEMA_VERSION
        or not isinstance(document.get("runs"), list)
    ):
        raise ValueError(
            f"{target} is not a repro.bench trajectory document "
            f"(expected schema_version={SCHEMA_VERSION} with a 'runs' list)"
        )
    return document


def artifacts_digest(entry_artifacts: Dict[str, object]) -> str:
    """Canonical digest of one entry's artifacts map (the dedupe key).

    Canonical JSON (sorted keys) so semantically identical maps hash
    identically whether freshly built or round-tripped through the
    trajectory file on disk.
    """
    canonical = json.dumps(entry_artifacts, sort_keys=True, allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def append_run(
    trajectory_path: PathLike,
    results_dir: PathLike,
    artifacts: Sequence[str],
    *,
    label: Optional[str] = None,
    timestamp: Optional[str] = None,
) -> Tuple[Dict[str, object], bool]:
    """Fold one run's artifacts into the trajectory.

    Returns ``(entry, appended)``: the freshly appended entry and
    ``True``, or — when an existing run already carries the same label
    and the same artifacts digest — that existing entry and ``False``,
    with the document left untouched.
    """
    results_root = Path(results_dir)
    document = load_trajectory(trajectory_path)
    runs: List[dict] = document["runs"]  # type: ignore[assignment]
    entry_artifacts: Dict[str, object] = {}
    scales = set()
    for artifact in artifacts:
        path = results_root / artifact
        if not path.is_file():
            raise FileNotFoundError(
                f"cannot append trajectory entry: {path} is missing "
                "(run the suite first)"
            )
        envelope = load_artifact(path)
        scales.add(envelope.scale)
        entry_artifacts[artifact] = {
            "benchmark": envelope.benchmark,
            "scale": envelope.scale,
            "metrics": envelope.metrics,
        }
    if not entry_artifacts:
        raise ValueError("cannot append an empty trajectory entry (no artifacts)")
    digest = artifacts_digest(entry_artifacts)
    for run in runs:
        if run.get("label") == label and (
            artifacts_digest(run.get("artifacts", {})) == digest
        ):
            return dict(run), False
    entry = {
        "sequence": len(runs) + 1,
        "label": label,
        "timestamp": timestamp
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": scales.pop() if len(scales) == 1 else "mixed",
        "host": host_metadata(),
        "artifacts": entry_artifacts,
    }
    runs.append(entry)
    atomic_write_json(trajectory_path, document)
    return entry, True
