"""Diff fresh benchmark envelopes against committed baselines.

:func:`check_directories` is the regression gate: for every artifact in
the suite it loads the committed baseline and the fresh run, compares
every flat metric exactly, and folds everything into one
:class:`CheckReport` whose :attr:`~CheckReport.ok` decides the process
exit code.  Wall-clock numbers never reach it: writers keep them under
``timing`` keys, which the envelope leaves out of the metric map.  The
report renders as a readable per-metric table — the thing a developer
stares at when CI goes red.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.bench.io import PathLike
from repro.bench.schema import Envelope, load_artifact

FAIL = "fail"
WARN = "warn"
INFO = "info"


@dataclass(frozen=True)
class MetricDiff:
    """One reportable difference (or structural problem)."""

    artifact: str
    key: str
    kind: str  # "exact" | "presence" | "structure"
    severity: str  # FAIL | WARN | INFO
    baseline: Optional[object]
    current: Optional[object]
    message: str

    def render(self) -> str:
        label = f"{self.severity.upper():4s} {self.kind:8s}"
        if self.key:
            return f"  {label} {self.key}: {self.message}"
        return f"  {label} {self.message}"


@dataclass
class ArtifactReport:
    """The comparison outcome for one ``BENCH_*.json``."""

    artifact: str
    diffs: List[MetricDiff] = field(default_factory=list)
    compared: int = 0
    scale: Optional[str] = None

    def add(
        self,
        key: str,
        kind: str,
        severity: str,
        message: str,
        baseline: Optional[object] = None,
        current: Optional[object] = None,
    ) -> None:
        self.diffs.append(
            MetricDiff(self.artifact, key, kind, severity, baseline, current, message)
        )

    @property
    def failures(self) -> List[MetricDiff]:
        return [d for d in self.diffs if d.severity == FAIL]

    @property
    def warnings(self) -> List[MetricDiff]:
        return [d for d in self.diffs if d.severity == WARN]


@dataclass
class CheckReport:
    """Every artifact's report plus the run-level verdict."""

    baseline_dir: Path
    current_dir: Path
    artifacts: List[ArtifactReport] = field(default_factory=list)

    @property
    def failures(self) -> List[MetricDiff]:
        return [d for report in self.artifacts for d in report.failures]

    @property
    def warnings(self) -> List[MetricDiff]:
        return [d for report in self.artifacts for d in report.warnings]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines: List[str] = []
        for report in self.artifacts:
            lines.append(f"== {report.artifact} ==")
            lines.append(
                f"  compared {report.compared} metrics; "
                f"scale={report.scale or 'unknown'}"
            )
            for diff in report.diffs:
                lines.append(diff.render())
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"repro.bench check: {verdict} — {len(self.failures)} failure(s), "
            f"{len(self.warnings)} warning(s) across "
            f"{len(self.artifacts)} artifact(s) "
            f"(baseline={self.baseline_dir}, current={self.current_dir})"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "baseline_dir": str(self.baseline_dir),
            "current_dir": str(self.current_dir),
            "artifacts": [
                {
                    "artifact": report.artifact,
                    "scale": report.scale,
                    "compared": report.compared,
                    "diffs": [
                        {
                            "key": d.key,
                            "kind": d.kind,
                            "severity": d.severity,
                            "baseline": d.baseline,
                            "current": d.current,
                            "message": d.message,
                        }
                        for d in report.diffs
                    ],
                }
                for report in self.artifacts
            ],
        }


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return repr(value)


def compare_envelopes(
    artifact: str, baseline: Envelope, current: Envelope
) -> ArtifactReport:
    """Diff one baseline/current envelope pair, every metric exactly."""
    report = ArtifactReport(artifact=artifact)
    report.scale = current.scale or baseline.scale

    if (
        baseline.scale is not None
        and current.scale is not None
        and baseline.scale != current.scale
    ):
        report.add(
            "",
            "structure",
            FAIL,
            f"scale mismatch: baseline={baseline.scale!r} "
            f"current={current.scale!r} — records are not comparable; "
            "regenerate the baseline at the suite's pinned scale",
        )
        return report
    if baseline.benchmark != current.benchmark:
        report.add(
            "",
            "structure",
            FAIL,
            f"benchmark name changed: {baseline.benchmark!r} -> "
            f"{current.benchmark!r}",
        )
        return report

    for key in sorted(set(baseline.metrics) | set(current.metrics)):
        in_base = key in baseline.metrics
        in_current = key in current.metrics
        if in_base and not in_current:
            report.add(
                key,
                "presence",
                FAIL,
                f"metric disappeared (baseline {_format_value(baseline.metrics[key])})",
                baseline=baseline.metrics[key],
            )
            continue
        if in_current and not in_base:
            report.add(
                key,
                "presence",
                WARN,
                f"new metric with no baseline "
                f"(current {_format_value(current.metrics[key])})",
                current=current.metrics[key],
            )
            continue
        base_value = baseline.metrics[key]
        cur_value = current.metrics[key]
        report.compared += 1
        if base_value != cur_value or (
            isinstance(base_value, bool) is not isinstance(cur_value, bool)
        ):
            report.add(
                key,
                "exact",
                FAIL,
                f"deterministic metric drifted: "
                f"{_format_value(base_value)} -> {_format_value(cur_value)}",
                baseline=base_value,
                current=cur_value,
            )
    return report


def check_directories(
    baseline_dir: PathLike, current_dir: PathLike, artifacts: Sequence[str]
) -> CheckReport:
    """Compare every named artifact between two directories.

    A missing baseline *file* only warns — that is how a new writer is
    introduced — but a missing baseline *directory* fails: it would
    otherwise turn the whole gate into a warning-only no-op.
    """
    baseline_root = Path(baseline_dir)
    current_root = Path(current_dir)
    report = CheckReport(baseline_dir=baseline_root, current_dir=current_root)
    for artifact in artifacts:
        entry = ArtifactReport(artifact=artifact)
        baseline_path = baseline_root / artifact
        current_path = current_root / artifact
        if not current_path.is_file():
            entry.add(
                "",
                "presence",
                FAIL,
                f"current run produced no {artifact} (expected at {current_path})",
            )
        elif not baseline_root.is_dir():
            entry.add(
                "",
                "presence",
                FAIL,
                f"baseline directory {baseline_root} does not exist",
            )
        elif not baseline_path.is_file():
            entry.add(
                "",
                "presence",
                WARN,
                f"no committed baseline at {baseline_path}; commit the fresh "
                "artifact to start gating this benchmark",
            )
        else:
            entry = compare_envelopes(
                artifact, load_artifact(baseline_path), load_artifact(current_path)
            )
        report.artifacts.append(entry)
    return report
