"""The regression gate itself, driven through synthetic artifact fixtures.

These are the acceptance fixtures from the harness's contract: a clean
current-vs-baseline run exits 0; a 1-query query-cost drift exits
non-zero with a readable per-metric diff; every metric compares exactly,
whatever its name or host; and values a writer declares under ``timing``
never gate.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import (
    check_directories,
    compare_envelopes,
    flatten_metrics,
    load_artifact,
    make_envelope,
    suite_artifacts,
    write_artifact,
)
from repro.bench.cli import main as bench_main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: One synthetic record shaped like the real suite's output: metrics
#: (query cost, simulated clock, counts, a speedup of simulated seconds,
#: a config value in seconds) plus wall-clock numbers under ``timing``.
BASE_RECORD = {
    "benchmark": "synthetic_suite",
    "graph": {"model": "barabasi_albert", "nodes": 500, "seed": 42},
    "serial": {
        "simulated_seconds": 94.5,
        "query_cost": 1500,
        "timing": {"real_seconds": 0.05},
    },
    "pipeline": {"4": {"simulated_seconds": 40.25, "speedup_vs_serial": 2.35}},
    "policy": {"circuit_reset_seconds": 300.0},
    "designs": {
        "srw": {
            "scalar": {"walks": 200, "timing": {"steps_per_sec": 700000.0}},
            "batch": {
                "walks": 200,
                "timing": {"steps_per_sec": 33000000.0, "speedup_vs_scalar": 47.1},
            },
        }
    },
}

HOST_A = {"cpu_count": 1, "pid_cpu_count": 1, "platform": "linux-x86_64"}
HOST_B = {"cpu_count": 8, "pid_cpu_count": 8, "platform": "linux-x86_64"}

ARTIFACTS = ["BENCH_synthetic.json"]


def _write(directory, record, host=HOST_A, scale="smoke", name=ARTIFACTS[0]):
    directory.mkdir(parents=True, exist_ok=True)
    return write_artifact(record, directory / name, scale=scale, host=host)


def _check_cli(baseline, current, *extra):
    return bench_main(
        ["check", "--baseline", str(baseline), "--current", str(current), *extra]
    )


def _timing_blocks(value):
    """Every ``timing`` dict nested anywhere in *value*."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "timing":
                yield item
            else:
                yield from _timing_blocks(item)
    elif isinstance(value, list):
        for item in value:
            yield from _timing_blocks(item)


def _numeric_leaves(value, path=()):
    """``(path, container, key)`` for every non-bool number in *value*."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        if isinstance(item, (dict, list)):
            yield from _numeric_leaves(item, path + (str(key),))
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            yield path + (str(key),), value, key


@pytest.fixture
def synthetic_suite(monkeypatch):
    """Point the ``check`` CLI at the synthetic artifact instead of the
    real six-writer suite, so fixtures only have to provide one file."""
    monkeypatch.setattr(
        "repro.bench.cli.suite_artifacts", lambda suite: ARTIFACTS
    )


@pytest.fixture
def dirs(tmp_path, synthetic_suite):
    baseline, current = tmp_path / "baseline", tmp_path / "current"
    _write(baseline, BASE_RECORD)
    return baseline, current


class TestCleanRun:
    def test_identical_records_pass(self, dirs):
        baseline, current = dirs
        _write(current, copy.deepcopy(BASE_RECORD))
        report = check_directories(baseline, current, ARTIFACTS)
        assert report.ok
        assert report.failures == []

    @pytest.mark.parametrize("factor", [3.0, 1 / 3], ids=["3x", "third"])
    def test_timing_blocks_never_gate(self, dirs, factor):
        baseline, current = dirs
        record = copy.deepcopy(BASE_RECORD)
        for block in _timing_blocks(record):
            for key in block:
                block[key] *= factor
        written = _write(current, record)
        report = check_directories(baseline, current, ARTIFACTS)
        assert report.ok and report.warnings == []
        # Timing values stay in the record and never reach the metrics.
        assert written.record["serial"]["timing"]["real_seconds"] > 0
        assert not any("timing" in key for key in written.metrics)
        assert "serial.query_cost" in written.metrics

    @pytest.mark.parametrize(
        "host",
        [
            HOST_B,
            {**HOST_A, "kernel_backend": "numba"},
            {**HOST_A, "python": "3.99.0"},
            {**HOST_A, "platform": "darwin-arm64"},
            {},
        ],
        ids=["cpu_count", "kernel_backend", "python", "platform", "empty"],
    )
    def test_host_block_never_changes_the_verdict(self, dirs, host):
        # The host block says where timing blocks were measured; it is
        # neither compared nor a reason to compare anything differently.
        baseline, current = dirs
        written = _write(current, copy.deepcopy(BASE_RECORD), host=host)
        report = check_directories(baseline, current, ARTIFACTS)
        assert report.ok and report.warnings == []
        assert report.artifacts[0].compared == len(written.metrics)


def _compare_values(base_value, cur_value):
    def envelope(value):
        record = {"benchmark": "b", "value": value}
        return make_envelope(record, scale="smoke", host=HOST_A)

    return compare_envelopes("BENCH_b.json", envelope(base_value), envelope(cur_value))


class TestExactRule:
    @pytest.mark.parametrize(
        "base_value, cur_value",
        [(1500, 1500), (94.5, 94.5), (True, True), (0, 0)],
        ids=["int", "float", "bool", "zero"],
    )
    def test_equal_values_pass(self, base_value, cur_value):
        report = _compare_values(base_value, cur_value)
        assert report.diffs == [] and report.compared == 1

    @pytest.mark.parametrize(
        "base_value, cur_value",
        [
            (94.5, 94.5 + 1e-9),
            (1500, 1501),
            (True, False),
            (True, 1),
            (0, False),
        ],
        ids=["float", "int", "bool-flip", "bool-vs-int", "int-vs-bool"],
    )
    def test_any_difference_fails(self, base_value, cur_value):
        # No band: a value either matches exactly or the gate fails.
        report = _compare_values(base_value, cur_value)
        assert [(d.key, d.kind, d.severity) for d in report.diffs] == [
            ("value", "exact", "fail")
        ]
        diff = report.diffs[0]
        assert (diff.baseline, diff.current) == (base_value, cur_value)


class TestDeterministicDrift:
    def test_one_query_cost_drift_fails(self, dirs, capsys):
        baseline, current = dirs
        record = copy.deepcopy(BASE_RECORD)
        record["serial"]["query_cost"] += 1  # off by a single query
        _write(current, record)
        assert _check_cli(baseline, current) == 1
        out = capsys.readouterr().out
        # The diff must name the metric and both values, readably.
        assert "serial.query_cost" in out
        assert "1500" in out and "1501" in out
        assert "FAIL" in out

    def test_simulated_clock_drift_fails(self, dirs):
        baseline, current = dirs
        record = copy.deepcopy(BASE_RECORD)
        record["serial"]["simulated_seconds"] += 0.25
        _write(current, record)
        report = check_directories(baseline, current, ARTIFACTS)
        assert not report.ok
        assert [d.key for d in report.failures] == ["serial.simulated_seconds"]

    def test_deterministic_drift_fails_even_across_hosts(self, dirs):
        # The host block is context, never a reason to excuse a drift.
        baseline, current = dirs
        record = copy.deepcopy(BASE_RECORD)
        record["serial"]["query_cost"] -= 1
        _write(current, record, host=HOST_B)
        report = check_directories(baseline, current, ARTIFACTS)
        assert not report.ok

    @pytest.mark.parametrize(
        "path, value",
        [
            # A ratio of simulated seconds, raised by 50%.
            (("pipeline", "4", "speedup_vs_serial"), 2.35 * 1.5),
            # A config value copied into the record.
            (("policy", "circuit_reset_seconds"), 250.0),
        ],
        ids=["speedup_vs_serial", "circuit_reset_seconds"],
    )
    def test_names_that_look_like_timing_compare_exactly(self, dirs, path, value):
        baseline, current = dirs
        record = copy.deepcopy(BASE_RECORD)
        *parents, leaf = path
        block = record
        for key in parents:
            block = block[key]
        block[leaf] = value
        _write(current, record)
        report = check_directories(baseline, current, ARTIFACTS)
        assert [d.key for d in report.failures] == [".".join(path)]
        assert _check_cli(baseline, current) == 1


class TestRejectedOptions:
    @pytest.mark.parametrize(
        "option",
        [
            ["--timing", "warn"],
            ["--tolerance", "0.2"],
            ["--min-timing-seconds", "0"],
        ],
        ids=["timing", "tolerance", "min-timing-seconds"],
    )
    def test_check_rejects_the_timing_band_options(self, dirs, capsys, option):
        baseline, current = dirs
        with pytest.raises(SystemExit) as excinfo:
            _check_cli(baseline, current, *option)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestStructuralProblems:
    def test_missing_current_artifact_fails(self, dirs, capsys):
        baseline, current = dirs
        current.mkdir()
        assert _check_cli(baseline, current) == 1
        assert "produced no" in capsys.readouterr().out

    def test_missing_baseline_warns_but_passes(
        self, tmp_path, synthetic_suite, capsys
    ):
        baseline, current = tmp_path / "baseline", tmp_path / "current"
        baseline.mkdir()
        _write(current, BASE_RECORD)
        assert _check_cli(baseline, current) == 0
        assert "no committed baseline" in capsys.readouterr().out

    def test_missing_baseline_directory_fails(self, tmp_path, synthetic_suite, capsys):
        # A mistyped --baseline must not turn the gate into a no-op.
        baseline, current = tmp_path / "no-such-dir", tmp_path / "current"
        _write(current, BASE_RECORD)
        report = check_directories(baseline, current, ARTIFACTS)
        assert not report.ok
        assert "does not exist" in report.failures[0].message
        assert _check_cli(baseline, current) == 1
        assert "no-such-dir does not exist" in capsys.readouterr().out

    def test_scale_mismatch_fails(self, dirs):
        baseline, current = dirs
        _write(current, copy.deepcopy(BASE_RECORD), scale="full")
        report = check_directories(baseline, current, ARTIFACTS)
        assert not report.ok
        assert "scale mismatch" in report.failures[0].message

    def test_metric_disappearance_fails_new_metric_warns(self, dirs):
        baseline, current = dirs
        record = copy.deepcopy(BASE_RECORD)
        del record["designs"]["srw"]["scalar"]["walks"]
        record["designs"]["srw"]["scalar"]["new_counter"] = 7
        _write(current, record)
        report = check_directories(baseline, current, ARTIFACTS)
        assert [d.key for d in report.failures] == ["designs.srw.scalar.walks"]
        assert any(
            d.key == "designs.srw.scalar.new_counter" for d in report.warnings
        )

    def test_benchmark_rename_fails(self, dirs):
        baseline, current = dirs
        record = copy.deepcopy(BASE_RECORD)
        record["benchmark"] = "renamed_suite"
        _write(current, record)
        report = check_directories(baseline, current, ARTIFACTS)
        assert not report.ok
        assert "benchmark name changed" in report.failures[0].message

    def test_bare_record_baseline_fails_loudly(self, tmp_path):
        baseline, current = tmp_path / "baseline", tmp_path / "current"
        baseline.mkdir()
        (baseline / ARTIFACTS[0]).write_text(json.dumps(BASE_RECORD))
        _write(current, copy.deepcopy(BASE_RECORD))
        with pytest.raises(ValueError, match="schema_version"):
            check_directories(baseline, current, ARTIFACTS)


class TestReportSurface:
    def test_json_report_mode(self, dirs, capsys):
        baseline, current = dirs
        record = copy.deepcopy(BASE_RECORD)
        record["serial"]["query_cost"] += 1
        _write(current, record)
        assert _check_cli(baseline, current, "--json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        diffs = doc["artifacts"][0]["diffs"]
        assert any(d["key"] == "serial.query_cost" for d in diffs)

    def test_json_report_carries_only_the_exact_rule_fields(self, dirs, capsys):
        baseline, current = dirs
        written = _write(current, copy.deepcopy(BASE_RECORD), host=HOST_B)
        assert _check_cli(baseline, current, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        (entry,) = doc["artifacts"]
        assert set(entry) == {"artifact", "scale", "compared", "diffs"}
        assert entry["compared"] == len(written.metrics)
        assert entry["diffs"] == []

    def test_render_summarizes_compared_counts(self, dirs):
        baseline, current = dirs
        written = _write(current, copy.deepcopy(BASE_RECORD))
        report = check_directories(baseline, current, ARTIFACTS)
        text = report.render()
        assert "PASS" in text
        assert f"compared {len(written.metrics)} metrics" in text


class TestCommittedBaselines:
    """The acceptance criterion against the real repository tree."""

    def test_clean_tree_self_check_exits_zero(self, capsys):
        # `repro.bench check --baseline .` on a clean tree: every
        # committed artifact equals itself, so the gate passes.
        assert (
            bench_main(
                [
                    "check",
                    "--baseline",
                    str(REPO_ROOT),
                    "--current",
                    str(REPO_ROOT),
                ]
            )
            == 0
        )
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("artifact", suite_artifacts("smoke"))
    def test_stored_metrics_are_the_flattened_record(self, artifact):
        # The gate diffs the stored map; it must be what the record says.
        envelope = load_artifact(REPO_ROOT / artifact)
        assert envelope.metrics == flatten_metrics(envelope.record)

    @pytest.mark.parametrize("artifact", suite_artifacts("smoke"))
    def test_writer_declares_its_wall_clock_numbers(self, artifact):
        envelope = load_artifact(REPO_ROOT / artifact)
        blocks = list(_timing_blocks(envelope.record))
        assert blocks, f"{artifact} declares no timing block"
        for block in blocks:
            values = [box[key] for _, box, key in _numeric_leaves(block)]
            assert values and all(value >= 0 for value in values)

    @pytest.mark.parametrize("artifact", suite_artifacts("smoke"))
    def test_no_metric_shares_a_name_with_a_declared_timing(self, artifact):
        # A leaf name some writer declares as wall-clock must not also be
        # gated exactly elsewhere: that would be a timing left behind.
        timing_names = set()
        for name in suite_artifacts("smoke"):
            record = load_artifact(REPO_ROOT / name).record
            for block in _timing_blocks(record):
                timing_names |= {path[-1] for path, _, _ in _numeric_leaves(block)}
        metrics = load_artifact(REPO_ROOT / artifact).metrics
        assert {key.rsplit(".", 1)[-1] for key in metrics} & timing_names == set()

    @pytest.mark.parametrize("artifact", suite_artifacts("smoke"))
    def test_timing_drift_in_a_real_record_passes(self, tmp_path, artifact):
        committed = load_artifact(REPO_ROOT / artifact)
        record = copy.deepcopy(committed.record)
        for block in _timing_blocks(record):
            for _, container, key in list(_numeric_leaves(block)):
                container[key] *= 3
        write_artifact(
            record, tmp_path / artifact, scale=committed.scale, host=committed.host
        )
        report = check_directories(REPO_ROOT, tmp_path, [artifact])
        assert report.ok and report.warnings == []
        assert report.artifacts[0].compared == len(committed.metrics)

    @pytest.mark.parametrize("artifact", suite_artifacts("smoke"))
    def test_one_deterministic_drift_in_a_real_record_fails(self, tmp_path, artifact):
        committed = load_artifact(REPO_ROOT / artifact)
        record = copy.deepcopy(committed.record)
        path, container, key = next(
            leaf
            for leaf in _numeric_leaves(record)
            if ".".join(leaf[0]) in committed.metrics
        )
        container[key] += 1
        write_artifact(
            record, tmp_path / artifact, scale=committed.scale, host=committed.host
        )
        report = check_directories(REPO_ROOT, tmp_path, [artifact])
        assert [d.key for d in report.failures] == [".".join(path)]

    def test_committed_artifacts_are_normalized_envelopes(self):
        for artifact in suite_artifacts("smoke"):
            doc = json.loads((REPO_ROOT / artifact).read_text())
            assert doc.get("schema_version") == 1, artifact
            assert doc.get("scale") == "smoke", artifact
            assert "cpu_count" in doc.get("host", {}), artifact
            assert isinstance(doc.get("metrics"), dict) and doc["metrics"], artifact
