"""The per-PR trajectory time series (``BENCH_TRAJECTORY.json``)."""

import json

import pytest

from repro.bench import append_run, load_trajectory, write_artifact
from repro.bench.cli import main as bench_main

RECORD = {"benchmark": "stub", "query_cost": 10, "timing": {"steps_per_sec": 5.0}}


@pytest.fixture
def results(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    write_artifact(RECORD, directory / "BENCH_stub.json", scale="smoke")
    return directory


class TestAppendRun:
    def test_first_append_creates_the_document(self, tmp_path, results):
        trajectory = tmp_path / "BENCH_TRAJECTORY.json"
        entry, appended = append_run(
            trajectory,
            results,
            ["BENCH_stub.json"],
            label="pr-7",
            timestamp="2026-08-07T00:00:00+00:00",
        )
        assert appended
        assert entry["sequence"] == 1
        assert entry["label"] == "pr-7"
        assert entry["scale"] == "smoke"
        doc = json.loads(trajectory.read_text())
        assert doc["schema_version"] == 1
        metrics = doc["runs"][0]["artifacts"]["BENCH_stub.json"]["metrics"]
        assert metrics == {"query_cost": 10}

    def test_appends_grow_the_series_in_order(self, tmp_path, results):
        # Distinct labels = distinct runs, even over identical artifacts.
        trajectory = tmp_path / "BENCH_TRAJECTORY.json"
        for expected in (1, 2, 3):
            entry, appended = append_run(
                trajectory, results, ["BENCH_stub.json"], label=f"pr-{expected}"
            )
            assert appended
            assert entry["sequence"] == expected
        assert len(load_trajectory(trajectory)["runs"]) == 3

    def test_mixed_scales_are_labelled_mixed(self, tmp_path, results):
        write_artifact(RECORD, results / "BENCH_full.json", scale="full")
        entry, _ = append_run(
            tmp_path / "t.json", results, ["BENCH_stub.json", "BENCH_full.json"]
        )
        assert entry["scale"] == "mixed"

    def test_missing_artifact_fails_without_touching_the_file(
        self, tmp_path, results
    ):
        trajectory = tmp_path / "BENCH_TRAJECTORY.json"
        append_run(trajectory, results, ["BENCH_stub.json"])
        before = trajectory.read_text()
        with pytest.raises(FileNotFoundError, match="BENCH_ghost.json"):
            append_run(trajectory, results, ["BENCH_stub.json", "BENCH_ghost.json"])
        assert trajectory.read_text() == before

    def test_corrupt_trajectory_fails_loudly(self, tmp_path, results):
        trajectory = tmp_path / "BENCH_TRAJECTORY.json"
        trajectory.write_text('{"something": "else"}')
        with pytest.raises(ValueError, match="trajectory"):
            append_run(trajectory, results, ["BENCH_stub.json"])

    def test_empty_artifact_list_is_rejected(self, tmp_path, results):
        with pytest.raises(ValueError, match="empty"):
            append_run(tmp_path / "t.json", results, [])


class TestAppendIdempotence:
    """A re-run CI job replaying the same append must not duplicate runs."""

    def test_same_label_same_results_skips(self, tmp_path, results):
        trajectory = tmp_path / "BENCH_TRAJECTORY.json"
        first, appended = append_run(
            trajectory, results, ["BENCH_stub.json"], label="ci-abc"
        )
        assert appended
        before = trajectory.read_text()
        again, appended = append_run(
            trajectory, results, ["BENCH_stub.json"], label="ci-abc"
        )
        assert not appended
        assert again["sequence"] == first["sequence"] == 1
        # The skip leaves the document byte-identical — no rewrite at all.
        assert trajectory.read_text() == before
        assert len(load_trajectory(trajectory)["runs"]) == 1

    def test_rerun_differing_only_in_timing_skips(self, tmp_path, results):
        # A re-run of unchanged code measures new wall-clock numbers; they
        # live in the record's timing block, so the digest is unchanged.
        trajectory = tmp_path / "BENCH_TRAJECTORY.json"
        append_run(trajectory, results, ["BENCH_stub.json"], label="ci-abc")
        write_artifact(
            {**RECORD, "timing": {"steps_per_sec": 15.0}},
            results / "BENCH_stub.json",
            scale="smoke",
        )
        _, appended = append_run(
            trajectory, results, ["BENCH_stub.json"], label="ci-abc"
        )
        assert not appended
        assert len(load_trajectory(trajectory)["runs"]) == 1

    def test_different_label_appends_over_identical_results(
        self, tmp_path, results
    ):
        trajectory = tmp_path / "BENCH_TRAJECTORY.json"
        append_run(trajectory, results, ["BENCH_stub.json"], label="ci-abc")
        entry, appended = append_run(
            trajectory, results, ["BENCH_stub.json"], label="ci-def"
        )
        assert appended
        assert entry["sequence"] == 2

    def test_changed_results_append_under_the_same_label(self, tmp_path, results):
        trajectory = tmp_path / "BENCH_TRAJECTORY.json"
        append_run(trajectory, results, ["BENCH_stub.json"], label="ci-abc")
        write_artifact(
            {**RECORD, "query_cost": 11},
            results / "BENCH_stub.json",
            scale="smoke",
        )
        entry, appended = append_run(
            trajectory, results, ["BENCH_stub.json"], label="ci-abc"
        )
        assert appended
        assert entry["sequence"] == 2

    def test_cli_reports_the_skip(self, tmp_path, monkeypatch, capsys, results):
        monkeypatch.setattr(
            "repro.bench.cli.suite_artifacts", lambda suite: ["BENCH_stub.json"]
        )
        trajectory = tmp_path / "BENCH_TRAJECTORY.json"
        argv = [
            "append",
            "--results",
            str(results),
            "--trajectory",
            str(trajectory),
            "--label",
            "ci",
        ]
        assert bench_main(argv) == 0
        capsys.readouterr()
        assert bench_main(argv) == 0
        out = capsys.readouterr().out
        assert "skipped duplicate of run #1" in out
        assert len(load_trajectory(trajectory)["runs"]) == 1


class TestAppendCli:
    def test_append_subcommand_uses_the_suite_artifact_list(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "repro.bench.cli.suite_artifacts", lambda suite: ["BENCH_stub.json"]
        )
        results = tmp_path / "results"
        results.mkdir()
        write_artifact(RECORD, results / "BENCH_stub.json", scale="smoke")
        trajectory = tmp_path / "BENCH_TRAJECTORY.json"
        code = bench_main(
            [
                "append",
                "--results",
                str(results),
                "--trajectory",
                str(trajectory),
                "--label",
                "ci",
            ]
        )
        assert code == 0
        assert "run #1" in capsys.readouterr().out
        assert load_trajectory(trajectory)["runs"][0]["label"] == "ci"

    def test_append_without_results_exits_nonzero(self, tmp_path, capsys):
        code = bench_main(
            [
                "append",
                "--results",
                str(tmp_path / "nowhere"),
                "--trajectory",
                str(tmp_path / "t.json"),
            ]
        )
        assert code == 1
        assert "missing" in capsys.readouterr().err
