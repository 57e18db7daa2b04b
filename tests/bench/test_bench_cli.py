"""The ``python -m repro.bench`` surface and the real-writer integration."""

import runpy
import sys
from pathlib import Path

import pytest

from repro.bench import SUITES, BenchJob, load_artifact, write_artifact
from repro.bench.cli import build_parser, main as bench_main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestParser:
    def test_requires_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_main([])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_known_subcommands(self):
        parser = build_parser()
        for argv in (
            ["run", "--suite", "smoke"],
            ["check", "--baseline", ".", "--json"],
            ["append", "--label", "x"],
        ):
            assert parser.parse_args(argv).command == argv[0]

    def test_python_dash_m_entry_point(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["repro.bench", "--help"])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_module("repro.bench", run_name="__main__")
        assert excinfo.value.code == 0
        assert "Regression-gating" in capsys.readouterr().out


class TestRunCommand:
    def test_run_reports_failures_with_exit_one(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "benchmarks").mkdir()
        monkeypatch.setitem(
            SUITES,
            "smoke",
            (BenchJob("ghost", "bench_ghost.py", "BENCH_ghost.json"),),
        )
        code = bench_main(
            [
                "run",
                "--out",
                str(tmp_path / "results"),
                "--bench-dir",
                str(tmp_path / "benchmarks"),
            ]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestCheckDefaults:
    def test_default_current_prefers_bench_results_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        record = {"benchmark": "stub", "query_cost": 3}
        monkeypatch.setitem(
            SUITES, "smoke", (BenchJob("stub", "s.py", "BENCH_stub.json"),)
        )
        write_artifact(record, tmp_path / "BENCH_stub.json", scale="smoke")
        results = tmp_path / "bench_results"
        results.mkdir()
        drifted = {"benchmark": "stub", "query_cost": 4}
        write_artifact(drifted, results / "BENCH_stub.json", scale="smoke")
        monkeypatch.chdir(tmp_path)
        assert bench_main(["check", "--baseline", str(tmp_path)]) == 1
        assert "query_cost" in capsys.readouterr().out

    def test_default_current_falls_back_to_baseline_dir(
        self, tmp_path, monkeypatch
    ):
        record = {"benchmark": "stub", "query_cost": 3}
        monkeypatch.setitem(
            SUITES, "smoke", (BenchJob("stub", "s.py", "BENCH_stub.json"),)
        )
        write_artifact(record, tmp_path / "BENCH_stub.json", scale="smoke")
        monkeypatch.chdir(tmp_path)
        # No bench_results/: the baseline tree is compared to itself.
        assert bench_main(["check", "--baseline", str(tmp_path)]) == 0


class TestWalkNotWaitForwarding:
    def test_bench_subcommand_forwards_to_the_harness(self, tmp_path, capsys):
        from repro import cli

        record = {"benchmark": "stub", "query_cost": 3}
        for artifact in ("BENCH_stub.json",):
            write_artifact(record, tmp_path / artifact, scale="smoke")
        # Self-comparison through the top-level CLI: artifact list comes
        # from the real suite, so point both sides at the repo root.
        code = cli.main(
            [
                "bench",
                "check",
                "--baseline",
                str(REPO_ROOT),
                "--current",
                str(REPO_ROOT),
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_bench_subcommand_propagates_exit_codes(self, tmp_path, monkeypatch):
        from repro import cli

        # Without --current, check reads ./bench_results when it exists.
        monkeypatch.chdir(tmp_path)
        assert (
            cli.main(["bench", "check", "--baseline", str(tmp_path / "empty")])
            != 0
        )


class TestRealWriterIntegration:
    def test_throughput_writer_emits_a_smoke_envelope(self, tmp_path):
        # One real writer, tiny budget, through the real runner: proves
        # the bench CLIs and the envelope schema stay wired together.
        from repro.bench import run_suite

        job = BenchJob(
            "throughput",
            "bench_throughput.py",
            "BENCH_throughput.json",
            ("--quick",),
        )
        out = tmp_path / "results"
        produced = run_suite(
            [job],
            out,
            bench_dir=REPO_ROOT / "benchmarks",
            echo=lambda _: None,
        )
        envelope = load_artifact(produced[0])
        assert envelope.benchmark == "walk_throughput"
        assert envelope.scale == "smoke"
        # Wall-clock rates stay in the record's timing blocks, out of
        # the exactly compared metrics.
        scalar = envelope.record["designs"]["srw"]["scalar"]
        assert scalar["timing"]["steps_per_sec"] > 0
        assert envelope.metrics["designs.srw.scalar.walks"] == scalar["walks"]
        assert not any("per_sec" in key for key in envelope.metrics)
