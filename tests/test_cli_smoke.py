"""Smoke tests for the module entry point and the CLI's edge paths."""

import runpy
import sys

import pytest

from repro import cli
from repro._version import __version__
from repro.errors import ExperimentError


def test_python_dash_m_repro_version(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["repro", "--version"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module("repro", run_name="__main__")
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_python_dash_m_repro_list(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["repro", "list"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module("repro", run_name="__main__")
    assert excinfo.value.code == 0
    assert "figure6" in capsys.readouterr().out


def test_missing_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_experiment_raises_experiment_error():
    with pytest.raises(ExperimentError):
        cli.main(["run", "figure99"])


def test_datasets_all_names_listed(capsys):
    assert cli.main(["datasets", "--name", "exact_bias"]) == 0
    out = capsys.readouterr().out
    assert "exact_bias" in out


def test_broken_pipe_exits_quietly(monkeypatch):
    class _Out:
        def fileno(self):
            return 1

    def explode(argv):
        raise BrokenPipeError()

    closed = []
    monkeypatch.setattr(cli, "_dispatch", explode)
    monkeypatch.setattr(cli.sys, "stdout", _Out())
    monkeypatch.setattr("os.close", lambda fd: closed.append(fd))
    assert cli.main([]) == 0
    assert closed == [1]


def test_build_parser_round_trips_run_options(tmp_path):
    parser = cli.build_parser()
    args = parser.parse_args(
        ["run", "figure1", "--scale", "quick", "--seed", "3", "--csv", "x.csv"]
    )
    assert args.command == "run"
    assert args.experiment == "figure1"
    assert args.seed == 3
    assert str(args.csv) == "x.csv"


JOB_DOC = """
{
  "design": {"name": "mhrw"},
  "samples": 10,
  "start": 0,
  "tenant": "cli",
  "seed": 11,
  "walk": {"walk_length": 5, "crawl_hops": 0, "backward_repetitions": 3,
           "refine_repetitions": 0, "calibration_walks": 4},
  "engine": {"backend": "batch"}
}
"""


def _write_job(tmp_path, **engine):
    import json

    doc = json.loads(JOB_DOC)
    if engine:
        doc["engine"] = engine
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_estimate_from_job_file(tmp_path, capsys):
    path = _write_job(tmp_path)
    assert cli.main(["estimate", "--job", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ba_synthetic" in out
    assert "estimate" in out
    assert "10/10" in out


def test_estimate_json_output_round_trips(tmp_path, capsys):
    import json

    path = _write_job(tmp_path)
    assert cli.main(["estimate", "--job", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accepted"] == 10
    assert report["spec"]["engine"]["backend"] == "batch"
    assert report["query_cost"] == 0  # batch walks the known graph for free


def test_estimate_from_stdin(tmp_path, monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(JOB_DOC))
    assert cli.main(["estimate", "--job", "-"]) == 0
    assert "estimate" in capsys.readouterr().out


def test_estimate_is_deterministic_per_seed(tmp_path, capsys):
    import json

    path = _write_job(tmp_path)

    def run(seed):
        assert (
            cli.main(["estimate", "--job", str(path), "--json", "--seed", seed])
            == 0
        )
        return json.loads(capsys.readouterr().out)["estimate"]

    assert run("3") == run("3")
    assert run("3") != run("4")


def test_estimate_charged_backend_charges_queries(tmp_path, capsys):
    import json

    path = _write_job(tmp_path, backend="charged")
    assert cli.main(["estimate", "--job", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["query_cost"] > 0  # the charged engine pays per unique node


def test_estimate_rejects_malformed_spec(tmp_path):
    from repro.errors import ConfigurationError

    path = tmp_path / "bad.json"
    path.write_text('{"design": "no-such-walk"}', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="unknown design"):
        cli.main(["estimate", "--job", str(path)])


@pytest.mark.parametrize("n_workers", [None, 3])
def test_sharded_job_runs_its_shard_plan_in_process(monkeypatch, n_workers):
    import json

    import numpy as np

    from repro.core import EstimationJobSpec, dispatch
    from repro.datasets.registry import build_dataset
    from repro.walks import parallel

    def no_pool(*args, **kwargs):
        raise AssertionError("the CLI started a process pool")

    monkeypatch.setattr(parallel, "ShardedWalkEngine", no_pool)
    real_estimate = dispatch.estimate
    results = []

    def recorded(*args, **kwargs):
        results.append(real_estimate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(dispatch, "estimate", recorded)
    doc = json.loads(JOB_DOC)
    doc["engine"] = {"backend": "sharded", "n_workers": n_workers}
    spec = EstimationJobSpec.from_dict(doc)
    report = cli.run_job_spec(spec, seed=5)

    csr = build_dataset("ba_synthetic", seed=0).graph.compile()
    executor = parallel.InlineExecutor(csr, n_workers or 1)
    expected = real_estimate(spec, engine=executor, seed=5)
    (got,) = results
    for field in ("candidates", "estimates", "acceptance", "accepted"):
        assert np.array_equal(getattr(got.raw, field), getattr(expected.raw, field))
    assert report["accepted"] == expected.accepted
    assert report["attempts"] == expected.attempts
    assert report["walk_steps"] == expected.walk_steps
