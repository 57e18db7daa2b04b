"""Scalar and charged jobs report every accept/reject decision they made.

A ``SampleBatch`` keeps only accepted samples, so ``EstimateResult`` used
to report the accepted count as the attempts and 1.0 as the acceptance
rate for every scalar, charged and scalar long-run job.  The samplers now
record their attempts on the batch; these tests count the decisions the
rejection sampler actually took and check ``estimate()`` and
``walk-not-wait estimate`` against them.
"""

import json

import pytest

import repro
from repro import cli
from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig
from repro.core.rejection import RejectionSampler
from repro.core.walk_estimate import WalkEstimateSampler
from repro.datasets import build_dataset
from repro.osn.api import SocialNetworkAPI

#: The charged benchmark workload's walk settings.
CHARGED_WALK = WalkEstimateConfig(
    crawl_hops=1, diameter_hint=4, backward_repetitions=6, calibration_walks=10
)
#: Short segments and a low percentile, so long runs reject too.
LONG_RUN_WALK = WalkEstimateConfig(
    walk_length=2, backward_repetitions=8, calibration_walks=10, scale_percentile=1.0
)
JOBS = {
    "scalar": EstimationJobSpec(
        design="srw", samples=10, walk=CHARGED_WALK, engine=EngineConfig("scalar")
    ),
    "charged": EstimationJobSpec(
        design="srw", samples=10, walk=CHARGED_WALK, engine=EngineConfig("charged")
    ),
    "scalar-long-run": EstimationJobSpec(
        design="mhrw",
        samples=10,
        walk=LONG_RUN_WALK,
        engine=EngineConfig("scalar", long_run=True),
    ),
}
SEED = 3


@pytest.fixture(scope="module")
def yelp():
    return build_dataset("yelp", seed=42).graph


@pytest.fixture
def decisions(monkeypatch):
    """Every accept/reject decision taken while the test runs."""
    made = []
    accept = RejectionSampler.accept

    def counted(self, estimated_p, target_weight):
        made.append(accept(self, estimated_p, target_weight))
        return made[-1]

    monkeypatch.setattr(RejectionSampler, "accept", counted)
    return made


@pytest.mark.parametrize("job", sorted(JOBS))
def test_estimate_reports_every_decision(yelp, decisions, job):
    result = repro.estimate(JOBS[job], api=SocialNetworkAPI(yelp), seed=SEED)
    assert result.accepted == sum(decisions) == 10
    assert result.attempts == len(decisions) > result.accepted
    assert result.acceptance_rate == sum(decisions) / len(decisions)


@pytest.mark.parametrize("job", ["scalar", "charged"])
def test_estimate_agrees_with_the_sampler_report(yelp, job):
    spec = JOBS[job]
    result = repro.estimate(spec, api=SocialNetworkAPI(yelp), seed=SEED)
    sampler = WalkEstimateSampler(
        spec.build_design(), spec.walk, batch_backward=job == "charged"
    )
    sampler.sample(SocialNetworkAPI(yelp), spec.start, spec.samples, seed=SEED)
    assert result.attempts == sampler.last_report.attempts
    assert result.acceptance_rate == sampler.last_report.acceptance_rate


@pytest.mark.parametrize("job", sorted(JOBS))
def test_cli_prints_every_decision(tmp_path, capsys, decisions, job):
    path = tmp_path / "job.json"
    path.write_text(JOBS[job].to_json(), encoding="utf-8")
    args = ["estimate", "--job", str(path), "--dataset", "yelp"]
    args += ["--dataset-seed", "42", "--seed", str(SEED)]
    assert cli.main(args + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accepted"] == sum(decisions) == 10
    assert report["attempts"] == len(decisions) > 10
    assert report["acceptance_rate"] == sum(decisions) / len(decisions)
    decisions.clear()
    assert cli.main(args) == 0
    assert f"accepted         10/{report['attempts']}" in capsys.readouterr().out
    assert len(decisions) == report["attempts"]
