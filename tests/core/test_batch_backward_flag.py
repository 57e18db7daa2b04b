"""The ``batch_backward`` sampler flag: golden stream, parity, fallback.

``estimate()`` builds the sampler with the flag for
``EngineConfig(backend="charged")``; these tests pass it directly.

Routing the repetition loop through :func:`ws_bw_batch` legitimately
changes the RNG stream (K repetitions interleave their draws level by
level), so the flag is pinned by its own golden fixtures —
``fixtures/batch_backward_golden.json`` — rather than scalar parity.
At ``backward_repetitions=1`` the batch degenerates to K=1, which *is*
bit-exact with the scalar loop; that equivalence is asserted directly.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import WalkEstimateConfig
from repro.core.estimate import ProbabilityEstimator
from repro.core.walk_estimate import WalkEstimateSampler
from repro.graphs.generators import barabasi_albert_graph
from repro.markov.distributions import step_distributions
from repro.markov.matrix import TransitionMatrix
from repro.osn.api import SocialNetworkAPI
from repro.walks.batch import has_batch_kernel
from repro.walks.transitions import (
    BidirectionalWalk,
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)

FIXTURE = Path(__file__).parent / "fixtures" / "batch_backward_golden.json"

DESIGNS = {
    "srw": SimpleRandomWalk(),
    "mhrw": MetropolisHastingsWalk(),
}


@pytest.fixture(scope="module")
def golden():
    with FIXTURE.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def graph(golden):
    spec = golden["graph"]
    return barabasi_albert_graph(
        spec["nodes"], spec["m"], seed=spec["seed"]
    ).relabeled()


def _config(**overrides) -> WalkEstimateConfig:
    base = dict(
        diameter_hint=3,
        crawl_hops=1,
        backward_repetitions=6,
        refine_repetitions=2,
        calibration_walks=4,
    )
    base.update(overrides)
    return WalkEstimateConfig(**base)


class TestGoldenStream:
    """The flag's exact sampler output is pinned per design."""

    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    def test_sampler_reproduces_fixture(self, design_name, golden, graph):
        expected = golden[design_name]
        api = SocialNetworkAPI(graph)
        sampler = WalkEstimateSampler(
            DESIGNS[design_name], _config(), batch_backward=True
        )
        batch = sampler.sample(api, start=0, count=8, seed=123)
        report = sampler.last_report
        assert [int(n) for n in batch.nodes] == expected["sample_nodes"]
        assert batch.query_cost == expected["query_cost"]
        assert report.attempts == expected["attempts"]
        assert report.backward_steps == expected["backward_steps"]
        assert [
            r.estimated_probability for r in report.records
        ] == pytest.approx(expected["estimated_probabilities"])


class TestSingleRepetitionParity:
    """K=1 batched backward is bit-exact with the scalar loop."""

    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    def test_one_repetition_matches_scalar(self, design_name, graph):
        design = DESIGNS[design_name]
        t = 5
        estimates = {}
        for flag in (False, True):
            config = _config(
                walk_length=t,
                crawl_hops=0,
                backward_repetitions=1,
                refine_repetitions=0,
            )
            estimator = ProbabilityEstimator(
                graph, design, 0, t, config, seed=321, batch_backward=flag
            )
            estimates[flag] = estimator.estimate(7, refine=False).mean
        assert estimates[True] == estimates[False]


class TestFallback:
    def test_design_without_batched_transition_falls_back(self, graph):
        # BidirectionalWalk has no batched transition law; with the flag
        # on the estimator must silently run the scalar loop — producing
        # the exact flag-off stream.
        design = BidirectionalWalk()
        t = 4
        means = {}
        for flag in (False, True):
            config = _config(
                walk_length=t,
                crawl_hops=0,
                backward_repetitions=4,
                refine_repetitions=0,
            )
            estimator = ProbabilityEstimator(
                graph, design, 0, t, config, seed=11, batch_backward=flag
            )
            means[flag] = estimator.estimate(3, refine=False).mean
        assert means[True] == means[False]

    def test_has_batch_kernel_predicate(self):
        assert has_batch_kernel(SimpleRandomWalk())
        assert has_batch_kernel(MetropolisHastingsWalk())
        assert has_batch_kernel(MaxDegreeWalk(100))
        assert has_batch_kernel(LazyWalk(SimpleRandomWalk(), 0.5))
        assert not has_batch_kernel(BidirectionalWalk())
        assert not has_batch_kernel(LazyWalk(BidirectionalWalk(), 0.5))


class TestUnbiasedness:
    def test_batched_estimates_track_exact_probability(self, graph):
        # Mean of many batched realizations must approach the exact
        # p_t(candidate) — the same unbiasedness the scalar estimator
        # guarantees, preserved through the K-repetition routing.
        design = SimpleRandomWalk()
        t = 4
        candidate = 7
        matrix = TransitionMatrix(graph, design)
        exact = None
        for step, p_t in step_distributions(matrix, start=0, max_t=t):
            if step == t:
                exact = float(p_t[candidate])
        config = _config(
            walk_length=t,
            crawl_hops=0,
            backward_repetitions=400,
            refine_repetitions=0,
        )
        estimator = ProbabilityEstimator(
            graph, design, 0, t, config, seed=99, batch_backward=True
        )
        record = estimator.estimate(candidate, refine=False)
        assert record.count == 400
        assert record.mean == pytest.approx(exact, rel=0.35)

    def test_repetition_topup_counts(self, graph):
        config = _config(walk_length=4, crawl_hops=0, refine_repetitions=0)
        estimator = ProbabilityEstimator(
            graph, SimpleRandomWalk(), 0, 4, config, seed=5, batch_backward=True
        )
        record = estimator.estimate(7, repetitions=3, refine=False)
        assert record.count == 3
        record = estimator.estimate(7, refine=False)  # top up to base 6
        assert record.count == 6
        stats_steps = estimator.stats.walks
        assert stats_steps == 6
