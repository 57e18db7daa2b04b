"""The §6.1 future-work sampler: WALK-ESTIMATE over one long run."""

import numpy as np
import pytest

from repro.core.config import WalkEstimateConfig
from repro.core.long_run_we import (
    LongRunWalkEstimateSampler,
    long_run_walk_estimate_batch,
)
from repro.errors import ConfigurationError
from repro.estimators.metrics import empirical_distribution, l_infinity_bias
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.accounting import QueryBudget
from repro.osn.api import SocialNetworkAPI
from repro.walks.transitions import (
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)


@pytest.fixture
def graph():
    return barabasi_albert_graph(120, 4, seed=21).relabeled()


@pytest.fixture
def config():
    return WalkEstimateConfig(
        walk_length=5,
        backward_repetitions=8,
        calibration_walks=5,
    )


def test_collects_requested_count(graph, config):
    api = SocialNetworkAPI(graph)
    sampler = LongRunWalkEstimateSampler(SimpleRandomWalk(), config)
    batch = sampler.sample(api, start=0, count=20, seed=1)
    assert len(batch) == 20
    assert batch.sampler == "we-longrun-srw"
    assert batch.query_cost == api.query_cost
    assert batch.walk_steps > 20 * 5  # forward segments + backward effort


def test_crawl_disabled_automatically(graph):
    config = WalkEstimateConfig(walk_length=5, crawl_hops=3)
    sampler = LongRunWalkEstimateSampler(SimpleRandomWalk(), config)
    assert sampler.config.crawl_hops == 0


def test_budget_yields_partial_batch(graph, config):
    api = SocialNetworkAPI(graph, budget=QueryBudget(30))
    sampler = LongRunWalkEstimateSampler(SimpleRandomWalk(), config)
    batch = sampler.sample(api, start=0, count=100, seed=2)
    assert len(batch) < 100
    assert api.query_cost <= 30


def test_target_weights_follow_design(graph, config):
    api = SocialNetworkAPI(graph)
    batch = LongRunWalkEstimateSampler(MetropolisHastingsWalk(), config).sample(
        api, 0, 10, seed=3
    )
    assert all(w == 1.0 for w in batch.target_weights)


def test_count_validation(graph, config):
    sampler = LongRunWalkEstimateSampler(SimpleRandomWalk(), config)
    with pytest.raises(ConfigurationError):
        sampler.sample(SocialNetworkAPI(graph), 0, 0)


def test_distribution_close_to_target(graph):
    # Marginal law check: accepted segment endpoints follow the
    # degree-proportional target despite the shared boundary nodes.
    config = WalkEstimateConfig(
        walk_length=6,
        backward_repetitions=12,
        calibration_walks=8,
        scale_percentile=10.0,
    )
    n = graph.number_of_nodes()
    degrees = np.array([graph.degree(v) for v in range(n)], float)
    target = degrees / degrees.sum()
    nodes = []
    for rep in range(12):
        api = SocialNetworkAPI(graph)
        sampler = LongRunWalkEstimateSampler(SimpleRandomWalk(), config)
        nodes.extend(sampler.sample(api, 0, 150, seed=rep).nodes)
    pdf = empirical_distribution(nodes, n)
    noise = np.sqrt(target.max() / len(nodes))
    assert l_infinity_bias(pdf, target) < 8 * noise


# ----------------------------------------------------------------------
# Vectorized batch front end
# ----------------------------------------------------------------------
class TestLongRunBatch:
    def test_result_arrays_are_aligned(self, graph, config):
        result = long_run_walk_estimate_batch(
            graph, SimpleRandomWalk(), 0, k_runs=8, segments=5, config=config, seed=1
        )
        assert result.candidates.shape == (40,)
        assert result.estimates.shape == (40,)
        assert result.target_weights.shape == (40,)
        assert result.acceptance.shape == (40,)
        assert result.accepted.dtype == bool
        assert result.nodes.size == int(result.accepted.sum())
        assert result.forward_steps > 0 and result.backward_steps > 0

    def test_forward_steps_count_calibration_prefix(self, graph, config):
        # calibration_walks=5 over 8 runs -> 1 calibration segment each.
        result = long_run_walk_estimate_batch(
            graph, SimpleRandomWalk(), 0, k_runs=8, segments=5, config=config, seed=1
        )
        t = config.effective_walk_length
        assert result.forward_steps == 8 * (1 + 5) * t

    def test_deterministic_for_seed(self, graph, config):
        a = long_run_walk_estimate_batch(
            graph.compile(), SimpleRandomWalk(), 0, 8, 4, config=config, seed=5
        )
        b = long_run_walk_estimate_batch(
            graph.compile(), SimpleRandomWalk(), 0, 8, 4, config=config, seed=5
        )
        assert np.array_equal(a.candidates, b.candidates)
        assert np.array_equal(a.accepted, b.accepted)

    def test_per_run_start_array(self, graph, config):
        starts = np.array([0, 3, 5, 7], dtype=np.int64)
        result = long_run_walk_estimate_batch(
            graph,
            SimpleRandomWalk(),
            starts,
            k_runs=4,
            segments=3,
            config=config,
            seed=2,
        )
        assert result.candidates.shape == (12,)

    def test_validation(self, graph, config):
        with pytest.raises(ConfigurationError):
            long_run_walk_estimate_batch(graph, SimpleRandomWalk(), 0, 0, 3)
        with pytest.raises(ConfigurationError):
            long_run_walk_estimate_batch(graph, SimpleRandomWalk(), 0, 4, 0)
        with pytest.raises(ConfigurationError, match="array of 4"):
            long_run_walk_estimate_batch(
                graph, SimpleRandomWalk(), np.array([0, 1]), 4, 3, config=config
            )

    @pytest.mark.parametrize(
        "design_factory",
        [
            lambda g: MetropolisHastingsWalk(),
            lambda g: LazyWalk(SimpleRandomWalk(), 0.3),
            lambda g: MaxDegreeWalk(g.max_degree()),
        ],
    )
    def test_new_kernel_designs_run_end_to_end(self, graph, config, design_factory):
        design = design_factory(graph)
        result = long_run_walk_estimate_batch(
            graph, design, 0, k_runs=6, segments=4, config=config, seed=3
        )
        assert result.candidates.shape == (24,)
        if design.uniform_target():
            assert np.all(result.target_weights == 1.0)

    def test_distribution_close_to_target(self, graph):
        # Same marginal-law check as the scalar sampler: accepted segment
        # endpoints of the K simultaneous long runs follow the
        # degree-proportional target.
        config = WalkEstimateConfig(
            walk_length=6,
            backward_repetitions=12,
            calibration_walks=8,
            scale_percentile=10.0,
        )
        n = graph.number_of_nodes()
        degrees = np.array([graph.degree(v) for v in range(n)], float)
        target = degrees / degrees.sum()
        nodes = []
        for rep in range(4):
            result = long_run_walk_estimate_batch(
                graph,
                SimpleRandomWalk(),
                0,
                k_runs=64,
                segments=10,
                config=config,
                seed=rep,
            )
            nodes.extend(int(v) for v in result.nodes)
        pdf = empirical_distribution(nodes, n)
        noise = np.sqrt(target.max() / len(nodes))
        assert l_infinity_bias(pdf, target) < 8 * noise
