"""Vectorized estimation layer: batch backward walks, rejection, WE front end."""

import numpy as np
import pytest

from repro.core.rejection import RejectionSampler, ScaleFactorBootstrap
from repro.core.unbiased import unbiased_estimate, unbiased_estimate_batch
from repro.core.walk_estimate import walk_estimate_batch
from repro.errors import ConfigurationError, EstimationError
from repro.estimators.aggregates import average_estimate_arrays
from repro.graphs.generators import barabasi_albert_graph
from repro.markov.matrix import TransitionMatrix
from repro.core.config import WalkEstimateConfig
from repro.walks.transitions import (
    BidirectionalWalk,
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)


@pytest.fixture(scope="module")
def small_graph():
    return barabasi_albert_graph(40, 3, seed=5).relabeled()


@pytest.fixture(scope="module")
def small_csr(small_graph):
    return small_graph.compile()


class TestUnbiasedEstimateBatch:
    @pytest.mark.parametrize("design", [SimpleRandomWalk(), MetropolisHastingsWalk()])
    def test_mean_matches_exact_probabilities(self, small_graph, small_csr, design):
        t = 5
        exact = TransitionMatrix(small_graph, design).step_distribution(0, t)
        nodes = np.arange(small_graph.number_of_nodes())
        estimates = unbiased_estimate_batch(
            small_csr, design, nodes, 0, t, seed=11, repetitions=4000
        )
        assert np.abs(estimates - exact).max() < 0.05

    def test_t_zero_is_indicator_of_start(self, small_csr):
        estimates = unbiased_estimate_batch(
            small_csr, SimpleRandomWalk(), [0, 1, 2], 0, 0, seed=1
        )
        assert estimates.tolist() == [1.0, 0.0, 0.0]

    def test_accepts_mutable_graph(self, small_graph):
        estimates = unbiased_estimate_batch(
            small_graph, SimpleRandomWalk(), [3], 0, 4, seed=2, repetitions=10
        )
        assert estimates.shape == (1,)
        assert estimates[0] >= 0.0

    def test_same_expectation_as_scalar(self, small_graph, small_csr):
        # Both estimators are unbiased for the same quantity; with many
        # repetitions their means must agree.
        design = SimpleRandomWalk()
        t, node = 4, 7
        batch = unbiased_estimate_batch(
            small_csr, design, [node], 0, t, seed=3, repetitions=6000
        )[0]
        rng_values = [
            unbiased_estimate(small_graph, design, node, 0, t, seed=1000 + i)
            for i in range(6000)
        ]
        assert batch == pytest.approx(np.mean(rng_values), abs=0.02)

    def test_rejects_bad_arguments(self, small_csr):
        with pytest.raises(ValueError):
            unbiased_estimate_batch(small_csr, SimpleRandomWalk(), [0], 0, -1)
        with pytest.raises(ConfigurationError):
            unbiased_estimate_batch(
                small_csr, SimpleRandomWalk(), [0], 0, 3, repetitions=0
            )
        with pytest.raises(ConfigurationError):
            unbiased_estimate_batch(small_csr, BidirectionalWalk(), [0], 0, 3)
        with pytest.raises(ConfigurationError, match=r"1-d, got shape \(1, 2\)"):
            unbiased_estimate_batch(small_csr, SimpleRandomWalk(), [[1, 2]], 0, 3)

    def test_lazy_and_maxdeg_match_exact_probabilities(self, small_graph, small_csr):
        # The designs gaining batch kernels this layer must also price
        # their backward transitions correctly — including the lazy
        # wrapper's λ-augmented self-loops over each kind of inner design.
        t = 4
        designs = [
            LazyWalk(SimpleRandomWalk(), 0.3),
            MaxDegreeWalk(small_graph.max_degree()),
            LazyWalk(MaxDegreeWalk(small_graph.max_degree()), 0.4),
            LazyWalk(MetropolisHastingsWalk(), 0.25),
        ]
        nodes = np.arange(small_graph.number_of_nodes())
        for design in designs:
            exact = TransitionMatrix(small_graph, design).step_distribution(0, t)
            estimates = unbiased_estimate_batch(
                small_csr, design, nodes, 0, t, seed=17, repetitions=12000
            )
            assert np.abs(estimates - exact).max() < 0.05, design.name

    def test_maxdeg_underdeclared_bound_raises(self, small_csr):
        with pytest.raises(ConfigurationError, match="max_degree"):
            unbiased_estimate_batch(
                small_csr, MaxDegreeWalk(1), [5], 0, 3, seed=1, repetitions=4
            )

    def test_array_start_matches_shared_start(self, small_csr):
        # A constant start array must reproduce the scalar-start result
        # draw for draw — same stream, same realizations.
        nodes = np.arange(20)
        shared = unbiased_estimate_batch(
            small_csr, SimpleRandomWalk(), nodes, 0, 4, seed=5, repetitions=40
        )
        arrayed = unbiased_estimate_batch(
            small_csr,
            SimpleRandomWalk(),
            nodes,
            np.zeros(20, dtype=np.int64),
            4,
            seed=5,
            repetitions=40,
        )
        assert np.array_equal(shared, arrayed)

    def test_per_node_starts_estimate_each_origin(self, small_graph, small_csr):
        # Each backward walk may target a different forward origin: entry
        # i's expectation is p_t(node_i | start_i).
        design = SimpleRandomWalk()
        t = 3
        starts = np.array([0, 4, 9], dtype=np.int64)
        nodes = np.array([7, 7, 7], dtype=np.int64)
        matrix = TransitionMatrix(small_graph, design)
        exact = np.array([matrix.step_distribution(int(s), t)[7] for s in starts])
        estimates = unbiased_estimate_batch(
            small_csr, design, nodes, starts, t, seed=23, repetitions=8000
        )
        assert np.abs(estimates - exact).max() < 0.05

    def test_misaligned_start_array_rejected(self, small_csr):
        with pytest.raises(ConfigurationError, match="aligned"):
            unbiased_estimate_batch(
                small_csr, SimpleRandomWalk(), [0, 1, 2], np.array([0, 1]), 3
            )
        with pytest.raises(ConfigurationError, match="aligned"):
            unbiased_estimate_batch(
                small_csr, SimpleRandomWalk(), [0], np.zeros((1, 1), dtype=int), 3
            )


class TestBatchRejection:
    def _sampler(self, ratios=(1.0, 1.0, 1.0, 1.0, 1.0), seed=0):
        bootstrap = ScaleFactorBootstrap()
        for ratio in ratios:
            bootstrap.observe(ratio)
        return RejectionSampler(bootstrap, seed=seed)

    def test_probabilities_match_scalar(self):
        sampler = self._sampler(ratios=(0.5, 1.0, 2.0, 4.0, 8.0))
        estimates = np.array([0.5, 1.0, 0.0, 3.0])
        weights = np.array([1.0, 2.0, 1.0, 1.0])
        batch = sampler.acceptance_probabilities(estimates, weights)
        scalar = [
            sampler.acceptance_probability(float(p), float(q))
            for p, q in zip(estimates, weights)
        ]
        assert batch.tolist() == pytest.approx(scalar)

    def test_zero_estimate_accepts_certainly(self):
        sampler = self._sampler()
        betas = sampler.acceptance_probabilities([0.0], [5.0])
        assert betas.tolist() == [1.0]

    def test_accept_batch_updates_counters_and_pool(self):
        sampler = self._sampler()
        before = sampler.bootstrap.observation_count
        accepted, betas = sampler.accept_batch(
            [1.0, 1.0, 0.0, 2.0], [1.0, 1.0, 1.0, 1.0]
        )
        assert accepted.shape == (4,)
        assert betas.shape == (4,)
        assert np.all((betas >= 0.0) & (betas <= 1.0))
        assert sampler.accepted + sampler.rejected == 4
        # Zero estimate contributes no usable ratio; the other three do.
        assert sampler.bootstrap.observation_count == before + 3

    def test_invalid_inputs_raise(self):
        sampler = self._sampler()
        with pytest.raises(ConfigurationError):
            sampler.acceptance_probabilities([1.0], [0.0])
        with pytest.raises(EstimationError):
            sampler.acceptance_probabilities([-1.0], [1.0])


class TestWalkEstimateBatch:
    @pytest.mark.parametrize("design", [SimpleRandomWalk(), MetropolisHastingsWalk()])
    def test_result_arrays_are_aligned(self, small_graph, design):
        result = walk_estimate_batch(
            small_graph,
            design,
            0,
            64,
            config=WalkEstimateConfig(diameter_hint=4),
            seed=42,
        )
        assert result.candidates.shape == (64,)
        assert result.estimates.shape == (64,)
        assert result.target_weights.shape == (64,)
        assert result.acceptance.shape == (64,)
        assert result.accepted.dtype == bool
        assert result.nodes.size == int(result.accepted.sum())
        assert result.nodes.size == result.weights.size
        assert 0.0 <= result.acceptance_rate <= 1.0
        assert result.forward_steps > 0
        assert result.backward_steps > 0

    def test_k1_works(self, small_graph):
        result = walk_estimate_batch(
            small_graph,
            SimpleRandomWalk(),
            0,
            1,
            config=WalkEstimateConfig(diameter_hint=3),
            seed=7,
        )
        assert result.candidates.shape == (1,)

    def test_deterministic_for_seed(self, small_csr):
        config = WalkEstimateConfig(diameter_hint=3)
        a = walk_estimate_batch(small_csr, SimpleRandomWalk(), 0, 32, config, seed=5)
        b = walk_estimate_batch(small_csr, SimpleRandomWalk(), 0, 32, config, seed=5)
        assert np.array_equal(a.candidates, b.candidates)
        assert np.array_equal(a.accepted, b.accepted)

    def test_srw_weights_are_candidate_degrees(self, small_graph, small_csr):
        result = walk_estimate_batch(
            small_csr,
            SimpleRandomWalk(),
            0,
            32,
            config=WalkEstimateConfig(diameter_hint=3),
            seed=9,
        )
        expected = [float(small_graph.degree(int(n))) for n in result.candidates]
        assert result.target_weights.tolist() == expected

    def test_to_sample_batch(self, small_csr):
        result = walk_estimate_batch(
            small_csr,
            MetropolisHastingsWalk(),
            0,
            32,
            config=WalkEstimateConfig(diameter_hint=3),
            seed=10,
        )
        batch = result.to_sample_batch("we-batch-mhrw")
        assert batch.sampler == "we-batch-mhrw"
        assert len(batch) == result.nodes.size
        assert batch.walk_steps == result.forward_steps + result.backward_steps

    def test_invalid_k_raises(self, small_csr):
        with pytest.raises(ConfigurationError):
            walk_estimate_batch(small_csr, SimpleRandomWalk(), 0, 0)

    def test_average_degree_estimate_is_close(self, small_graph, small_csr):
        # End-to-end: batch samples + array fan-in estimate AVG(degree).
        truth = 2 * small_graph.number_of_edges() / small_graph.number_of_nodes()
        result = walk_estimate_batch(
            small_csr,
            SimpleRandomWalk(),
            0,
            512,
            config=WalkEstimateConfig(diameter_hint=5),
            seed=3,
        )
        degrees = small_csr.degrees[small_csr.positions_of(result.nodes)]
        estimate = average_estimate_arrays(degrees.astype(float), result.weights)
        assert estimate == pytest.approx(truth, rel=0.25)


class TestAverageEstimateArrays:
    def test_uniform_weights_use_plain_mean(self):
        assert average_estimate_arrays([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) == 2.0

    def test_skewed_weights_use_importance_weighting(self):
        values = np.array([2.0, 4.0])
        weights = np.array([2.0, 4.0])
        expected = (2.0 / 2.0 + 4.0 / 4.0) / (1.0 / 2.0 + 1.0 / 4.0)
        assert average_estimate_arrays(values, weights) == pytest.approx(expected)

    def test_matches_list_based_estimator(self):
        from repro.estimators.aggregates import importance_weighted_mean

        values = [1.0, 5.0, 2.0, 8.0]
        weights = [1.0, 2.0, 3.0, 4.0]
        assert average_estimate_arrays(values, weights) == pytest.approx(
            importance_weighted_mean(values, weights)
        )

    def test_empty_and_mismatched_raise(self):
        with pytest.raises(EstimationError):
            average_estimate_arrays([], [])
        with pytest.raises(EstimationError):
            average_estimate_arrays([1.0], [1.0, 2.0])
        with pytest.raises(EstimationError):
            average_estimate_arrays([1.0], [0.0])
