"""Free-graph WALK-ESTIMATE rounds on an executor: parity, determinism, merge."""

import numpy as np
import pytest

from repro.core.config import WalkEstimateConfig
from repro.core.dispatch import EngineConfig, EstimationJobSpec, estimate
from repro.core.long_run_we import long_run_walk_estimate_batch
from repro.core.sharded import merge_batch_results
from repro.core.walk_estimate import walk_estimate_batch
from repro.errors import ConfigurationError
from repro.estimators.aggregates import average_estimate_arrays
from repro.graphs.generators import barabasi_albert_graph
from repro.walks.parallel import InlineExecutor, ShardedWalkEngine
from repro.walks.transitions import MetropolisHastingsWalk, SimpleRandomWalk

DESIGNS = {"srw": SimpleRandomWalk(), "mhrw": MetropolisHastingsWalk()}


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(400, 5, seed=23).relabeled()


@pytest.fixture(scope="module")
def csr(graph):
    return graph.compile()


@pytest.fixture(scope="module")
def config():
    return WalkEstimateConfig(
        diameter_hint=3,
        calibration_walks=6,
        backward_repetitions=4,
        refine_repetitions=0,
    )


@pytest.fixture(scope="module")
def engine1(csr):
    with ShardedWalkEngine(csr, n_workers=1) as engine:
        yield engine


@pytest.fixture(scope="module")
def engine2(csr):
    with ShardedWalkEngine(csr, n_workers=2) as engine:
        yield engine


class TestSingleWorkerParity:
    @pytest.mark.parametrize(
        "design", [SimpleRandomWalk(), MetropolisHastingsWalk()], ids=["srw", "mhrw"]
    )
    def test_walk_estimate_matches_batch(self, design, csr, config, engine1):
        sharded = walk_estimate_batch(engine1, design, 0, 30, config=config, seed=77)
        batch = walk_estimate_batch(csr, design, 0, 30, config=config, seed=77)
        assert np.array_equal(sharded.candidates, batch.candidates)
        assert np.array_equal(sharded.estimates, batch.estimates)
        assert np.array_equal(sharded.target_weights, batch.target_weights)
        assert np.array_equal(sharded.accepted, batch.accepted)
        assert sharded.forward_steps == batch.forward_steps
        assert sharded.backward_steps == batch.backward_steps

    def test_long_run_matches_batch(self, csr, config, engine1):
        design = SimpleRandomWalk()
        sharded = long_run_walk_estimate_batch(
            engine1, design, 0, 4, 5, config=config, seed=77
        )
        batch = long_run_walk_estimate_batch(
            csr, design, 0, 4, 5, config=config, seed=77
        )
        assert np.array_equal(sharded.candidates, batch.candidates)
        assert np.array_equal(sharded.estimates, batch.estimates)
        assert np.array_equal(sharded.accepted, batch.accepted)


def assert_rounds_equal(a, b):
    assert np.array_equal(a.candidates, b.candidates)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.acceptance, b.acceptance)
    assert np.array_equal(a.accepted, b.accepted)
    assert a.forward_steps == b.forward_steps
    assert a.backward_steps == b.backward_steps


@pytest.fixture(scope="module", params=[1, 2, 3], ids=lambda n: f"n{n}")
def fork_pool(request, csr):
    with ShardedWalkEngine(csr, n_workers=request.param, mp_context="fork") as pool:
        yield pool


class TestInlineMatchesPool:
    """The shard plan fixes the result; the executor only runs it."""

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_walk_estimate(self, design, csr, config, fork_pool):
        inline = InlineExecutor(csr, n_workers=fork_pool.n_workers)
        args = (DESIGNS[design], 0, 40)
        assert_rounds_equal(
            walk_estimate_batch(inline, *args, config=config, seed=19),
            walk_estimate_batch(fork_pool, *args, config=config, seed=19),
        )

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_long_run(self, design, csr, config, fork_pool):
        inline = InlineExecutor(csr, n_workers=fork_pool.n_workers)
        args = (DESIGNS[design], 0, 7, 3)
        assert_rounds_equal(
            long_run_walk_estimate_batch(inline, *args, config=config, seed=19),
            long_run_walk_estimate_batch(fork_pool, *args, config=config, seed=19),
        )

    def test_reused_generator_advances_like_inline(self, csr, config, fork_pool):
        # A one-shard plan hands the worker the caller's generator; the
        # pool must write the worker's end state back, or a second round
        # from the same generator replays the first.
        spec = EstimationJobSpec(
            samples=40, walk=config, engine=EngineConfig(backend="sharded")
        )
        inline = InlineExecutor(csr, n_workers=fork_pool.n_workers)
        inline_rng = np.random.default_rng(5)
        pooled_rng = np.random.default_rng(5)
        for _ in range(2):
            assert_rounds_equal(
                estimate(spec, engine=inline, seed=inline_rng).raw,
                estimate(spec, engine=fork_pool, seed=pooled_rng).raw,
            )
            assert pooled_rng.bit_generator.state == inline_rng.bit_generator.state


class TestShardedRounds:
    def test_walk_estimate_deterministic(self, config, engine2):
        design = SimpleRandomWalk()
        a = walk_estimate_batch(engine2, design, 0, 48, config=config, seed=5)
        b = walk_estimate_batch(engine2, design, 0, 48, config=config, seed=5)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.accepted, b.accepted)
        assert a.candidates.shape == (48,)

    def test_accepted_samples_estimate_average_degree(self, graph, config, engine2):
        # The merged accepted pool must feed the array-native AVG
        # estimator and land near the true mean degree — the end-to-end
        # reduction the sharded round exists for.
        design = SimpleRandomWalk()
        result = walk_estimate_batch(engine2, design, 0, 256, config=config, seed=11)
        assert result.nodes.size > 10
        degrees = np.array(
            [graph.degree(int(node)) for node in result.nodes], dtype=float
        )
        estimate = average_estimate_arrays(degrees, result.weights)
        truth = 2 * graph.number_of_edges() / graph.number_of_nodes()
        assert abs(estimate - truth) / truth < 0.5

    def test_long_run_shapes_and_determinism(self, config, engine2):
        design = SimpleRandomWalk()
        a = long_run_walk_estimate_batch(
            engine2, design, 0, 6, 4, config=config, seed=2
        )
        b = long_run_walk_estimate_batch(
            engine2, design, 0, 6, 4, config=config, seed=2
        )
        assert a.candidates.shape == (24,)
        assert np.array_equal(a.estimates, b.estimates)

    def test_long_run_accepts_per_run_starts(self, config, engine2):
        design = SimpleRandomWalk()
        starts = np.array([0, 1, 2, 3], dtype=np.int64)
        result = long_run_walk_estimate_batch(
            engine2, design, starts, 4, 3, config=config, seed=9
        )
        assert result.candidates.shape == (12,)


class TestValidation:
    def test_rejects_bad_k(self, config, engine2):
        with pytest.raises(ConfigurationError, match="k_walks"):
            walk_estimate_batch(
                engine2, SimpleRandomWalk(), 0, 0, config=config, seed=1
            )

    def test_rejects_bad_segments(self, config, engine2):
        with pytest.raises(ConfigurationError, match="segments"):
            long_run_walk_estimate_batch(
                engine2, SimpleRandomWalk(), 0, 2, 0, config=config, seed=1
            )

    def test_rejects_bad_start_shape(self, config, engine2):
        with pytest.raises(ConfigurationError, match="start"):
            long_run_walk_estimate_batch(
                engine2,
                SimpleRandomWalk(),
                np.array([0, 1, 2]),
                2,
                3,
                config=config,
                seed=1,
            )

    def test_merge_requires_parts(self):
        with pytest.raises(ConfigurationError, match="merge"):
            merge_batch_results([])

    def test_merge_single_part_is_identity(self, csr, config):
        part = walk_estimate_batch(csr, SimpleRandomWalk(), 0, 4, config=config, seed=3)
        assert merge_batch_results([part]) is part
