"""ShardedWalkEngine: parity, determinism, sharding, and segment hygiene.

The engine's contract mirrors the batch engine's parity story one level
up: a one-worker engine reproduces :func:`run_walk_batch` trajectory for
trajectory, any worker count is deterministic for a fixed ``(seed,
n_workers)``, and wide sharded batches stay distribution-correct.  The
pool-spawn cost is amortized by module-scoped engines.
"""

import gc
import os

import numpy as np
import pytest

from repro.crawl import AsyncCrawler, TopologyPublisher
from repro.errors import ConfigurationError
from repro.estimators.metrics import empirical_distribution, l_infinity_bias
from repro.graphs.generators import barabasi_albert_graph, watts_strogatz_graph
from repro.graphs.shm import _LIVE_SEGMENTS
from repro.osn.api import SocialNetworkAPI
from repro.walks import kernels
from repro.walks.batch import (
    run_nbrw_walk_batch,
    run_walk_batch,
    target_weights_batch,
)
from repro.walks.parallel import (
    InlineExecutor,
    ShardedWalkEngine,
    default_worker_count,
    shard_rngs,
    shard_slices,
)
from repro.walks.transitions import (
    BidirectionalWalk,
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)

DESIGN_FACTORIES = {
    "srw": lambda g: SimpleRandomWalk(),
    "mhrw": lambda g: MetropolisHastingsWalk(),
    "lazy-srw": lambda g: LazyWalk(SimpleRandomWalk(), 0.3),
    "maxdeg": lambda g: MaxDegreeWalk(g.max_degree()),
}


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(300, 4, seed=17).relabeled()


@pytest.fixture(scope="module")
def csr(graph):
    return graph.compile()


@pytest.fixture(scope="module")
def engine1(csr):
    with ShardedWalkEngine(csr, n_workers=1) as engine:
        yield engine


@pytest.fixture(scope="module")
def engine2(csr):
    with ShardedWalkEngine(csr, n_workers=2) as engine:
        yield engine


class TestSingleWorkerParity:
    """One shard uses the caller's stream: exact batch-engine parity."""

    @pytest.mark.parametrize("design_name", sorted(DESIGN_FACTORIES))
    def test_trajectories_match_batch_engine(self, design_name, graph, csr, engine1):
        design = DESIGN_FACTORIES[design_name](graph)
        starts = np.arange(24, dtype=np.int64)
        sharded = engine1.run_walk_batch(design, starts, 40, seed=101)
        batch = run_walk_batch(csr, design, starts, 40, seed=101)
        assert np.array_equal(sharded.paths, batch.paths)

    def test_nbrw_matches_batch_engine(self, csr, engine1):
        starts = np.arange(16, dtype=np.int64)
        sharded = engine1.run_nbrw_walk_batch(starts, 30, seed=55)
        batch = run_nbrw_walk_batch(csr, starts, 30, seed=55)
        assert np.array_equal(sharded.paths, batch.paths)

    def test_reused_generator_advances_like_the_batch_engine(self):
        # The worker walks a pickled copy of the caller's generator; the
        # pool must write its end state back, or a second call with the
        # same generator replays the first call's paths.
        csr = barabasi_albert_graph(200, 3, seed=1).relabeled().compile()
        starts = np.zeros(8, dtype=np.int64)
        pooled_rng = np.random.default_rng(5)
        inline_rng = np.random.default_rng(5)
        with ShardedWalkEngine(csr, n_workers=1, mp_context="fork") as engine:
            for _ in range(2):
                pooled = engine.run_walk_batch(
                    SimpleRandomWalk(), starts, 10, seed=pooled_rng
                )
                inline = run_walk_batch(
                    csr, SimpleRandomWalk(), starts, 10, seed=inline_rng
                )
                assert np.array_equal(pooled.paths, inline.paths)
                assert pooled_rng.bit_generator.state == inline_rng.bit_generator.state


class TestKernelBackendPlumbing:
    """Backend names travel to workers; JIT dispatchers persist across rounds."""

    ALT_BACKENDS = [name for name in kernels.backend_names() if name != "numpy"]

    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    def test_sharded_backend_matches_default_engine(
        self, graph, csr, engine2, backend
    ):
        if not kernels.get_backend(backend).available:
            pytest.skip(f"kernel backend {backend!r} unavailable")
        design = LazyWalk(MaxDegreeWalk(graph.max_degree()), 0.3)
        starts = np.arange(24, dtype=np.int64)
        routed = engine2.run_walk_batch(
            design, starts, 40, seed=101, kernel_backend=backend
        )
        reference = engine2.run_walk_batch(design, starts, 40, seed=101)
        assert np.array_equal(routed.paths, reference.paths)

    @pytest.mark.parametrize("backend", ALT_BACKENDS)
    def test_sharded_nbrw_backend_matches_batch_engine(self, csr, engine1, backend):
        if not kernels.get_backend(backend).available:
            pytest.skip(f"kernel backend {backend!r} unavailable")
        starts = np.arange(16, dtype=np.int64)
        sharded = engine1.run_nbrw_walk_batch(
            starts, 30, seed=55, kernel_backend=backend
        )
        batch = run_nbrw_walk_batch(csr, starts, 30, seed=55)
        assert np.array_equal(sharded.paths, batch.paths)

    def test_unknown_backend_rejected_before_fanout(self, engine2):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            engine2.run_walk_batch(
                SimpleRandomWalk(),
                np.zeros(4, dtype=np.int64),
                5,
                seed=1,
                kernel_backend="cuda",
            )

    def test_unavailable_backend_rejected_before_fanout(self, engine2):
        if kernels.get_backend("native").available:
            pytest.skip("numba installed: native is available on this host")
        with pytest.raises(ConfigurationError, match="not available"):
            engine2.run_nbrw_walk_batch(
                np.zeros(4, dtype=np.int64), 5, seed=1, kernel_backend="native"
            )

    def test_persistent_pool_pays_compilation_once(self, engine1):
        # Round 2+ of a persistent pool must reuse the worker's memoized
        # dispatcher: the compilation-event counter inside the (single,
        # deterministic) worker process may not grow after the first
        # round that used a trajectory-loop backend.
        backend = "native" if kernels.get_backend("native").available else "python"
        design = SimpleRandomWalk()
        starts = np.arange(8, dtype=np.int64)
        engine1.run_walk_batch(design, starts, 20, seed=1, kernel_backend=backend)
        engine1.run_nbrw_walk_batch(starts, 20, seed=1, kernel_backend=backend)
        [after_round_one] = engine1.map_shards(kernels._shard_compilation_events, [()])
        assert after_round_one >= 1
        for seed in (2, 3):
            engine1.run_walk_batch(
                design, starts, 20, seed=seed, kernel_backend=backend
            )
            engine1.run_nbrw_walk_batch(starts, 20, seed=seed, kernel_backend=backend)
        [after_round_three] = engine1.map_shards(
            kernels._shard_compilation_events, [()]
        )
        assert after_round_three == after_round_one


class TestDeterminismAndMerge:
    def test_same_seed_same_workers_same_result(self, engine2):
        design = SimpleRandomWalk()
        starts = np.zeros(50, dtype=np.int64)
        a = engine2.run_walk_batch(design, starts, 30, seed=7)
        b = engine2.run_walk_batch(design, starts, 30, seed=7)
        assert np.array_equal(a.paths, b.paths)

    def test_merged_walks_keep_original_order(self, engine2):
        starts = np.arange(31, dtype=np.int64)  # odd count: uneven shards
        result = engine2.run_walk_batch(SimpleRandomWalk(), starts, 10, seed=3)
        assert np.array_equal(result.starts, starts)
        assert result.k == 31 and result.steps == 10

    def test_sharded_trajectories_are_valid_walks(self, graph, engine2):
        result = engine2.run_walk_batch(
            SimpleRandomWalk(), np.zeros(8, dtype=np.int64), 25, seed=13
        )
        for walk in result.paths:
            for u, v in zip(walk[:-1], walk[1:]):
                assert graph.has_edge(int(u), int(v))

    def test_empty_batch(self, engine2):
        result = engine2.run_walk_batch(
            SimpleRandomWalk(), np.empty(0, dtype=np.int64), 5, seed=1
        )
        assert result.paths.shape == (0, 6)


class TestStationarity:
    """K=1024 sharded batches stay distribution-correct (acceptance gate)."""

    STEPS = 60
    BURN_IN = 30
    K = 1024

    def test_visits_match_target_srw(self):
        graph = watts_strogatz_graph(40, 4, 0.3, seed=11).relabeled()
        csr = graph.compile()
        design = SimpleRandomWalk()
        weights = target_weights_batch(csr, design, np.arange(len(csr)))
        target = weights / weights.sum()
        starts = np.zeros(self.K, dtype=np.int64)
        with ShardedWalkEngine(csr, n_workers=2) as engine:
            result = engine.run_walk_batch(design, starts, self.STEPS, seed=29)
        tail = result.paths[:, self.BURN_IN :].ravel()
        pdf = empirical_distribution([int(v) for v in tail], len(csr))
        samples = self.K * (self.STEPS - self.BURN_IN + 1)
        noise = np.sqrt(target.max() * samples / self.K) / np.sqrt(samples)
        assert l_infinity_bias(pdf, target) < 8 * max(noise, 1e-3)


class TestSharding:
    def test_shard_slices_cover_contiguously(self):
        for k in (1, 2, 3, 31, 64):
            slices = shard_slices(k, 2)
            assert len(slices) == min(2, k)
            assert slices[0].start == 0 and slices[-1].stop == k
            sizes = [s.stop - s.start for s in slices]
            assert max(sizes) - min(sizes) <= 1
            for before, after in zip(slices[:-1], slices[1:]):
                assert before.stop == after.start

    def test_shard_rngs_deterministic(self):
        a = shard_rngs(2, seed=5)
        b = shard_rngs(2, seed=5)
        for x, y in zip(a, b):
            assert x.integers(0, 1 << 30) == y.integers(0, 1 << 30)

    def test_single_shard_uses_callers_stream(self):
        (rng,) = shard_rngs(1, seed=5)
        reference = np.random.default_rng(5)
        assert rng.integers(0, 1 << 30) == reference.integers(0, 1 << 30)

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1


class TestErrors:
    def test_rejects_design_without_batch_kernel(self, engine2):
        with pytest.raises(ConfigurationError, match="batch kernel"):
            engine2.run_walk_batch(
                BidirectionalWalk(), np.zeros(4, dtype=np.int64), 5, seed=1
            )

    def test_rejects_bad_worker_count(self, csr):
        with pytest.raises(ConfigurationError, match="n_workers"):
            ShardedWalkEngine(csr, n_workers=0)
        with pytest.raises(ConfigurationError, match="n_workers"):
            InlineExecutor(csr, n_workers=0)

    def test_rejects_negative_steps(self, engine2):
        with pytest.raises(ValueError, match="steps"):
            engine2.run_walk_batch(
                SimpleRandomWalk(), np.zeros(4, dtype=np.int64), -1, seed=1
            )

    def test_unknown_start_raises_parent_side(self, engine2):
        from repro.errors import NodeNotFoundError

        with pytest.raises(NodeNotFoundError):
            engine2.run_walk_batch(SimpleRandomWalk(), np.array([10**6]), 5, seed=1)

    def test_closed_engine_refuses_work(self, csr):
        engine = ShardedWalkEngine(csr, n_workers=1)
        engine.close()
        assert engine.closed
        with pytest.raises(ConfigurationError, match="closed"):
            engine.run_walk_batch(
                SimpleRandomWalk(), np.zeros(2, dtype=np.int64), 3, seed=1
            )


class TestSegmentHygiene:
    """Engine close must leave no /dev/shm entry behind (CI acceptance)."""

    def test_close_unlinks_segment(self, csr):
        engine = ShardedWalkEngine(csr, n_workers=1)
        segment = engine.segment_name
        assert os.path.exists(os.path.join("/dev/shm", segment))
        engine.run_walk_batch(
            SimpleRandomWalk(), np.zeros(4, dtype=np.int64), 5, seed=1
        )
        engine.close()
        assert not os.path.exists(os.path.join("/dev/shm", segment))
        engine.close()  # idempotent

    def test_no_live_segments_besides_open_fixtures(self, engine1, engine2):
        # The module fixtures hold exactly two segments; nothing else may
        # have leaked from any earlier test in the session.
        assert _LIVE_SEGMENTS == {engine1.segment_name, engine2.segment_name}


class TestPublishedEpochs:
    """The pool copies whatever graph it is given — a published epoch too."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_engine_walks_its_copy_after_the_epoch_is_superseded(self, n_workers):
        api = SocialNetworkAPI(barabasi_albert_graph(120, 3, seed=9).relabeled())
        crawler = AsyncCrawler(api, 0, concurrency=1, batch_size=8)
        crawler.crawl(max_new_rows=40)
        publisher = TopologyPublisher(api.discovered)
        graph = publisher.publish().graph
        starts = np.zeros(12, dtype=np.int64)
        design = SimpleRandomWalk()
        reference = run_walk_batch(graph, design, starts, 30, seed=5)
        with ShardedWalkEngine(graph, n_workers=n_workers) as engine:
            segment = engine.segment_name
            before = engine.run_walk_batch(design, starts, 30, seed=5)
            # Supersede the epoch and drop the last reference to its graph:
            # the engine walks its own slab, not the epoch's arrays.
            del graph
            crawler.crawl(max_new_rows=40)
            assert publisher.publish().epoch == 2
            gc.collect()
            after = engine.run_walk_batch(design, starts, 30, seed=5)
        assert np.array_equal(after.paths, before.paths)
        if n_workers == 1:
            assert np.array_equal(before.paths, reference.paths)
        assert segment not in _LIVE_SEGMENTS
