"""Service rounds run in process, pinned to the previous worker-pool path.

``PoolService`` below keeps the previous round path of
:class:`SamplingService`: ``_run_round`` sends ``sharded`` jobs through
``engine=`` to a forked :class:`ShardedWalkEngine` that owns a copy of
the current epoch's graph.  ``_ensure_engine`` forks that pool on an
epoch's first ``sharded`` round, and ``_swap_topology`` and ``close``
shut it down.  The current service runs every round in process instead:
a ``sharded`` job's ``n_workers``-shard plan on an :class:`InlineExecutor`
over the current epoch's graph.  The shard plan, not the executor, fixes a
round's result, so the tests here demand the same partials, results,
counter state and ledger charges from both, bit for bit — and that the
current service starts no process while a campaign runs.

With one shard, the round consumes the job's own generator
(:func:`~repro.walks.parallel.shard_rngs`), so a one-shard ``sharded``
job runs exactly as a ``batch`` job does.  The pool walks a pickled copy
of that generator and writes the copy's end state back onto it, so the
job's stream advances there too.
"""

import multiprocessing
import struct
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest

from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig
from repro.core.dispatch import estimate
from repro.crawl.clock import drive
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI
from repro.service import JobState, SamplingService, ServiceConfig
from repro.service.jobs import Job
from repro.walks.parallel import ShardedWalkEngine

LATENCY = [1.0, 0.25, 0.5, 2.0, 0.75]

WALK = WalkEstimateConfig(
    walk_length=5,
    crawl_hops=0,
    backward_repetitions=3,
    refine_repetitions=0,
    calibration_walks=4,
)


class PoolService(SamplingService):
    """The previous round path: sharded jobs on a forked worker pool."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._engine: Optional[ShardedWalkEngine] = None

    def _close_engine(self) -> None:
        if self._engine is not None:
            self._engine.close()
            self._engine = None

    def _swap_topology(self) -> None:
        """Retire the old epoch's pool, then take the newest epoch."""
        self._close_engine()
        super()._swap_topology()

    def _ensure_engine(self) -> ShardedWalkEngine:
        """A pool over its own copy of the current epoch's graph."""
        if self._engine is None:
            self._engine = ShardedWalkEngine(
                self._topology.graph,
                n_workers=self.config.n_workers,
                mp_context=self.config.mp_context,
            )
        return self._engine

    def _run_round(self, job: Job) -> bool:
        """One WALK-ESTIMATE round for *job* over the current epoch."""
        spec = job.spec
        graph = self._topology.graph
        if spec.start not in graph or graph.degree(spec.start) == 0:
            if self.crawler.finished:
                self._resolve(
                    job, JobState.FAILED, met=False, reason="start-not-walkable"
                )
                return True
            return False  # wait for coverage to reach the start
        clock_before = self.clock.now
        if spec.engine.backend == "sharded":
            result = estimate(spec, engine=self._ensure_engine(), seed=job.rng)
        else:
            result = estimate(spec, graph=graph, seed=job.rng)
        # The estimand: true discovered degrees — every accepted node's row
        # is paid for, so this gather is free (§2.4).
        values = self.api.discovered.degrees_of(result.nodes).astype(np.float64)
        with np.errstate(divide="ignore"):
            weights = 1.0 / result.weights
        job.absorb(values, weights)
        job.rounds += 1
        self.metrics.rounds.inc()
        self.metrics.round_seconds.observe(self.clock.now - clock_before)
        self._stream_partial(job)
        self._check_completion(job)
        return True

    def close(self) -> None:
        """Shut the pool down first, then the service."""
        self._close_engine()
        super().close()


@pytest.fixture(scope="module")
def hidden():
    return barabasi_albert_graph(200, 4, seed=9).relabeled()


def tenant(design, backend, **engine):
    return EstimationJobSpec(
        tenant=f"{design}-{backend}",
        design=design,
        samples=24,
        query_budget=120,
        error_target=None,
        walk=WALK,
        engine=EngineConfig(backend=backend, **engine),
    )


#: The benchmark's tenant mix: {SRW, MHRW} × {batch, sharded}.
TENANTS = [
    tenant(design, backend)
    for design in ("srw", "mhrw")
    for backend in ("batch", "sharded")
]


def service_config(n_workers, storage):
    return ServiceConfig(
        rows_per_epoch=30,
        max_rounds_per_job=5,
        monitor_interval=None,
        n_workers=n_workers,
        slab_storage=storage,
    )


def exact(value):
    """Floats by their bits, so a NaN compares equal to itself."""
    return struct.pack("<d", value) if isinstance(value, float) else value


def exact_fields(record):
    if record is None:
        return None
    return tuple(exact(v) for v in vars(record).values())


def child_pids():
    return {child.pid for child in multiprocessing.active_children()}


def campaign(service_cls, hidden, config, specs):
    """Run *specs* to the end, one step at a time; the bit-level outcome.

    Also returns the worker processes that appeared while the campaign
    ran, checked after every epoch and before ``close()``.
    """
    before = child_pids()
    started = set()
    with service_cls(
        SocialNetworkAPI(hidden), 0, config=config, latency=LATENCY, seed=5
    ) as service:
        for spec in specs:
            service.submit_nowait(spec)
        while service.scheduler.has_work:
            drive(service.clock, service.step())
            started |= child_pids() - before
        jobs = sorted(service.jobs.items())
        assert all(job.state is JobState.COMPLETED for _, job in jobs)
        outcome = (
            [
                (
                    job_id,
                    [exact_fields(partial) for partial in job.partials],
                    exact_fields(job.result),
                )
                for job_id, job in jobs
            ],
            service.api.counter.state(),
            service.ledger.charges(),
        )
    return outcome, started


class TestInlineMatchesPool:
    @pytest.mark.parametrize("storage", ["shm"])
    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_four_tenant_campaign_is_bit_identical(self, hidden, n_workers, storage):
        cfg = service_config(n_workers, storage)
        expected, forked = campaign(PoolService, hidden, cfg, TENANTS)
        assert forked, "the reference must run sharded rounds on its pool"
        outcome, started = campaign(SamplingService, hidden, cfg, TENANTS)
        assert outcome == expected
        assert not started

    @pytest.mark.parametrize("storage", ["shm"])
    def test_one_shard_sharded_jobs_run_as_batch_jobs(self, hidden, storage):
        cfg = service_config(1, storage)
        batch = EngineConfig(backend="batch")
        as_batch = [replace(spec, engine=batch) for spec in TENANTS]
        expected, _ = campaign(SamplingService, hidden, cfg, as_batch)
        outcome, started = campaign(SamplingService, hidden, cfg, TENANTS)
        assert outcome == expected
        assert not started
        # Without the pool's generator write-back, every sharded round
        # would replay the job's first one.
        pooled, _ = campaign(PoolService, hidden, cfg, TENANTS)
        assert pooled == expected

    def test_long_run_sharded_campaign_is_bit_identical(self, hidden):
        long_run = replace(
            tenant("srw", "sharded", long_run=True),
            tenant="srw-long-run",
            samples=6,
            segments=4,
        )
        specs = [long_run, TENANTS[1]]
        cfg = service_config(2, "shm")
        expected, _ = campaign(PoolService, hidden, cfg, specs)
        outcome, started = campaign(SamplingService, hidden, cfg, specs)
        assert outcome == expected
        assert not started

    def test_n_workers_fixes_the_sharded_streams(self, hidden):
        # n_workers keeps its meaning: it is the shard count, and so the
        # RNG streams, of sharded jobs; batch jobs do not depend on it.
        partials = []
        for n_workers in (1, 2):
            cfg = service_config(n_workers, "shm")
            (jobs, _, _), _ = campaign(SamplingService, hidden, cfg, TENANTS)
            partials.append([job_partials for _, job_partials, _ in jobs])
        for spec, one, two in zip(TENANTS, *partials):
            assert (one == two) is (spec.engine.backend == "batch")
