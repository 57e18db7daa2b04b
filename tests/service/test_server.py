"""SamplingService: determinism, multi-tenancy, budgets, streaming, hygiene.

Every scenario runs on a FakeClock under drive(), so each asserted
interleaving — admission order, preemption, epoch swaps under running
jobs — replays bit for bit.
"""

import asyncio

import numpy as np
import pytest

from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig
from repro.crawl.clock import drive
from repro.errors import AdmissionError, ConfigurationError
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI
from repro.service import JobState, SamplingService, ServiceConfig, create_app

LATENCY = [1.0, 0.25, 0.5, 2.0, 0.75]

WALK = WalkEstimateConfig(
    walk_length=5,
    crawl_hops=0,
    backward_repetitions=3,
    refine_repetitions=0,
    calibration_walks=4,
)


@pytest.fixture(scope="module")
def hidden():
    return barabasi_albert_graph(200, 4, seed=9).relabeled()


@pytest.fixture(scope="module")
def sparse():
    return barabasi_albert_graph(200, 3, seed=1).relabeled()


def job_spec(tenant, budget=120, *, error_target=0.8, backend="batch", **kwargs):
    kwargs.setdefault("design", "srw")
    kwargs.setdefault("samples", 30)
    kwargs.setdefault("walk", WALK)
    return EstimationJobSpec(
        tenant=tenant,
        query_budget=budget,
        error_target=error_target,
        engine=EngineConfig(backend=backend),
        **kwargs,
    )


def make_service(hidden, *, config=None, seed=5, latency=LATENCY):
    api = SocialNetworkAPI(hidden)
    return SamplingService(
        api,
        0,
        config=config if config is not None else ServiceConfig(rows_per_epoch=30),
        latency=latency,
        seed=seed,
    )


def result_fingerprint(result):
    return (
        result.job_id,
        result.tenant,
        result.state.value,
        result.estimate,
        result.stderr,
        result.samples,
        result.rounds,
        result.query_cost,
        result.met_target,
        result.reason,
        result.clock_seconds,
    )


class TestEndToEnd:
    def test_two_tenants_complete_and_books_balance(self, hidden):
        with make_service(hidden) as service:
            results = service.run([job_spec("alice"), job_spec("bob")])
            assert all(r.state is JobState.COMPLETED for r in results)
            assert all(r.met_target for r in results)
            # Per-tenant budgets sum exactly to the global counter charge.
            service.ledger.assert_balanced()
            assert (
                sum(service.ledger.charges().values()) == service.api.query_cost
            )
            # Every crawled row was paid by exactly one tenant.
            assert service.metrics.crawl_rows.value == service.api.query_cost

    def test_deterministic_per_seed(self, hidden):
        def fingerprints():
            with make_service(hidden) as service:
                results = service.run([job_spec("alice"), job_spec("bob")])
                return (
                    [result_fingerprint(r) for r in results],
                    service.ledger.charges(),
                    service.metrics.snapshot(),
                    [tuple(vars(s).values()) for s in service.metrics.samples],
                )

        assert fingerprints() == fingerprints()

    def test_different_seeds_diverge(self, hidden):
        def estimates(seed):
            with make_service(hidden, seed=seed) as service:
                return [r.estimate for r in service.run([job_spec("alice")])]

        assert estimates(5) != estimates(6)

    def test_partials_stream_per_round(self, hidden):
        with make_service(hidden) as service:
            clock = service.clock

            async def main():
                handle = service.submit_nowait(job_spec("alice"))
                collected = []

                async def consume():
                    async for partial in handle.stream():
                        collected.append(partial)

                consumer = asyncio.ensure_future(consume())
                await service.serve()
                await consumer
                return handle, collected

            handle, collected = drive(clock, main())
            result = drive(clock, handle.result())
            assert [p.round_index for p in collected] == list(
                range(1, result.rounds + 1)
            )
            # Partials refine: the estimate stream converges onto the result.
            assert collected[-1].estimate == result.estimate
            assert collected[-1].samples == result.samples
            # Epochs advanced while the job ran (swap under a running job).
            assert collected[-1].epoch >= collected[0].epoch
            assert all(
                later.samples >= earlier.samples
                for earlier, later in zip(collected, collected[1:])
            )

    def test_shared_cache_makes_second_tenant_cheaper(self, hidden):
        # Alice runs alone first; Bob then submits the same workload over
        # the already-discovered graph and pays strictly less than Alice.
        with make_service(hidden) as service:
            (alice,) = service.run([job_spec("alice")])
            (bob,) = service.run([job_spec("bob")])
            assert alice.met_target and bob.met_target
            assert bob.query_cost < alice.query_cost
            service.ledger.assert_balanced()


class TestAdmissionControl:
    def test_backpressure_raises_when_queue_full(self, hidden):
        config = ServiceConfig(max_pending=2, max_running=1, rows_per_epoch=30)
        with make_service(hidden, config=config) as service:
            for i in range(2):
                service.submit_nowait(job_spec(f"t{i}"))
            with pytest.raises(AdmissionError, match="full"):
                service.submit_nowait(job_spec("overflow"))
            assert service.metrics.jobs_rejected.value == 1
            assert service.metrics.jobs_submitted.value == 2

    def test_async_submit_waits_for_space(self, hidden):
        config = ServiceConfig(max_pending=1, max_running=1, rows_per_epoch=30)
        with make_service(hidden, config=config) as service:

            async def main():
                first = service.submit_nowait(job_spec("alice"))
                # Queue is now full; this submit parks until serve() admits.
                waiter = asyncio.ensure_future(service.submit(job_spec("bob")))
                await asyncio.sleep(0)
                assert not waiter.done()
                await service.serve()
                second = await waiter
                await service.serve()
                return await first.result(), await second.result()

            alice, bob = drive(service.clock, main())
            assert alice.state is JobState.COMPLETED
            assert bob.state is JobState.COMPLETED

    def test_cancelling_a_pending_job_wakes_a_parked_submit(self, sparse):
        config = ServiceConfig(max_pending=1, max_running=1, monitor_interval=None)
        with make_service(sparse, config=config, seed=3) as service:

            async def main():
                first = service.submit_nowait(job_spec("alice"))
                waiter = asyncio.ensure_future(service.submit(job_spec("bob")))
                await asyncio.sleep(0)
                assert not waiter.done()  # the queue is full
                assert service.cancel(first.job_id)
                assert service.scheduler.queue_depth == 0
                for _ in range(5):
                    await asyncio.sleep(0)
                assert waiter.done()
                second = await waiter
                await service.serve()
                return await second.result()

            bob = drive(service.clock, main())
            assert bob.state is JobState.COMPLETED

    def test_stall_preemption_wakes_a_parked_submit(self, sparse):
        # Alice can pay for one row only: epoch 1 publishes her start
        # alone, unwalkable, and epoch 2 stalls.  The stall preempts her
        # and drains Bob from the queue; Carol, parked behind Bob, must
        # get his slot instead of waiting forever.
        config = ServiceConfig(max_pending=1, max_running=1, monitor_interval=None)
        with make_service(sparse, config=config, seed=3) as service:

            async def main():
                service.submit_nowait(job_spec("alice", budget=1))
                bob = asyncio.ensure_future(service.submit(job_spec("bob")))
                carol = asyncio.ensure_future(service.submit(job_spec("carol")))
                await asyncio.sleep(0)
                await service.serve()
                assert carol.done()
                return await (await bob).result(), await (await carol).result()

            bob, carol = drive(service.clock, main())
            assert (bob.state, bob.reason) == (JobState.PREEMPTED, "stalled")
            assert carol.state is JobState.COMPLETED

    def test_charged_backend_rejected(self, hidden):
        with make_service(hidden) as service:
            with pytest.raises(AdmissionError, match="'charged' issues its own"):
                service.submit_nowait(job_spec("alice", backend="charged"))
            assert service.metrics.jobs_rejected.value == 1

    def test_submit_after_close_refused(self, hidden):
        service = make_service(hidden)
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.submit_nowait(job_spec("alice"))

    def test_cancel_pending_and_running(self, hidden):
        with make_service(hidden) as service:
            handle = service.submit_nowait(job_spec("alice"))
            assert service.cancel(handle.job_id)
            assert handle.state is JobState.CANCELLED
            assert not service.cancel(handle.job_id)  # already terminal
            assert not service.cancel("no-such-job")
            result = drive(service.clock, handle.result())
            assert result.reason == "cancelled"


class TestBudgetsAndPreemption:
    def test_underfunded_tenant_is_preempted_with_partial(self, hidden):
        specs = [
            job_spec("rich", budget=200, error_target=0.6),
            job_spec("poor", budget=10, error_target=0.01),
        ]
        with make_service(hidden) as service:
            rich, poor = service.run(specs)
            assert poor.state is JobState.PREEMPTED
            assert poor.reason == "budget-exhausted"
            assert not poor.met_target
            # The partial result is still a usable estimate.
            assert poor.samples > 0 and np.isfinite(poor.estimate)
            assert poor.query_cost <= 10
            assert rich.state is JobState.COMPLETED
            service.ledger.assert_balanced()

    def test_round_limit_completes_unmet(self, hidden):
        config = ServiceConfig(
            rows_per_epoch=30, max_rounds_per_job=2, min_partial_samples=8
        )
        with make_service(hidden, config=config) as service:
            (result,) = service.run([job_spec("alice", error_target=1e-9)])
            assert result.state is JobState.COMPLETED
            assert result.reason == "round-limit"
            assert not result.met_target
            assert result.rounds == 2

    def test_all_tenants_budget_dead_stalls_to_preemption(self, hidden):
        # Nobody can pay for the first crawl row: no topology ever exists.
        with make_service(hidden) as service:
            (result,) = service.run([job_spec("alice", budget=0)])
            assert result.state is JobState.FAILED
            assert result.reason == "no-topology"
            assert service.api.query_cost == 0

    def test_global_budget_exhaustion_is_flagged(self, hidden):
        from repro.osn import QueryBudget

        api = SocialNetworkAPI(hidden, budget=QueryBudget(25))
        service = SamplingService(
            api,
            0,
            config=ServiceConfig(rows_per_epoch=30, max_rounds_per_job=3),
            latency=LATENCY,
            seed=5,
        )
        with service:
            (result,) = service.run([job_spec("alice", budget=None)])
            assert service.budget_exhausted
            assert api.query_cost <= 25
            assert result.samples > 0  # still estimated over what settled


class TestMonitor:
    def test_monitor_samples_on_schedule(self, hidden):
        config = ServiceConfig(rows_per_epoch=30, monitor_interval=2.0)
        with make_service(hidden, config=config) as service:
            service.run([job_spec("alice")])
            times = [s.clock_seconds for s in service.metrics.samples]
            assert times  # the run spans several simulated seconds
            assert times == [2.0 * (i + 1) for i in range(len(times))]

    def test_monitor_disabled(self, hidden):
        config = ServiceConfig(rows_per_epoch=30, monitor_interval=None)
        with make_service(hidden, config=config) as service:
            service.run([job_spec("alice")])
            assert service.metrics.samples == []


class TestLifecycle:
    def test_serve_reentrancy_refused(self, hidden):
        with make_service(hidden) as service:

            async def main():
                service.submit_nowait(job_spec("alice"))
                serving = asyncio.ensure_future(service.serve())
                await asyncio.sleep(0)
                with pytest.raises(ConfigurationError, match="already running"):
                    await service.serve()
                await serving

            drive(service.clock, main())

    def test_close_is_idempotent(self, hidden):
        service = make_service(hidden)
        service.run([job_spec("alice")])
        service.close()
        service.close()

    def test_each_published_epoch_becomes_the_round_topology(self, hidden):
        with make_service(hidden) as service:
            job = service.submit_nowait(job_spec("alice"))
            epochs = []
            while service.scheduler.has_work:
                drive(service.clock, service.step())
                current = service.publisher.current
                assert service._topology is current
                epochs.append(current.epoch)
            assert epochs == sorted(epochs) and epochs[-1] >= 2
            labels = [partial.epoch for partial in service.jobs[job.job_id].partials]
            assert labels and set(labels) <= set(epochs)

    def test_serve_drains_and_can_serve_again(self, hidden):
        with make_service(hidden) as service:
            (first,) = service.run([job_spec("alice")])
            (second,) = service.run([job_spec("bob")])
            assert first.state is JobState.COMPLETED
            assert second.state is JobState.COMPLETED
            # Bob reused Alice's rows: strictly cheaper.
            assert second.query_cost < first.query_cost


class TestConfigValidation:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("max_pending", 0),
            ("max_running", 0),
            ("rows_per_epoch", 0),
            ("grace_rounds", -1),
            ("monitor_interval", 0.0),
            ("slab_storage", "file"),
            ("slab_storage", "tape"),
        ],
    )
    def test_bad_values(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ServiceConfig(**{field: value})


class TestHttpAdapter:
    def test_create_app_requires_fastapi(self, hidden):
        try:
            import fastapi  # noqa: F401

            has_fastapi = True
        except ImportError:
            has_fastapi = False
        with make_service(hidden) as service:
            if has_fastapi:  # pragma: no cover - env-dependent
                assert create_app(service) is not None
            else:
                with pytest.raises(ConfigurationError, match="fastapi"):
                    create_app(service)
