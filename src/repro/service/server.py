"""The sampling service: one shared discovered graph, many tenants.

:class:`SamplingService` is the asyncio front end over everything PR 3–5
built: one charged :class:`~repro.osn.api.SocialNetworkAPI` feeding one
shared :class:`~repro.graphs.discovered.DiscoveredGraph`, compacted into
topology epochs by a :class:`~repro.crawl.publisher.TopologyPublisher`,
and walked in process over the current epoch — multiplexed across every
admitted job.  §2.4 is the whole economics: a row any tenant pays for is
cached forever, so concurrent tenants are strictly cheaper than isolated
ones (the property ``benchmarks/bench_service.py`` measures).

**The epoch loop.**  Each iteration of :meth:`SamplingService.serve`:

1. admits pending jobs FIFO up to the concurrency cap;
2. picks one *crawl driver* by budget-aware round-robin and grows the
   discovered graph by one chunk, attributed to that tenant's ledger
   account and capped at its remaining budget;
3. publishes a fresh topology epoch when the graph grew, and points the
   service's rounds at it — the superseded epoch's graph is freed once
   nothing references it;
4. runs one WALK-ESTIMATE round per running job through the unified
   :func:`repro.core.estimate` dispatcher (the service never calls a
   front end directly), in process over the current epoch's graph: a
   ``batch`` job as one shard, a ``sharded`` job as the shard plan of
   ``config.n_workers`` shards on an
   :class:`~repro.walks.parallel.InlineExecutor`.  The plan, not the
   executor, fixes a round's result, so the service starts no worker
   process.  It then folds the accepted samples into the job's running
   importance estimate and streams a
   :class:`~repro.service.jobs.PartialEstimate`;
5. resolves jobs whose error target is met, whose round limit is
   reached, or whose tenant budget is exhausted past the grace window
   (preemption).

**Determinism.**  All waiting runs on the service clock — a
:class:`~repro.crawl.clock.FakeClock` under :func:`~repro.crawl.clock.drive`
in tests — and all randomness flows from one seed through per-job spawned
streams, so every interleaving (admission, preemption, epoch swap under
running jobs) replays bit for bit.

**Hygiene.**  Every epoch is an in-process graph, and rounds run in
process, so a campaign creates no ``/dev/shm`` segment, no file and no
worker process; ``tests/crawl/test_service_hygiene.py`` pins this while
the campaign runs, not only after :meth:`SamplingService.close`.

The optional HTTP adapter (:func:`create_app`) maps the same job API onto
FastAPI when it is installed; the core service has no dependency on it.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.dispatch import EstimationJobSpec, estimate
from repro.crawl.clock import FakeClock, LatencyLike, drive
from repro.crawl.crawler import AsyncCrawler
from repro.crawl.publisher import PublishedTopology, TopologyPublisher
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    QueryBudgetExceededError,
    check_fields,
    checked,
)
from repro.osn.accounting import TenantLedger
from repro.rng import RngLike, ensure_rng, spawn
from repro.service import checkpoint as checkpoint_module
from repro.service.jobs import Job, JobHandle, JobResult, JobState, PartialEstimate
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import JobScheduler
from repro.walks.parallel import InlineExecutor

#: Backends the service can run over the shared free topology.  The
#: charged backend issues per-sample API queries of its own and would
#: bypass the ledger's phase attribution — submit it directly through
#: :func:`repro.core.estimate` instead.
SERVICE_BACKENDS = ("batch", "sharded")


@dataclass(frozen=True)
class ServiceConfig:
    """Operating knobs of a :class:`SamplingService`.

    Attributes
    ----------
    max_pending / max_running:
        Backpressure bound and concurrency cap (see
        :class:`~repro.service.scheduler.JobScheduler`).
    rows_per_epoch / batch_size / concurrency / max_depth:
        Crawl chunk shape per epoch, handed to the shared
        :class:`~repro.crawl.crawler.AsyncCrawler`.
    max_rounds_per_job:
        Hard per-job round limit; a job reaching it resolves COMPLETED
        with ``met_target=False`` when its target is still open.
    min_partial_samples:
        Accepted samples required before an error target may be declared
        met — guards against spuriously small standard errors on the
        first tiny epochs.
    grace_rounds:
        Free refinement rounds a budget-exhausted job may still run
        (walks cost nothing; only crawling charges) before it is
        preempted with its partial result.
    monitor_interval:
        Simulated seconds between background monitor samples; ``None``
        disables the monitor worker.
    n_workers:
        Shard count of ``sharded`` jobs.  It fixes their shard plan and
        so their RNG streams (:func:`~repro.walks.parallel.shard_rngs`);
        the shards run in process, one after another.  ``batch`` jobs
        always run as one shard.
    mp_context / slab_storage:
        Ignored: the service starts no worker process and copies no epoch
        into a slab.  The fields stay because existing callers pass them,
        and checkpoint documents record them with the rest of the config.
        ``slab_storage`` accepts only ``"shm"``.
    checkpoint_path:
        Where the service writes periodic checkpoints (atomic JSON; see
        :mod:`repro.service.checkpoint`); ``None`` disables them.
    checkpoint_every:
        Epochs between periodic checkpoints when a path is configured.

    Each number field declares its kind and floor (:func:`~repro.errors.checked`);
    a field of the wrong kind (a bool is no number), NaN or below its
    floor is refused with a :class:`~repro.errors.ConfigurationError`
    naming it, and a checkpoint's config with a :class:`~repro.errors.CheckpointError`.
    """

    max_pending: int = checked(Integral, 1, default=16)
    max_running: int = checked(Integral, 1, default=8)
    rows_per_epoch: int = checked(Integral, 1, default=40)
    batch_size: int = checked(Integral, 1, default=8)
    concurrency: int = checked(Integral, 1, default=4)
    max_depth: Optional[int] = checked(Integral, 0, optional=True, default=None)
    max_rounds_per_job: int = checked(Integral, 1, default=8)
    min_partial_samples: int = checked(Integral, 1, default=8)
    grace_rounds: int = checked(Integral, 0, default=2)
    monitor_interval: Optional[float] = checked(Real, optional=True, default=1.0)
    n_workers: int = checked(Integral, 1, default=1)
    mp_context: str = "fork"
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = checked(Integral, 1, default=1)
    slab_storage: str = checked(("shm",), default="shm")

    def __post_init__(self) -> None:
        check_fields("ServiceConfig", vars(self), ServiceConfig)
        if self.monitor_interval is not None and not 0.0 < self.monitor_interval:
            raise ConfigurationError(
                f"monitor_interval must be > 0 or None, got {self.monitor_interval}"
            )


class SamplingService:
    """Multi-tenant estimation over one shared discovered graph.

    Parameters
    ----------
    api:
        The charged :class:`~repro.osn.api.SocialNetworkAPI` every tenant
        shares; its counter is the global source of truth the
        :class:`~repro.osn.accounting.TenantLedger` attributes.
    start:
        Crawl origin (jobs may walk from any discovered start).
    config:
        :class:`ServiceConfig` knobs.
    clock / latency:
        Simulated-time plumbing for the crawler and monitor — a
        :class:`~repro.crawl.clock.FakeClock` by default, so
        :meth:`run` replays deterministically under
        :func:`~repro.crawl.clock.drive`.
    seed:
        Root of every job's RNG stream (spawned per submission, in
        submission order).

    Use as a context manager or call :meth:`close`; a closed service
    refuses submissions and epochs.
    """

    def __init__(
        self,
        api,
        start: int = 0,
        *,
        config: Optional[ServiceConfig] = None,
        clock: Optional[FakeClock] = None,
        latency: LatencyLike = None,
        seed: RngLike = None,
    ) -> None:
        self.api = api
        self.start = start
        self.config = config if config is not None else ServiceConfig()
        self.clock = clock if clock is not None else FakeClock()
        self.ledger = TenantLedger(api.counter)
        self.metrics = ServiceMetrics()
        self.scheduler = JobScheduler(
            self.ledger,
            max_pending=self.config.max_pending,
            max_running=self.config.max_running,
        )
        self.crawler = AsyncCrawler(
            api,
            start,
            concurrency=self.config.concurrency,
            batch_size=self.config.batch_size,
            max_depth=self.config.max_depth,
            clock=self.clock,
            latency=latency,
        )
        self.publisher = TopologyPublisher(api.discovered)
        self._rng = ensure_rng(seed)
        self._topology: Optional[PublishedTopology] = None
        self._job_sequence = 0
        self.jobs: Dict[str, Job] = {}
        self.budget_exhausted = False
        self.epochs_run = 0
        self._serving = False
        self._closed = False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _validate(self, spec: EstimationJobSpec) -> None:
        if spec.engine.backend not in SERVICE_BACKENDS:
            raise AdmissionError(
                f"the service runs free-topology backends only "
                f"({', '.join(SERVICE_BACKENDS)}); backend "
                f"{spec.engine.backend!r} issues its own charged queries — "
                f"call repro.core.estimate() directly"
            )

    def _new_job(self, spec: EstimationJobSpec) -> Job:
        self._job_sequence += 1
        job_id = f"job-{self._job_sequence}"
        # One child stream per job, in submission order — determinism does
        # not depend on which tenant's round runs first.
        job = Job(job_id, spec, spawn(self._rng, 1)[0])
        job.submitted_at = self.clock.now
        self.jobs[job_id] = job
        self.metrics.jobs_submitted.inc()
        self.metrics.queue_depth.set(self.scheduler.queue_depth)
        return job

    def submit_nowait(self, spec: EstimationJobSpec) -> JobHandle:
        """Admit *spec* or raise :class:`~repro.errors.AdmissionError`.

        Raises on a full pending queue (backpressure) and on specs the
        service cannot run; nothing is enqueued in either case.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        try:
            self._validate(spec)
            if self.scheduler.queue_depth >= self.scheduler.max_pending:
                raise AdmissionError(
                    f"pending queue is full ({self.scheduler.max_pending} "
                    f"jobs); retry later or await submit()"
                )
        except AdmissionError:
            self.metrics.jobs_rejected.inc()
            raise
        job = self._new_job(spec)
        self.scheduler.offer(job)
        return job.handle()

    async def submit(self, spec: EstimationJobSpec) -> JobHandle:
        """Admit *spec*, waiting for queue space instead of raising.

        Invalid specs still raise :class:`~repro.errors.AdmissionError`
        immediately — waiting cannot fix them.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        try:
            self._validate(spec)
        except AdmissionError:
            self.metrics.jobs_rejected.inc()
            raise
        await self.scheduler.wait_for_space()
        job = self._new_job(spec)
        self.scheduler.offer(job)
        return job.handle()

    def cancel(self, job_id: str) -> bool:
        """Cancel a live job; returns False if already terminal/unknown."""
        job = self.jobs.get(job_id)
        if job is None or job.state.terminal:
            return False
        if job.state is JobState.PENDING:
            self.scheduler.withdraw(job)
        else:
            self.scheduler.retire(job)
        self._resolve(
            job, JobState.CANCELLED, met=False, reason="cancelled", retire=False
        )
        return True

    # ------------------------------------------------------------------
    # The epoch loop
    # ------------------------------------------------------------------
    async def serve(self) -> None:
        """Run epochs until no job is pending or running.

        Safe to call repeatedly (jobs submitted after one serve() drains
        are picked up by the next); concurrent serve() calls are refused.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        if self._serving:
            raise ConfigurationError("serve() is already running")
        self._serving = True
        monitor: Optional[asyncio.Task] = None
        if self.config.monitor_interval is not None:
            monitor = asyncio.ensure_future(self._monitor())
        try:
            while self.scheduler.has_work:
                progressed = await self._epoch()
                if not progressed:
                    self._preempt_stalled()
                self._maybe_checkpoint()
                # One scheduling point per epoch: lets submitters and
                # monitor interleave at a deterministic boundary.
                await self.clock.sleep(0)
        finally:
            self._serving = False
            if monitor is not None:
                monitor.cancel()
                await asyncio.gather(monitor, return_exceptions=True)

    def run(self, specs: Sequence[EstimationJobSpec]) -> List[JobResult]:
        """Synchronous front end: submit *specs*, serve, return results.

        Drives the service's own clock on a fresh event loop
        (:func:`~repro.crawl.clock.drive`), so the whole multi-tenant run
        is a deterministic function of (specs, seed, latency script).
        """

        async def _main() -> List[JobResult]:
            handles = [self.submit_nowait(spec) for spec in specs]
            await self.serve()
            return [await handle.result() for handle in handles]

        return drive(self.clock, _main())

    async def step(self) -> bool:
        """Run exactly one admit→crawl→publish→rounds epoch.

        The externally driven twin of :meth:`serve`'s loop body — an
        orchestrator (or a checkpoint harness) can interleave epochs with
        its own work, e.g. ``while service.scheduler.has_work: await
        service.step(); service.checkpoint(path)``.  Returns whether the
        epoch made progress; a stalled epoch preempts live jobs exactly
        as :meth:`serve` would.  Epoch boundaries are the safe
        checkpoint instants: no crawl batch is in flight and no round is
        half-absorbed.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        if self._serving:
            raise ConfigurationError("serve() is already running")
        progressed = await self._epoch()
        if not progressed and self.scheduler.has_work:
            self._preempt_stalled()
        self._maybe_checkpoint()
        return progressed

    def _maybe_checkpoint(self) -> None:
        """Write the periodic checkpoint when the config asks for one."""
        if (
            self.config.checkpoint_path is not None
            and self.epochs_run % self.config.checkpoint_every == 0
        ):
            checkpoint_module.write(self, self.config.checkpoint_path)

    async def _epoch(self) -> bool:
        """One admit→crawl→publish→rounds iteration; False when stalled."""
        self.epochs_run += 1
        progressed = False
        for job in self.scheduler.admit():
            job.state = JobState.RUNNING
            progressed = True
        self.metrics.queue_depth.set(self.scheduler.queue_depth)
        self.metrics.running_jobs.set(len(self.scheduler.running))

        progressed |= await self._crawl_chunk()

        published = None
        if self.api.discovered.fetched_count:
            published = self.publisher.publish(force=self._topology is None)
        if published is not None:
            self.metrics.epochs_published.inc()
            self._swap_topology()
            progressed = True

        if self._topology is None:
            # Nothing fetched and nothing published: no topology will ever
            # exist (every tenant budget-dead before the first row).
            for job in list(self.scheduler.running):
                self._resolve(job, JobState.FAILED, met=False, reason="no-topology")
            return progressed or not self.scheduler.has_work

        for job in list(self.scheduler.running):
            progressed |= self._run_round(job)
        return progressed

    async def _crawl_chunk(self) -> bool:
        """Grow the shared graph by one driver-funded chunk; True if it did."""
        if self.crawler.finished:
            return False
        driver = self.scheduler.next_driver()
        if driver is None:
            return False
        remaining = self.scheduler.tenant_remaining(driver.tenant)
        rows = self.config.rows_per_epoch
        if remaining is not None:
            rows = min(rows, remaining)
        if rows <= 0:
            return False
        rows_before = self.api.discovered.fetched_count
        clock_before = self.clock.now
        set_tenant = getattr(self.api, "set_tenant", None)
        if set_tenant is not None:
            # A resilient API keys its circuit breakers per tenant; point
            # it at whoever is paying for this chunk.
            set_tenant(driver.tenant)
        with self.ledger.attribute(driver.tenant):
            try:
                await self.crawler.crawl_chunk(max_new_rows=rows)
            except QueryBudgetExceededError:
                # The API's own (global) budget ran dry; rows settled
                # before the raise are attributed and published as usual.
                self.budget_exhausted = True
        new_rows = self.api.discovered.fetched_count - rows_before
        self.metrics.crawl_rows.inc(new_rows)
        self.metrics.crawl_seconds.observe(self.clock.now - clock_before)
        self.metrics.record_cache_rate(self.api.query_cost, self.api.raw_calls)
        return new_rows > 0

    def _swap_topology(self) -> None:
        """Point the rounds at the newest published epoch."""
        self._topology = self.publisher.acquire()

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
        # One in-process path: the dispatcher runs a batch job over
        # graph= as one shard and a sharded job over engine=, its
        # n_workers-shard plan on the same graph.
        executor = InlineExecutor(graph, self.config.n_workers)
        result = estimate(spec, graph=graph, engine=executor, seed=job.rng)
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

    def _stream_partial(self, job: Job) -> None:
        est, stderr = job.current_estimate()
        partial = PartialEstimate(
            job_id=job.job_id,
            tenant=job.tenant,
            round_index=job.rounds,
            epoch=self._topology.epoch,
            estimate=est,
            stderr=stderr,
            samples=job.samples,
            query_cost=self.ledger.charged(job.tenant),
            clock_seconds=self.clock.now,
        )
        if job.first_partial_at is None:
            job.first_partial_at = self.clock.now
            self.metrics.first_partial_latency.observe(
                self.clock.now - job.submitted_at
            )
        job.push_partial(partial)
        self.metrics.partials_streamed.inc()

    def _check_completion(self, job: Job) -> None:
        if job.target_met(self.config.min_partial_samples):
            self._resolve(job, JobState.COMPLETED, met=True, reason="error-target")
            return
        if job.rounds >= self.config.max_rounds_per_job:
            self._resolve(job, JobState.COMPLETED, met=False, reason="round-limit")
            return
        remaining = self.scheduler.tenant_remaining(job.tenant)
        if remaining == 0:
            # Budget-dead tenants keep their free refinement grace window;
            # after it, the partial result is the result.
            job.exhausted_rounds += 1
            if job.exhausted_rounds > self.config.grace_rounds:
                self._resolve(
                    job, JobState.PREEMPTED, met=False, reason="budget-exhausted"
                )

    def _preempt_stalled(self) -> None:
        """Resolve every live job when an epoch made no progress at all."""
        for job in list(self.scheduler.running):
            self._resolve(job, JobState.PREEMPTED, met=False, reason="stalled")
        for job in list(self.scheduler.pending):
            self.scheduler.withdraw(job)
            self._resolve(
                job, JobState.PREEMPTED, met=False, reason="stalled", retire=False
            )

    def _resolve(
        self,
        job: Job,
        state: JobState,
        *,
        met: bool,
        reason: str,
        retire: bool = True,
    ) -> None:
        est, stderr = job.current_estimate()
        result = JobResult(
            job_id=job.job_id,
            tenant=job.tenant,
            state=state,
            estimate=est,
            stderr=stderr,
            samples=job.samples,
            rounds=job.rounds,
            query_cost=self.ledger.charged(job.tenant),
            met_target=met,
            reason=reason,
            clock_seconds=self.clock.now,
        )
        if retire and job in self.scheduler.running:
            self.scheduler.retire(job)
        job.resolve(result)
        counters = {
            JobState.COMPLETED: self.metrics.jobs_completed,
            JobState.PREEMPTED: self.metrics.jobs_preempted,
            JobState.FAILED: self.metrics.jobs_failed,
            JobState.CANCELLED: self.metrics.jobs_cancelled,
        }
        counters[state].inc()
        self.metrics.job_turnaround.observe(self.clock.now - job.submitted_at)
        self.metrics.running_jobs.set(len(self.scheduler.running))

    async def _monitor(self) -> None:
        """Background worker: one metrics sample per interval, forever.

        Cancelled by :meth:`serve` on exit; sleeps on the service clock so
        samples land at deterministic simulated times.
        """
        while True:
            await self.clock.sleep(self.config.monitor_interval)
            self.metrics.observe_monitor(
                clock_seconds=self.clock.now,
                queue_depth=self.scheduler.queue_depth,
                running_jobs=len(self.scheduler.running),
                query_cost=self.api.query_cost,
                raw_calls=self.api.raw_calls,
                published_epochs=self.metrics.epochs_published.value,
            )

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, path: Optional[Union[str, Path]] = None) -> Dict[str, Any]:
        """Snapshot the campaign; optionally write it atomically to *path*.

        Call at an epoch boundary (between :meth:`step` calls, or after
        :meth:`serve` returns) — see :mod:`repro.service.checkpoint` for
        exactly what the document carries.  Returns the document either
        way.
        """
        document = checkpoint_module.capture(self)
        if path is not None:
            checkpoint_module.save(document, path)
        return document

    @classmethod
    def resume(
        cls,
        api,
        source: Union[str, Path, Mapping[str, Any]],
        *,
        clock: Optional[FakeClock] = None,
        latency: LatencyLike = None,
    ) -> "SamplingService":
        """Rebuild a service from a checkpoint, paying zero extra queries.

        *source* is a checkpoint path or an in-memory document from
        :meth:`checkpoint`; *api* must be a fresh charged API over the
        same hidden network, its discovered store and counter untouched
        (both are restored from the snapshot — §2.4 makes every
        already-paid-for row free again).  The resumed service continues
        the campaign bit-identically to one that never stopped: same
        estimates, same partial stream, same counter and ledger state —
        the pin ``tests/faults/test_service_checkpoint.py`` asserts.
        *latency* must be the original campaign's script; the restored
        batch counter keeps its cycle position.
        """
        if isinstance(source, (str, Path)):
            document = checkpoint_module.load(source)
        else:
            document = checkpoint_module.validate(source)
        owner, keys = "checkpoint config", ServiceConfig.__dataclass_fields__.keys()
        fields = checkpoint_module.read_record(owner, document["config"], keys)
        config = checkpoint_module.rebuild(owner, ServiceConfig, **fields)
        service = cls(
            api,
            start=document["start"],
            config=config,
            clock=clock,
            latency=latency,
        )
        checkpoint_module.restore(service, document)
        return service

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Mark the service closed: no further submission or epoch.
        Idempotent."""
        self._closed = True

    def __enter__(self) -> "SamplingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SamplingService(jobs={len(self.jobs)}, "
            f"pending={self.scheduler.queue_depth}, "
            f"running={len(self.scheduler.running)}, "
            f"fetched={self.api.discovered.fetched_count})"
        )


# ----------------------------------------------------------------------
# Optional HTTP adapter
# ----------------------------------------------------------------------
def create_app(service: SamplingService):
    """FastAPI adapter over an in-process service (optional dependency).

    Exposes ``POST /jobs`` (submit an
    :class:`~repro.core.dispatch.EstimationJobSpec` JSON document),
    ``GET /jobs/{job_id}`` (state + partials), ``GET /jobs/{job_id}/stream``
    (the recorded partial-estimate stream as NDJSON, terminated by the
    result once resolved), and ``GET /metrics``.
    The core service never imports FastAPI; environments without it get a
    :class:`~repro.errors.ConfigurationError` here and full functionality
    through :class:`SamplingService` directly.
    """
    try:
        import fastapi
    except ImportError as exc:
        raise ConfigurationError(
            "the HTTP adapter requires fastapi (optional dependency); "
            "use SamplingService directly or install fastapi"
        ) from exc
    return _build_app(fastapi, service)


def _build_app(fastapi, service: SamplingService):  # pragma: no cover
    app = fastapi.FastAPI(title="walk-not-wait sampling service")

    @app.post("/jobs")
    def submit(spec: dict):
        try:
            handle = service.submit_nowait(EstimationJobSpec.from_dict(spec))
        except AdmissionError as exc:
            raise fastapi.HTTPException(status_code=429, detail=str(exc)) from exc
        except ConfigurationError as exc:
            raise fastapi.HTTPException(status_code=422, detail=str(exc)) from exc
        return {"job_id": handle.job_id, "state": handle.state.value}

    @app.get("/jobs/{job_id}")
    def status(job_id: str):
        job = service.jobs.get(job_id)
        if job is None:
            raise fastapi.HTTPException(status_code=404, detail="unknown job")
        body = {
            "job_id": job.job_id,
            "tenant": job.tenant,
            "state": job.state.value,
            "rounds": job.rounds,
            "samples": job.samples,
            "partials": [vars(p) for p in job.partials],
        }
        if job.result is not None:
            result = vars(job.result).copy()
            result["state"] = job.result.state.value
            body["result"] = result
        return body

    @app.get("/jobs/{job_id}/stream")
    def stream(job_id: str):
        from fastapi.responses import StreamingResponse

        job = service.jobs.get(job_id)
        if job is None:
            raise fastapi.HTTPException(status_code=404, detail="unknown job")

        def ndjson():
            for partial in job.partials:
                yield json.dumps(vars(partial)) + "\n"
            if job.result is not None:
                result = vars(job.result).copy()
                result["state"] = job.result.state.value
                yield json.dumps({"result": result}) + "\n"

        return StreamingResponse(ndjson(), media_type="application/x-ndjson")

    @app.get("/metrics")
    def metrics():
        return service.metrics.snapshot()

    return app
