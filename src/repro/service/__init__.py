"""Sampling-as-a-service: a multi-tenant serving layer over one shared graph.

ROADMAP open item 1 made concrete: the §2.4 client-side cache
(:class:`~repro.graphs.discovered.DiscoveredGraph`) becomes a multi-tenant
asset.  One :class:`SamplingService` multiplexes many concurrent estimation
jobs — each an :class:`~repro.core.dispatch.EstimationJobSpec`, each with
its own tenant, error target, and unique-node budget — over a single
charged API, a single crawler and a single topology publisher, with every
walk round run in process over the current epoch.  Rows any tenant pays for
are cached for everyone, so N concurrent tenants spend strictly fewer
queries than N isolated runs at the same accuracy
(``benchmarks/bench_service.py`` measures exactly this).

The pieces:

* :mod:`repro.service.jobs` — job specs in flight: lifecycle states,
  streamed partial estimates, terminal results, tenant-facing handles;
* :mod:`repro.service.scheduler` — bounded-queue admission control,
  FIFO promotion, per-tenant budget views over the
  :class:`~repro.osn.accounting.TenantLedger`, crawl-driver rotation;
* :mod:`repro.service.server` — the epoch loop itself plus the optional
  FastAPI adapter (:func:`create_app`);
* :mod:`repro.service.metrics` — counters, gauges, latency stats, and
  the background monitor worker's samples;
* :mod:`repro.service.checkpoint` — crash-transparent snapshots: the
  whole campaign (rows, accounting, job refinement, RNG positions) as
  one atomic JSON document, resumed bit-identically by
  :meth:`SamplingService.resume` without re-paying any query.

Everything async runs on the service clock
(:class:`~repro.crawl.clock.FakeClock` under
:func:`~repro.crawl.clock.drive` in tests), so every interleaving —
admission, preemption on budget exhaustion, epoch swap under running
jobs — replays bit for bit.
"""

from repro.service.checkpoint import CHECKPOINT_VERSION
from repro.service.jobs import (
    Job,
    JobHandle,
    JobResult,
    JobState,
    PartialEstimate,
)
from repro.service.metrics import (
    Counter,
    Gauge,
    LatencyStat,
    MonitorSample,
    ServiceMetrics,
)
from repro.service.scheduler import JobScheduler
from repro.service.server import (
    SERVICE_BACKENDS,
    SamplingService,
    ServiceConfig,
    create_app,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "SamplingService",
    "ServiceConfig",
    "SERVICE_BACKENDS",
    "create_app",
    "Job",
    "JobHandle",
    "JobResult",
    "JobState",
    "PartialEstimate",
    "JobScheduler",
    "ServiceMetrics",
    "Counter",
    "Gauge",
    "LatencyStat",
    "MonitorSample",
]
