"""Job lifecycle: states, partial estimates, results, handles.

A *job* is one tenant's request — an
:class:`~repro.core.dispatch.EstimationJobSpec` — moving through the
serving layer: admitted into the bounded queue, promoted to RUNNING, fed
one WALK-ESTIMATE round per service epoch, streamed a
:class:`PartialEstimate` after each round, and finally resolved to a
terminal state with a :class:`JobResult`.

Everything here is loop-confined: jobs are mutated only from the service's
event loop, handles await plain :class:`asyncio.Event`/:class:`asyncio.Queue`
primitives, and nothing touches wall-clock time — so job histories replay
bit for bit under :func:`~repro.crawl.clock.drive`.
"""

from __future__ import annotations

import asyncio
import enum
from dataclasses import dataclass
from typing import AsyncIterator, List, Optional

import numpy as np

from repro.core.dispatch import EstimationJobSpec
from repro.errors import ConfigurationError
from repro.estimators.aggregates import importance_estimate


class JobState(str, enum.Enum):
    """Lifecycle states of a service job.

    ``PENDING → RUNNING → {COMPLETED, PREEMPTED, FAILED, CANCELLED}``;
    ``REJECTED`` is assigned at submission when admission control refuses
    the spec outright (it never reaches the queue).
    """

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    PREEMPTED = "preempted"
    FAILED = "failed"
    REJECTED = "rejected"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """True once the job can no longer change state."""
        return self not in (JobState.PENDING, JobState.RUNNING)


@dataclass(frozen=True)
class PartialEstimate:
    """One refinement streamed to a tenant after a service round.

    The running self-normalized importance estimate over *every* sample
    the job has accumulated so far — each round's accepted WALK-ESTIMATE
    samples fold in, so successive partials converge as coverage and
    sample count grow.
    """

    job_id: str
    tenant: str
    round_index: int
    epoch: int
    estimate: float
    stderr: float
    samples: int
    query_cost: int
    clock_seconds: float


@dataclass(frozen=True)
class JobResult:
    """Terminal outcome of a job."""

    job_id: str
    tenant: str
    state: JobState
    estimate: float
    stderr: float
    samples: int
    rounds: int
    query_cost: int
    met_target: bool
    reason: str
    clock_seconds: float


class Job:
    """Service-side record of one submitted spec.

    Accumulates accepted sample values/weights across rounds, owns the
    job's private RNG stream (spawned deterministically at submission),
    and fans partials out through a stream queue that :class:`JobHandle`
    consumes.
    """

    def __init__(
        self, job_id: str, spec: EstimationJobSpec, rng: np.random.Generator
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        self.rng = rng
        self.state = JobState.PENDING
        self.rounds = 0
        #: Rounds run since the tenant's budget hit zero (grace window).
        self.exhausted_rounds = 0
        self.submitted_at = 0.0
        self.first_partial_at: Optional[float] = None
        # One growing buffer per array; the first ``_samples`` entries
        # are every absorbed sample, in order.
        self._values = np.empty(0, dtype=np.float64)
        self._weights = np.empty(0, dtype=np.float64)
        self._samples = 0
        self._stream: asyncio.Queue = asyncio.Queue()
        self._done = asyncio.Event()
        self.partials: List[PartialEstimate] = []
        self.result: Optional[JobResult] = None

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    @property
    def tenant(self) -> str:
        """The spec's accounting principal."""
        return self.spec.tenant

    @property
    def samples(self) -> int:
        """Accepted samples accumulated so far."""
        return self._samples

    def absorb(self, values: np.ndarray, weights: np.ndarray) -> None:
        """Fold one round's accepted samples into the running estimate."""
        values = np.asarray(values, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if values.shape != weights.shape:
            raise ConfigurationError(
                f"values/weights shape mismatch: {values.shape} vs {weights.shape}"
            )
        end = self._samples + values.size
        if end > self._values.size:
            capacity = max(2 * self._values.size, end)
            self._values = _grown(self._values, self._samples, capacity)
            self._weights = _grown(self._weights, self._samples, capacity)
        self._values[self._samples : end] = values.ravel()
        self._weights[self._samples : end] = weights.ravel()
        self._samples = end

    def sample_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every absorbed ``(values, weights)`` pair, in absorb order.

        Read-only views of the job's buffers, not copies, so no caller
        can write into the job's state.  :meth:`absorb` never rewrites
        the filled prefix, so a view keeps its contents after later
        rounds.
        """
        values = self._values[: self._samples]
        weights = self._weights[: self._samples]
        values.flags.writeable = False
        weights.flags.writeable = False
        return values, weights

    def current_estimate(self) -> tuple[float, float]:
        """``(estimate, stderr)`` over everything absorbed so far.

        :func:`~repro.estimators.aggregates.importance_estimate` of the
        absorbed samples — the statistic the service compares against the
        spec's ``error_target``.  ``(nan, inf)`` before any sample.  The sums
        run over the contiguous sample buffer, the same float64 sequence
        however the samples arrived, so the partials are bit-identical to
        summing the concatenation of every absorbed round.
        """
        return importance_estimate(*self.sample_arrays())

    def target_met(self, min_samples: int) -> bool:
        """Whether the spec's error target is satisfied.

        Jobs without an ``error_target`` never meet one — they run until
        another stop rule (round limit, preemption) fires.  At least
        *min_samples* accepted samples are required before the standard
        error is trusted; early rounds of a tiny published graph would
        otherwise report spuriously small errors.
        """
        if self.spec.error_target is None or self._samples < min_samples:
            return False
        _, stderr = self.current_estimate()
        return stderr <= self.spec.error_target

    # ------------------------------------------------------------------
    # Streaming + resolution
    # ------------------------------------------------------------------
    def push_partial(self, partial: PartialEstimate) -> None:
        """Record a partial and offer it to the handle's stream."""
        self.partials.append(partial)
        self._stream.put_nowait(partial)

    def resolve(self, result: JobResult) -> None:
        """Enter a terminal state; wakes every waiter, closes the stream."""
        if self.result is not None:
            raise ConfigurationError(f"job {self.job_id} is already resolved")
        if not result.state.terminal:
            raise ConfigurationError(
                f"cannot resolve job {self.job_id} to non-terminal {result.state}"
            )
        self.state = result.state
        self.result = result
        self._stream.put_nowait(None)  # stream sentinel
        self._done.set()

    def handle(self) -> "JobHandle":
        """A tenant-facing handle on this job."""
        return JobHandle(self)

    def __repr__(self) -> str:
        return (
            f"Job(id={self.job_id!r}, tenant={self.tenant!r}, "
            f"state={self.state.value}, rounds={self.rounds}, "
            f"samples={self._samples})"
        )


def _grown(buffer: np.ndarray, used: int, capacity: int) -> np.ndarray:
    """A *capacity*-entry copy of *buffer* holding its first *used* entries."""
    grown = np.empty(capacity, dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


class JobHandle:
    """What a tenant holds: stream partials, await the result.

    Thin and loop-friendly — both entry points are coroutines awaiting the
    job's own primitives, so handles compose with any code running under
    the service's clock.
    """

    def __init__(self, job: Job) -> None:
        self._job = job

    @property
    def job_id(self) -> str:
        """The service-assigned job id."""
        return self._job.job_id

    @property
    def tenant(self) -> str:
        """The spec's accounting principal."""
        return self._job.tenant

    @property
    def state(self) -> JobState:
        """The job's current lifecycle state."""
        return self._job.state

    @property
    def partials(self) -> List[PartialEstimate]:
        """Every partial streamed so far (also consumable via
        :meth:`stream`)."""
        return list(self._job.partials)

    async def stream(self) -> AsyncIterator[PartialEstimate]:
        """Yield partial estimates as the service produces them.

        Terminates when the job resolves; partials produced before the
        iteration started are not replayed (read :attr:`partials` for the
        full history).
        """
        while True:
            item = await self._job._stream.get()
            if item is None:
                return
            yield item

    async def result(self) -> JobResult:
        """Wait until the job resolves and return its terminal result."""
        await self._job._done.wait()
        assert self._job.result is not None
        return self._job.result
