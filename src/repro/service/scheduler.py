"""Admission control and per-tenant budget scheduling.

The scheduler is the deterministic brain between the submit path and the
service's epoch loop:

* **Backpressure** — a bounded pending queue.  :meth:`JobScheduler.offer`
  raises :class:`~repro.errors.AdmissionError` when full (the non-blocking
  path); :meth:`JobScheduler.wait_for_space` lets an async submitter park
  until a slot frees, woken in FIFO order whenever a job leaves the queue
  — admitted, or withdrawn unadmitted by a cancel or a stall preemption.
* **Admission** — strict FIFO promotion from pending to running, capped at
  ``max_running`` concurrent jobs.  FIFO keeps the whole service replayable:
  admission order is a pure function of submission order.
* **Budget accounting** — per-tenant unique-node budgets enforced against a
  :class:`~repro.osn.accounting.TenantLedger`.  A tenant's *declared* budget
  is the minimum ``query_budget`` across its live jobs (one principal, one
  purse); :meth:`tenant_remaining` is what admission and crawl-chunk sizing
  consult, and the ledger guarantees the sum of what tenants spend equals
  the global :class:`~repro.osn.accounting.QueryCounter` charge.
* **Crawl-driver rotation** — each epoch needs one tenant to pay for the
  next crawl chunk.  :meth:`next_driver` rotates round-robin through the
  running jobs whose tenants still have budget, so cost spreads instead of
  landing on whoever submitted first.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.errors import AdmissionError, ConfigurationError
from repro.osn.accounting import TenantLedger
from repro.service.jobs import Job


class JobScheduler:
    """Bounded FIFO admission with per-tenant budget views.

    Parameters
    ----------
    ledger:
        The service's :class:`~repro.osn.accounting.TenantLedger`; budget
        arithmetic reads attributed charges from it.
    max_pending:
        Backpressure bound — jobs queued but not yet running.
    max_running:
        Concurrency bound — jobs receiving rounds each epoch.
    """

    def __init__(
        self, ledger: TenantLedger, *, max_pending: int = 16, max_running: int = 8
    ) -> None:
        if max_pending < 1:
            raise ConfigurationError(f"max_pending must be >= 1, got {max_pending}")
        if max_running < 1:
            raise ConfigurationError(f"max_running must be >= 1, got {max_running}")
        self.ledger = ledger
        self.max_pending = max_pending
        self.max_running = max_running
        self.pending: Deque[Job] = deque()
        self.running: List[Job] = []
        self._space_waiters: Deque[asyncio.Future] = deque()
        self._driver_cursor = 0

    # ------------------------------------------------------------------
    # Submission side
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs admitted but not yet running."""
        return len(self.pending)

    @property
    def has_work(self) -> bool:
        """True while any job is pending or running."""
        return bool(self.pending or self.running)

    def offer(self, job: Job) -> None:
        """Enqueue *job*, or raise :class:`AdmissionError` when full."""
        if len(self.pending) >= self.max_pending:
            raise AdmissionError(
                f"pending queue is full ({self.max_pending} jobs); retry "
                f"later or await submit()"
            )
        self.pending.append(job)

    async def wait_for_space(self) -> None:
        """Park until the pending queue has room (FIFO wake order)."""
        while len(self.pending) >= self.max_pending:
            future = asyncio.get_running_loop().create_future()
            self._space_waiters.append(future)
            await future

    def _wake_space_waiters(self) -> None:
        while self._space_waiters and len(self.pending) < self.max_pending:
            waiter = self._space_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self) -> List[Job]:
        """Promote pending jobs FIFO until ``max_running`` is reached.

        Returns the newly promoted jobs (state flipped to RUNNING by the
        caller, which owns lifecycle bookkeeping).
        """
        promoted: List[Job] = []
        while self.pending and len(self.running) < self.max_running:
            job = self.pending.popleft()
            self.running.append(job)
            promoted.append(job)
        if promoted:
            self._wake_space_waiters()
        return promoted

    def withdraw(self, job: Job) -> None:
        """Remove a pending job that leaves without being admitted.

        A cancel or a stall preemption frees its queue slot just as an
        admission does, so parked submitters are woken here too.
        """
        self.pending.remove(job)
        self._wake_space_waiters()

    def retire(self, job: Job) -> None:
        """Remove a resolved job from the running set."""
        try:
            index = self.running.index(job)
        except ValueError:
            raise ConfigurationError(
                f"job {job.job_id} is not in the running set"
            ) from None
        self.running.pop(index)
        # Keep the rotation cursor pointing at the same *next* job.
        if index < self._driver_cursor:
            self._driver_cursor -= 1

    # ------------------------------------------------------------------
    # Budget views
    # ------------------------------------------------------------------
    def tenant_limit(self, tenant: str) -> Optional[int]:
        """The tenant's declared budget: min across its live jobs.

        ``None`` (unlimited) when no live job of the tenant declares one —
        a declared budget always wins over an undeclared sibling, because
        one principal cannot spend past its strictest promise.
        """
        limits = [
            job.spec.query_budget
            for job in list(self.pending) + self.running
            if job.tenant == tenant and job.spec.query_budget is not None
        ]
        return min(limits) if limits else None

    def tenant_remaining(self, tenant: str) -> Optional[int]:
        """Unique-node queries the tenant may still cause; None = unlimited."""
        limit = self.tenant_limit(tenant)
        if limit is None:
            return None
        return max(0, limit - self.ledger.charged(tenant))

    def budgets(self) -> Dict[str, Optional[int]]:
        """Declared budget per tenant with live jobs (diagnostics)."""
        tenants = {job.tenant for job in list(self.pending) + self.running}
        return {tenant: self.tenant_limit(tenant) for tenant in sorted(tenants)}

    # ------------------------------------------------------------------
    # Crawl-driver rotation
    # ------------------------------------------------------------------
    def next_driver(self) -> Optional[Job]:
        """The running job whose tenant pays for the next crawl chunk.

        Round-robin over the running list, skipping tenants with zero
        remaining budget; ``None`` when nobody can pay (the crawl stalls
        and jobs finish on free rounds alone).  Deterministic: the cursor
        only moves through admission/retirement bookkeeping and successful
        picks.
        """
        if not self.running:
            return None
        count = len(self.running)
        for step in range(count):
            index = (self._driver_cursor + step) % count
            job = self.running[index]
            remaining = self.tenant_remaining(job.tenant)
            if remaining is None or remaining > 0:
                self._driver_cursor = (index + 1) % count
                return job
        return None

    def __repr__(self) -> str:
        return (
            f"JobScheduler(pending={len(self.pending)}, "
            f"running={len(self.running)}, max_pending={self.max_pending}, "
            f"max_running={self.max_running})"
        )
