"""Crawl pipeline: a concurrent crawl whose every epoch reports the rows it holds.

:class:`CrawlPipeline` drives an :class:`~repro.crawl.crawler.AsyncCrawler`
one chunk at a time — one *epoch* — so the crawler (never a caller)
absorbs the network latency: "walk, not wait" applied to the crawl phase
itself.  After each chunk the epoch reports the estimand's mean over
every row fetched so far.

**What is estimated.**  Under the paper's §2.4 cost model a fetched row
is free to read again, so the mean of *f* over the fetched rows is exact
and costs no query.  *f* defaults to the node's **true** degree, read
from the discovered store; pass ``attribute=`` for any other per-node
function of already-discovered data.  A walk over the fetched rows could
only re-estimate that mean with noise, so the pipeline does not walk.
As coverage completes the mean converges to the hidden graph's value,
and a completed crawl reports it exactly.  Before that the fetched rows
are a BFS ball around the start, and their mean describes them, not the
hidden graph.

**Determinism.**  Crawl interleavings come from the scripted latency
under the :class:`~repro.crawl.clock.FakeClock`, and each estimate is a
function of the rows held, so a pipeline run replays bit for bit.

**Query accounting.**  Only the crawler touches the API, through the
ordinary charged batch path.  Budget exhaustion mid-crawl ends the crawl
cleanly: the epoch still reports whatever settled, and the result is
flagged :attr:`PipelineResult.budget_exhausted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.config import CrawlPipelineConfig
from repro.crawl.clock import FakeClock, LatencyLike
from repro.crawl.crawler import AsyncCrawler
from repro.errors import ConfigurationError, QueryBudgetExceededError
from repro.walks.transitions import Node


@dataclass(frozen=True)
class CrawlEpochRecord:
    """One crawl epoch's outcome."""

    epoch: int
    new_rows: int
    crawl_seconds: float
    fetched_nodes: int
    member_nodes: int
    estimate: float
    query_cost: int
    raw_calls: int
    clock_seconds: float


@dataclass
class PipelineResult:
    """Every epoch record plus the run-level outcome."""

    epochs: List[CrawlEpochRecord]
    budget_exhausted: bool

    @property
    def estimates(self) -> np.ndarray:
        """Per-epoch estimates, in epoch order."""
        return np.array([r.estimate for r in self.epochs], dtype=np.float64)

    @property
    def final_estimate(self) -> float:
        """The last (widest-coverage) epoch's estimate."""
        if not self.epochs:
            return float("nan")
        return self.epochs[-1].estimate

    @property
    def query_cost(self) -> int:
        """Unique-node query cost of the whole campaign."""
        if not self.epochs:
            return 0
        return self.epochs[-1].query_cost

    @property
    def simulated_seconds(self) -> float:
        """Total simulated time (latency + mirrored rate waits)."""
        if not self.epochs:
            return 0.0
        return self.epochs[-1].clock_seconds


class CrawlPipeline:
    """Crawl concurrently in epochs, reporting the held rows' mean after each.

    Parameters
    ----------
    api:
        Charged :class:`~repro.osn.api.SocialNetworkAPI` over the hidden
        graph.
    start:
        Crawl origin.
    config:
        :class:`~repro.core.config.CrawlPipelineConfig` knobs.
    clock / latency:
        Simulated-time plumbing handed to the crawler — see
        :class:`~repro.crawl.clock.FakeClock` and
        :func:`~repro.crawl.clock.resolve_latency`.
    attribute:
        Optional ``node ids -> float values`` function for the estimand;
        defaults to true discovered degrees (average-degree estimation).

    Use as a context manager, or call :meth:`close`; a closed pipeline
    runs no further epoch.
    """

    def __init__(
        self,
        api,
        start: Node,
        *,
        config: Optional[CrawlPipelineConfig] = None,
        clock: Optional[FakeClock] = None,
        latency: LatencyLike = None,
        attribute: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        self.api = api
        self.start = start
        self.config = config if config is not None else CrawlPipelineConfig()
        self.clock = clock if clock is not None else FakeClock()
        self.crawler = AsyncCrawler(
            api,
            start,
            concurrency=self.config.concurrency,
            batch_size=self.config.batch_size,
            max_depth=self.config.max_depth,
            clock=self.clock,
            latency=latency,
        )
        self._attribute = attribute
        self.epochs: List[CrawlEpochRecord] = []
        self._budget_exhausted = False
        self._closed = False

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    def _held_mean(self) -> float:
        """*f* averaged over every fetched row; nan while none is held."""
        ids = self.api.discovered.fetched_ids()
        if ids.size == 0:
            return float("nan")
        if self._attribute is not None:
            values = np.asarray(self._attribute(ids), dtype=np.float64)
        else:
            values = self.api.discovered.degrees_of(ids).astype(np.float64)
        return float(np.mean(values))

    def run_epoch(self) -> Optional[CrawlEpochRecord]:
        """Crawl one chunk and report; None once nothing new was fetched.

        The first epoch always reports.  A later one returns ``None``
        without reporting when the store fetched no row since the previous
        epoch — the pipeline's natural stopping condition.
        """
        if self._closed:
            raise ConfigurationError("pipeline is closed")
        discovered = self.api.discovered
        new_rows = 0
        crawl_seconds = 0.0
        if not self.crawler.finished:
            rows_before = discovered.fetched_count
            clock_before = self.clock.now
            try:
                stats = self.crawler.crawl(self.config.rows_per_epoch)
                new_rows, crawl_seconds = stats.new_rows, stats.seconds
            except QueryBudgetExceededError:
                # The epoch still reports whatever settled before the
                # raise, not an empty crawl.  Count from the discovered
                # store, not the crawler's absorbed total — a batch whose
                # fetch settled but whose result was never folded back is
                # still paid for and held.
                self._budget_exhausted = True
                new_rows = discovered.fetched_count - rows_before
                crawl_seconds = self.clock.now - clock_before
        fetched = discovered.fetched_count
        if self.epochs and fetched <= self.epochs[-1].fetched_nodes:
            return None
        record = CrawlEpochRecord(
            epoch=len(self.epochs) + 1,
            new_rows=new_rows,
            crawl_seconds=crawl_seconds,
            fetched_nodes=fetched,
            member_nodes=discovered.membership_size,
            estimate=self._held_mean(),
            query_cost=self.api.query_cost,
            raw_calls=self.api.raw_calls,
            clock_seconds=self.clock.now,
        )
        self.epochs.append(record)
        return record

    def run(self, max_epochs: Optional[int] = None) -> PipelineResult:
        """Run epochs until the crawl is exhausted (or *max_epochs*)."""
        if max_epochs is not None and max_epochs < 1:
            raise ConfigurationError(f"max_epochs must be >= 1, got {max_epochs}")
        while max_epochs is None or len(self.epochs) < max_epochs:
            if self.run_epoch() is None:
                break
        return self.result()

    def result(self) -> PipelineResult:
        """The run so far as a :class:`PipelineResult`."""
        return PipelineResult(
            epochs=list(self.epochs),
            budget_exhausted=self._budget_exhausted,
        )

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse further epochs. Idempotent."""
        self._closed = True

    def __enter__(self) -> "CrawlPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"CrawlPipeline(start={self.start}, epochs={len(self.epochs)}, "
            f"fetched={self.api.discovered.fetched_count})"
        )
