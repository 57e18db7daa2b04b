"""Crawl→compact→walk pipeline: estimates that refine as the graph grows.

:class:`CrawlWalkPipeline` is the front end over the three async-crawl
pieces: an :class:`~repro.crawl.crawler.AsyncCrawler` fetches the next
chunk of the hidden graph concurrently, a
:class:`~repro.crawl.publisher.TopologyPublisher` compacts the discovered
rows into a fresh epoch graph, and one in-process walk round
(:func:`~repro.walks.batch.run_walk_batch`) runs over that graph — one
*epoch*.  Each epoch's walks run over strictly more of the network
than the last, so the per-epoch estimate converges to the full-graph
value as coverage completes, while the crawler (not the walkers) absorbs
all the network latency — "walk, not wait" applied to the crawl phase
itself.  The rounds are small (tens to a few hundred walks), far below
the width at which a process pool pays for its dispatch.

**What is estimated.**  Each epoch runs ``walks_per_epoch`` walks of
``steps_per_walk`` transitions from the crawl start over the published
(fetched-induced) topology and forms the importance-weighted mean

.. math:: \\hat\\mu = \\frac{\\sum_i f(v_i)/\\tilde q(v_i)}
                       {\\sum_i 1/\\tilde q(v_i)}

where :math:`\\tilde q` is the walk design's unnormalized stationary
weight *on the published graph* (degree for SRW, 1 for MHRW-family) and
*f* defaults to the node's **true** visible degree read from the
discovered store — every visited node's full row has been paid for, so
this costs no queries.  With the default *f* the estimates track the
hidden graph's average degree; pass ``attribute=`` for any other
per-node function of already-discovered data.

**Determinism.**  Everything stochastic flows from one seed (crawl
interleavings from the scripted latency under the
:class:`~repro.crawl.clock.FakeClock`; walks from the pipeline's one
generator, which every walked epoch advances), so a pipeline run replays
bit for bit.

**Query accounting** is untouched by all of this: only the crawler
touches the API, through the ordinary charged batch path; walks run over
already-paid-for topology for free.  Budget exhaustion mid-crawl ends the
crawl cleanly — the epoch still compacts and walks whatever settled, and
the result is flagged :attr:`PipelineResult.budget_exhausted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.config import CrawlPipelineConfig
from repro.crawl.clock import FakeClock, LatencyLike
from repro.crawl.crawler import AsyncCrawler
from repro.crawl.publisher import TopologyPublisher
from repro.errors import ConfigurationError, QueryBudgetExceededError
from repro.graphs.csr import CSRGraph
from repro.rng import RngLike, ensure_rng
from repro.walks.batch import run_walk_batch, target_weights_batch
from repro.walks.transitions import Node, SimpleRandomWalk, TransitionDesign


@dataclass(frozen=True)
class CrawlEpochRecord:
    """One crawl→compact→walk epoch's outcome."""

    epoch: int
    new_rows: int
    crawl_seconds: float
    fetched_nodes: int
    member_nodes: int
    walk_nodes: int
    walk_edges: int
    walks: int
    steps: int
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


class CrawlWalkPipeline:
    """Interleave concurrent crawling with in-process walk rounds.

    Parameters
    ----------
    api:
        Charged :class:`~repro.osn.api.SocialNetworkAPI` over the hidden
        graph.
    start:
        Crawl origin and every walk's starting node.
    design:
        Walk transition design (batch-kernel designs only); SRW default.
    config:
        :class:`~repro.core.config.CrawlPipelineConfig` knobs.
    clock / latency:
        Simulated-time plumbing handed to the crawler — see
        :class:`~repro.crawl.clock.FakeClock` and
        :func:`~repro.crawl.clock.resolve_latency`.
    attribute:
        Optional ``node ids -> float values`` function for the estimand;
        defaults to true discovered degrees (average-degree estimation).
    seed:
        One seed for the whole run's randomness.

    Use as a context manager, or call :meth:`close`; a closed pipeline
    runs no further epoch.
    """

    def __init__(
        self,
        api,
        start: Node,
        *,
        design: Optional[TransitionDesign] = None,
        config: Optional[CrawlPipelineConfig] = None,
        clock: Optional[FakeClock] = None,
        latency: LatencyLike = None,
        attribute: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        seed: RngLike = None,
    ) -> None:
        self.api = api
        self.start = start
        self.design = design if design is not None else SimpleRandomWalk()
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
        self.publisher = TopologyPublisher(api.discovered)
        self._attribute = attribute
        self._rng = ensure_rng(seed)
        self.epochs: List[CrawlEpochRecord] = []
        self._budget_exhausted = False
        self._closed = False

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    def _values_of(self, nodes: np.ndarray) -> np.ndarray:
        if self._attribute is not None:
            return np.asarray(self._attribute(nodes), dtype=np.float64)
        # True visible degrees: every visited node's row is paid for, so
        # this is a free discovered-store gather, not an API call.
        return self.api.discovered.degrees_of(nodes).astype(np.float64)

    def _walk_estimate(self, graph: CSRGraph) -> float:
        """One walk round over *graph*, from the pipeline's own generator."""
        cfg = self.config
        starts = np.full(cfg.walks_per_epoch, self.start, dtype=np.int64)
        result = run_walk_batch(
            graph, self.design, starts, cfg.steps_per_walk, seed=self._rng
        )
        nodes = result.paths[:, 1:].ravel()
        weights = 1.0 / target_weights_batch(graph, self.design, nodes)
        values = self._values_of(nodes)
        return float(np.sum(values * weights) / np.sum(weights))

    def run_epoch(self) -> Optional[CrawlEpochRecord]:
        """One crawl→compact→walk epoch; None once nothing new remains.

        Returns ``None`` (without walking) when the crawl has finished and
        the current topology was already walked — the pipeline's natural
        stopping condition.
        """
        if self._closed:
            raise ConfigurationError("pipeline is closed")
        cfg = self.config
        new_rows = 0
        crawl_seconds = 0.0
        if not self.crawler.finished:
            rows_before = self.api.discovered.fetched_count
            clock_before = self.clock.now
            try:
                stats = self.crawler.crawl(cfg.rows_per_epoch)
                new_rows, crawl_seconds = stats.new_rows, stats.seconds
            except QueryBudgetExceededError:
                # The epoch still walks whatever settled before the raise;
                # report that truthfully, not as an empty crawl.  Count
                # from the discovered store, not the crawler's absorbed
                # total — a batch whose fetch settled but whose result
                # was never folded back is still paid for and published.
                self._budget_exhausted = True
                new_rows = self.api.discovered.fetched_count - rows_before
                crawl_seconds = self.clock.now - clock_before
        # Rows settled before a budget raise pass the publisher's growth
        # gate on their own; a raise with nothing settled publishes
        # nothing new and the epoch below is skipped.
        published = self.publisher.publish(force=not self.epochs)
        if published is None and self.epochs:
            return None
        topology = self.publisher.acquire()
        graph = topology.graph
        # An epoch whose start is unpublished or isolated walks nothing.
        walked = self.start in graph and graph.degree(self.start) > 0
        estimate = self._walk_estimate(graph) if walked else float("nan")
        record = CrawlEpochRecord(
            epoch=topology.epoch,
            new_rows=new_rows,
            crawl_seconds=crawl_seconds,
            fetched_nodes=self.api.discovered.fetched_count,
            member_nodes=self.api.discovered.membership_size,
            walk_nodes=graph.number_of_nodes(),
            walk_edges=graph.number_of_edges(),
            walks=cfg.walks_per_epoch if walked else 0,
            steps=cfg.steps_per_walk if walked else 0,
            estimate=estimate,
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

    def __enter__(self) -> "CrawlWalkPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"CrawlWalkPipeline(start={self.start}, epochs={len(self.epochs)}, "
            f"fetched={self.api.discovered.fetched_count})"
        )
