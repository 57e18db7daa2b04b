"""Asynchronous crawl front end: fetch batches concurrently, never idle.

The paper's premise — *walk, not wait* — applies to crawling too: while a
fetch is in flight there is no reason for the frontier to sit still.
:class:`AsyncCrawler` drives :meth:`repro.osn.api.SocialNetworkAPI.neighbors_batch`
with a bounded number of concurrent batches over a BFS frontier.  Every
completed row lands in the API's shared
:class:`~repro.graphs.discovered.DiscoveredGraph` immediately, so the
topology the walkers sample from grows while the network is still
answering — the producer half of the service's crawl→compact→walk loop.

**Accounting is exactly the serial crawl's.**  Each batch settles through
the ordinary charged ``neighbors_batch`` path: one counter charge, one
budget decision, one rate-limiter acquisition per batch, and budget
exhaustion raises *before* the first over-budget invocation, mid-crawl.
At ``concurrency=1`` with zero latency the crawler invokes nodes in the
exact order of the serial layered BFS (:class:`repro.core.crawl.InitialCrawl`),
so counter state, budget raises, and discovered-row order are identical —
the parity pin ``tests/crawl/test_crawler.py`` asserts.  Higher
concurrency reorders *completions* (never the per-batch accounting), which
is precisely the freedom that buys wall-clock.

**Determinism.**  All waiting goes through a :class:`~repro.crawl.clock.FakeClock`
(scripted fetch latency plus mirrored rate-limit waits), and completions
are consumed through a FIFO queue, never an unordered set — so a fixed
``(graph, start, concurrency, batch_size, latency script)`` replays the
same interleaving bit for bit under :func:`~repro.crawl.clock.drive`.

**Backpressure.**  At most ``concurrency`` batches (≤ ``concurrency ×
batch_size`` nodes) are ever in flight; the frontier is consumed lazily.
When the API carries a :class:`~repro.osn.ratelimit.TokenBucketRateLimiter`,
each batch's simulated rate-limit wait is mirrored onto the crawl clock
before the next batch is issued from that slot — a starved bucket slows
the crawler down instead of letting it spin.  The mirror is per slot, so
waits overlap across concurrent slots: that models a crawler holding one
credential per connection (each slot rides its own limit), and is
optimistic for a single account whose bucket gates all connections
globally — for that reading, the limiter's own virtual clock
(``api.rate_limiter.clock.now``), which concurrency never compresses, is
the authoritative campaign duration.

The crawler is resumable: :meth:`crawl` (or the async
:meth:`crawl_chunk`) fetches up to ``max_new_rows`` rows, drains its
in-flight batches, and returns with the frontier intact — the crawl
pipeline and the service call it once per epoch.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.crawl.clock import FakeClock, LatencyLike, drive, resolve_latency
from repro.errors import CheckpointError, ConfigurationError, NodeNotFoundError
from repro.errors import check_field, checked_fields
from repro.walks.transitions import Node

#: Kind and floor of each field of the resumable-state document
#: (:meth:`AsyncCrawler.state_dict`); the frontier's pairs are checked
#: where they are read.
_STATE_FIELDS = {
    "start": (Integral,),
    "frontier": ([[Integral]],),
    "enqueued": ([Integral],),
    "rows_fetched": (Integral, 0),
    "batches_issued": (Integral, 0),
    "failed": (bool,),
    "clock_now": (Real,),
}

#: Keys of the resumable-state document.
CRAWLER_STATE_KEYS = frozenset(_STATE_FIELDS)


@dataclass(frozen=True)
class CrawlChunkStats:
    """What one :meth:`AsyncCrawler.crawl` call did.

    Attributes
    ----------
    new_rows:
        Neighbor rows fetched during this chunk.
    batches:
        Fetch batches issued during this chunk.
    started_at / finished_at:
        Simulated clock readings bracketing the chunk; their difference is
        the chunk's simulated duration (latency + mirrored rate waits).
    """

    new_rows: int
    batches: int
    started_at: float
    finished_at: float

    @property
    def seconds(self) -> float:
        """Simulated seconds this chunk took."""
        return self.finished_at - self.started_at


class AsyncCrawler:
    """Concurrent BFS over a charged API, feeding the discovered graph.

    Parameters
    ----------
    api:
        The charged :class:`~repro.osn.api.SocialNetworkAPI`.  Rows land in
        ``api.discovered`` as each batch settles.
    start:
        Crawl origin (must exist on the network; checked up front, free).
    concurrency:
        Maximum fetch batches in flight at once.  1 reproduces the serial
        crawl's accounting and row order exactly.
    batch_size:
        Frontier nodes per fetch batch (one accounting settlement each).
    max_depth:
        Crawl only nodes within this many hops of *start* (the frontier
        layer at ``max_depth`` is fetched but not expanded), matching
        ``InitialCrawl(hops=max_depth)``.  ``None`` crawls everything
        reachable.
    clock:
        The :class:`FakeClock` all waiting goes through; defaults to a
        fresh one (read :attr:`clock` ``.now`` for simulated duration).
    latency:
        Scripted per-batch fetch latency — see
        :func:`~repro.crawl.clock.resolve_latency`.
    """

    def __init__(
        self,
        api,
        start: Node,
        *,
        concurrency: int = 4,
        batch_size: int = 32,
        max_depth: Optional[int] = None,
        clock: Optional[FakeClock] = None,
        latency: LatencyLike = None,
    ) -> None:
        check_field("AsyncCrawler", "concurrency", concurrency, Integral, 1)
        check_field("AsyncCrawler", "batch_size", batch_size, Integral, 1)
        check_field("AsyncCrawler", "max_depth", max_depth, Integral, 0, optional=True)
        if not api.has_node(start):
            raise NodeNotFoundError(start)
        self.api = api
        self.start = start
        self.concurrency = concurrency
        self.batch_size = batch_size
        self.max_depth = max_depth
        self.clock = clock if clock is not None else FakeClock()
        self._latency = resolve_latency(latency)
        #: FIFO frontier of (node, depth) pairs not yet issued for fetch.
        self._frontier: Deque[Tuple[Node, int]] = deque([(start, 0)])
        #: Every id ever enqueued (never re-enqueued) — BFS visit set.
        self._enqueued: set[Node] = {start}
        self.rows_fetched = 0
        self.batches_issued = 0
        self._failed = False

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def discovered(self):
        """The shared discovered graph the crawl feeds (``api.discovered``)."""
        return self.api.discovered

    @property
    def failed(self) -> bool:
        """True after an error (budget exhaustion included) ended the crawl."""
        return self._failed

    @property
    def finished(self) -> bool:
        """True when nothing remains to fetch (frontier empty or crawl failed)."""
        return self._failed or not self._frontier

    @property
    def frontier_size(self) -> int:
        """Nodes discovered but not yet issued for fetching."""
        return len(self._frontier)

    # ------------------------------------------------------------------
    # Resumable state
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of the crawl's resumable state.

        Captures everything a fresh crawler (constructed with the same
        configuration over the same API) needs to continue *exactly* where
        this one stands: the FIFO frontier in order, the BFS visit set,
        the row/batch counters (the batch counter also indexes the
        latency script), the failure flag, and the clock reading.  Graph
        rows are not included — they live in the API's shared
        :class:`~repro.graphs.discovered.DiscoveredGraph`, which the
        checkpoint layer snapshots separately.  Call between chunks (no
        batches in flight); a restored crawl then issues the same batches
        in the same order as the uninterrupted run.
        """
        return {
            "start": int(self.start),
            "frontier": [[int(node), int(depth)] for node, depth in self._frontier],
            "enqueued": sorted(int(node) for node in self._enqueued),
            "rows_fetched": int(self.rows_fetched),
            "batches_issued": int(self.batches_issued),
            "failed": bool(self._failed),
            "clock_now": float(self.clock.now),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`state_dict` snapshot (inverse operation).

        The crawler must have been constructed with the snapshot's start
        node; configuration (concurrency, batch size, latency script) is
        the constructor's job and is not part of the state document.  The
        clock is advanced (never rewound) to the snapshot's reading, so
        time-dependent machinery — rate limiters mirrored onto this
        clock, fault-plan time windows — continues from the same instant.
        A missing or unknown key, or a field of the wrong kind or below
        its floor, raises :class:`~repro.errors.CheckpointError` naming it.
        """
        owner = "crawler state"
        state = checked_fields(owner, state, _STATE_FIELDS, CheckpointError)
        if state["start"] != self.start:
            raise CheckpointError(
                f"state was captured for start node {state['start']}, "
                f"but this crawler starts at {self.start}"
            )
        frontier = state["frontier"]
        if any(len(pair) != 2 or pair[1] < 0 for pair in frontier):
            raise CheckpointError(f"{owner} 'frontier' needs [node, depth >= 0] pairs")
        self._frontier = deque(map(tuple, frontier))
        self._enqueued = set(state["enqueued"])
        self.rows_fetched = state["rows_fetched"]
        self.batches_issued = state["batches_issued"]
        self._failed = state["failed"]
        if state["clock_now"] > self.clock.now:
            self.clock.advance_to(state["clock_now"])

    # ------------------------------------------------------------------
    # Crawling
    # ------------------------------------------------------------------
    def _take_batch(self, room: Optional[int]) -> List[Tuple[Node, int]]:
        """Pop the next fetch batch (≤ batch_size, ≤ room) off the frontier."""
        width = self.batch_size if room is None else min(self.batch_size, room)
        batch: List[Tuple[Node, int]] = []
        while self._frontier and len(batch) < width:
            batch.append(self._frontier.popleft())
        return batch

    def _absorb(self, batch: List[Tuple[Node, int]], rows) -> None:
        """Fold one settled batch back into the frontier, BFS order."""
        self.rows_fetched += len(batch)
        for (node, depth), row in zip(batch, rows):
            if self.max_depth is not None and depth >= self.max_depth:
                continue
            for neighbor in row:
                if neighbor not in self._enqueued:
                    self._enqueued.add(neighbor)
                    self._frontier.append((neighbor, depth + 1))

    async def _fetch(
        self,
        sequence: int,
        batch: List[Tuple[Node, int]],
        delay: float,
        results: asyncio.Queue,
    ) -> None:
        """One in-flight batch: scripted latency, charged fetch, rate mirror."""
        try:
            if delay > 0:
                await self.clock.sleep(delay)
            limiter = getattr(self.api, "rate_limiter", None)
            before = limiter.clock.now if limiter is not None else 0.0
            nodes = np.fromiter(
                (node for node, _ in batch), dtype=np.int64, count=len(batch)
            )
            rows = self.api.neighbors_batch(nodes)
            if limiter is not None:
                # Mirror the batch's simulated rate-limit wait onto the
                # crawl clock: a drained token bucket must slow the crawl
                # down, not just advance a counter nobody awaits.
                waited = limiter.clock.now - before
                if waited > 0:
                    await self.clock.sleep(waited)
            mirror = getattr(self.api, "consume_mirror_wait", None)
            if mirror is not None:
                # Same mirror for the resilience/fault wrappers: injected
                # slow responses and retry backoffs cost campaign time.
                waited = mirror()
                if waited > 0:
                    await self.clock.sleep(waited)
            await results.put((sequence, batch, rows))
        except asyncio.CancelledError:
            raise
        except Exception as error:
            await results.put(error)

    async def crawl_chunk(self, max_new_rows: Optional[int] = None) -> CrawlChunkStats:
        """Fetch up to *max_new_rows* rows concurrently, then drain in-flight.

        The resumable unit of crawling: state (frontier, visit set,
        counters) persists across calls.  ``None`` crawls until the
        frontier is exhausted.  Any fetch error (budget exhaustion above
        all) cancels the remaining in-flight batches and re-raises; the
        crawler is then :attr:`failed` and refuses further chunks —
        whatever settled before the error is already in the discovered
        graph, charged exactly as the serial crawl would have charged it.
        An *external* cancellation (or KeyboardInterrupt) is not the
        campaign's fault: un-absorbed batches go back onto the frontier
        and a later chunk resumes where this one stopped — re-issuing a
        batch whose fetch had already settled is free, the rows are
        cached.
        """
        if self._failed:
            raise ConfigurationError(
                "crawler has failed (budget exhausted or fetch error); "
                "start a new crawler for a new campaign"
            )
        if max_new_rows is not None and max_new_rows < 1:
            raise ConfigurationError(
                f"max_new_rows must be >= 1 or None, got {max_new_rows}"
            )
        started_at = self.clock.now
        rows_before = self.rows_fetched
        batches_before = self.batches_issued
        results: asyncio.Queue = asyncio.Queue()
        live: List[asyncio.Task] = []
        pending: Dict[int, List[Tuple[Node, int]]] = {}
        inflight = 0
        issued = 0
        try:
            while True:
                while (
                    inflight < self.concurrency
                    and self._frontier
                    and (max_new_rows is None or issued < max_new_rows)
                ):
                    room = None if max_new_rows is None else max_new_rows - issued
                    batch = self._take_batch(room)
                    issued += len(batch)
                    sequence = self.batches_issued
                    self.batches_issued += 1
                    pending[sequence] = batch
                    delay = float(self._latency(sequence, [n for n, _ in batch]))
                    task = asyncio.ensure_future(
                        self._fetch(sequence, batch, delay, results)
                    )
                    live.append(task)
                    inflight += 1
                if inflight == 0:
                    break
                outcome = await results.get()
                inflight -= 1
                if isinstance(outcome, Exception):
                    raise outcome
                sequence, batch, rows = outcome
                del pending[sequence]
                self._absorb(batch, rows)
        except BaseException as error:
            if isinstance(error, Exception):
                self._failed = True
            for task in live:
                task.cancel()
            await asyncio.gather(*live, return_exceptions=True)
            if not self._failed and pending:
                # Cancelled, not failed: restore un-absorbed batches to
                # the frontier front in issue order so a resumed crawl
                # re-covers them (and keeps the serial BFS order intact).
                for _, batch in sorted(pending.items(), reverse=True):
                    self._frontier.extendleft(reversed(batch))
            raise
        return CrawlChunkStats(
            new_rows=self.rows_fetched - rows_before,
            batches=self.batches_issued - batches_before,
            started_at=started_at,
            finished_at=self.clock.now,
        )

    def crawl(self, max_new_rows: Optional[int] = None) -> CrawlChunkStats:
        """Synchronous :meth:`crawl_chunk`: drive it on the crawler's clock."""
        return drive(self.clock, self.crawl_chunk(max_new_rows))

    def __repr__(self) -> str:
        return (
            f"AsyncCrawler(start={self.start}, concurrency={self.concurrency}, "
            f"rows={self.rows_fetched}, frontier={len(self._frontier)}, "
            f"failed={self._failed})"
        )
