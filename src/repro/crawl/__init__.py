"""Asynchronous crawling: concurrent discovery feeding a growing topology.

The "walk, not wait" premise, applied to the crawl phase: while the
network answers one neighbor-list request, the frontier keeps moving.

* :class:`~repro.crawl.clock.FakeClock` / :func:`~repro.crawl.clock.drive`
  — deterministic virtual time for coroutines, the harness that makes
  every concurrent interleaving reproducible bit for bit;
* :class:`~repro.crawl.crawler.AsyncCrawler` — bounded-concurrency BFS
  over :meth:`~repro.osn.api.SocialNetworkAPI.neighbors_batch` with
  accounting identical to the serial crawl (parity-pinned at
  concurrency 1);
* :class:`~repro.crawl.publisher.TopologyPublisher` — periodic
  ``compact()`` of the discovered graph into shared-memory CSR slabs,
  swapped atomically under running walk rounds with epoch/lease
  retirement (no torn reads, no leaked ``/dev/shm`` segments);
* :class:`~repro.crawl.pipeline.CrawlWalkPipeline` — the front end that
  interleaves crawl epochs with in-process walk rounds so estimates
  refine as the graph grows.
"""

from repro.crawl.clock import FakeClock, drive, resolve_latency
from repro.crawl.crawler import CRAWLER_STATE_KEYS, AsyncCrawler, CrawlChunkStats
from repro.crawl.pipeline import CrawlEpochRecord, CrawlWalkPipeline, PipelineResult
from repro.crawl.publisher import PublishedTopology, TopologyLease, TopologyPublisher

__all__ = [
    "AsyncCrawler",
    "CRAWLER_STATE_KEYS",
    "CrawlChunkStats",
    "CrawlEpochRecord",
    "CrawlWalkPipeline",
    "FakeClock",
    "PipelineResult",
    "PublishedTopology",
    "TopologyLease",
    "TopologyPublisher",
    "drive",
    "resolve_latency",
]
