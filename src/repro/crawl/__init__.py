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
  ``compact()`` of the discovered graph into frozen CSR epochs, swapped
  under the service's running walk rounds without tearing them (a reader
  keeps the epoch it took until it lets go);
* :class:`~repro.crawl.pipeline.CrawlPipeline` — the front end that
  crawls in epochs and reports, after each, the estimand's exact mean
  over every row fetched so far (a fetched row is free to read again,
  so the pipeline does not walk).
"""

from repro.crawl.clock import FakeClock, drive, resolve_latency
from repro.crawl.crawler import CRAWLER_STATE_KEYS, AsyncCrawler, CrawlChunkStats
from repro.crawl.pipeline import CrawlEpochRecord, CrawlPipeline, PipelineResult
from repro.crawl.publisher import PublishedTopology, TopologyPublisher

__all__ = [
    "AsyncCrawler",
    "CRAWLER_STATE_KEYS",
    "CrawlChunkStats",
    "CrawlEpochRecord",
    "CrawlPipeline",
    "FakeClock",
    "PipelineResult",
    "PublishedTopology",
    "TopologyPublisher",
    "drive",
    "resolve_latency",
]
