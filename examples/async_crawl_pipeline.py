"""Estimate while you are still crawling.

The async crawl pipeline applies the paper's "walk, not wait" premise to
the crawl phase itself: an AsyncCrawler keeps several neighbor-list
fetches in flight against the charged API, and after every chunk of new
rows (one epoch) the pipeline reports the mean true degree over every
row fetched so far.  A fetched row is free to read again, so that mean
is exact for the rows held and costs no query; as coverage completes it
converges to the hidden graph's average degree, which a completed crawl
reports exactly.

All waiting happens on a simulated clock (scripted per-batch latency plus
rate-limit waits), so the run is deterministic and the wall-clock numbers
below are reproducible bit for bit.

Run:  PYTHONPATH=src python examples/async_crawl_pipeline.py
"""

from repro.core.config import CrawlPipelineConfig
from repro.crawl import CrawlPipeline, FakeClock
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI
from repro.osn.ratelimit import TokenBucketRateLimiter


def run_campaign(concurrency: int) -> None:
    hidden = barabasi_albert_graph(800, 4, seed=7).relabeled()
    true_value = 2 * hidden.number_of_edges() / hidden.number_of_nodes()
    api = SocialNetworkAPI(
        hidden,
        # Twitter-flavored: 60 neighbor-list requests per minute.  Rate
        # waits mirror onto the crawl clock per in-flight slot, i.e. the
        # crawler behaves like one credential per connection; see the
        # AsyncCrawler docstring for the single-account reading.
        rate_limiter=TokenBucketRateLimiter(60, 60.0),
    )
    clock = FakeClock()
    config = CrawlPipelineConfig(
        concurrency=concurrency, batch_size=16, rows_per_epoch=160
    )
    print(f"--- concurrency={concurrency} ---")
    with CrawlPipeline(
        api,
        0,
        config=config,
        clock=clock,
        latency=[0.8, 0.3, 1.2, 0.5],  # scripted per-batch network latency
    ) as pipeline:
        result = pipeline.run()
    # estimate: the mean true degree over the rows fetched so far.
    print(f"{'epoch':>5} {'rows':>5} {'estimate':>9} {'sim-s':>8}")
    for record in result.epochs:
        print(
            f"{record.epoch:>5} {record.fetched_nodes:>5} "
            f"{record.estimate:>9.3f} {record.clock_seconds:>8.1f}"
        )
    print(
        f"true average degree {true_value:.3f}; paid {result.query_cost} "
        f"queries; campaign took {result.simulated_seconds:.1f} simulated "
        f"seconds\n"
    )


def main() -> None:
    # Same campaign, same query cost — the only difference is how much of
    # the network latency the crawler overlaps.
    run_campaign(concurrency=1)
    run_campaign(concurrency=6)


if __name__ == "__main__":
    main()
