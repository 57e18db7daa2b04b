"""Chaos crawls and crash-transparent crawl resumption.

Two pins: a crawl through a scripted fault storm (behind the resilient
retry layer) produces the *same rows in the same order at the same query
cost* as a fault-free crawl — failures cost simulated time, never money
or coverage — and an interrupted crawl resumed from its state document
finishes with row order, counters, and budget identical to the
uninterrupted run.
"""

import json

import pytest

from repro.crawl import CRAWLER_STATE_KEYS, AsyncCrawler, FakeClock
from repro.errors import CheckpointError, TransientAPIError
from repro.faults import FaultPlan, FaultRule, FaultyAPI
from repro.graphs.generators import barabasi_albert_graph
from repro.osn import ResilientAPI, RetryPolicy
from repro.osn.api import SocialNetworkAPI

LATENCY = [1.0, 0.25, 0.5, 2.0, 0.75]

POLICY = RetryPolicy(max_attempts=6, base_backoff=0.5, jitter=0.0)


@pytest.fixture(scope="module")
def hidden():
    return barabasi_albert_graph(90, 3, seed=23).relabeled()


def crawl_reference(hidden, **kwargs):
    """The fault-free twin every chaos scenario is measured against."""
    api = SocialNetworkAPI(hidden)
    crawler = AsyncCrawler(api, 0, latency=LATENCY, **kwargs)
    crawler.crawl()
    return api, crawler


def fingerprint(api):
    return (list(api.discovered._rows), api.counter.state())


class TestChaosCrawlParity:
    def test_fault_storm_changes_nothing_but_the_clock(self, hidden):
        reference_api, reference = crawl_reference(hidden, concurrency=1)
        plan = FaultPlan(
            rules=(
                FaultRule(kind="error", first_call=1, last_call=2),
                FaultRule(kind="rate_limit", delay=20.0, first_call=5, last_call=5),
                FaultRule(kind="slow", delay=3.0, first_call=6),
            )
        )
        api = SocialNetworkAPI(hidden)
        resilient = ResilientAPI(FaultyAPI(api, plan), POLICY)
        crawler = AsyncCrawler(resilient, 0, concurrency=1, latency=LATENCY)
        crawler.crawl()
        assert fingerprint(api) == fingerprint(reference_api)
        assert crawler.rows_fetched == reference.rows_fetched
        assert resilient.api.injected == {"error": 2, "rate_limit": 1, "slow": 1}
        # Faults cost time: both errors hit one batch, so its backoffs
        # are the exponential 0.5 + 1.0; the rate-limit wait (20) and the
        # slow response (3) land on the clock as-is.
        assert crawler.clock.now == pytest.approx(reference.clock.now + 24.5)

    def test_chaos_campaign_replays_bit_for_bit(self, hidden):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="error", first_call=2, last_call=4),
                FaultRule(kind="slow", delay=2.0, jitter=0.3, first_call=6),
            ),
            seed=5,
        )

        def campaign(plan_document):
            api = SocialNetworkAPI(hidden)
            resilient = ResilientAPI(
                FaultyAPI(api, FaultPlan.from_json(plan_document)), POLICY, seed=1
            )
            crawler = AsyncCrawler(resilient, 0, concurrency=2, latency=LATENCY)
            crawler.crawl()
            return (
                crawler.clock.now,
                api.counter.state(),
                resilient.api.history,
                resilient.retries,
            )

        document = plan.to_json()
        assert campaign(document) == campaign(document)

    def test_unrecovered_failure_marks_the_crawl_failed(self, hidden):
        api = SocialNetworkAPI(hidden)
        faulty = FaultyAPI(api, FaultPlan(rules=(FaultRule(kind="error"),)))
        crawler = AsyncCrawler(faulty, 0, concurrency=1, latency=LATENCY)
        with pytest.raises(TransientAPIError):
            crawler.crawl()
        assert crawler.failed
        assert crawler.finished


class TestResumption:
    def test_resumed_crawl_matches_uninterrupted_run(self, hidden):
        # The service crawls in fixed-size chunks; crash-transparency
        # means an interruption *between* chunks changes nothing.  The
        # reference runs the same chunk schedule in one process.
        reference_api = SocialNetworkAPI(hidden)
        reference = AsyncCrawler(reference_api, 0, concurrency=1, latency=LATENCY)
        while not reference.finished:
            reference.crawl(max_new_rows=33)

        # One chunk, snapshot, "crash".
        first_api = SocialNetworkAPI(hidden)
        first = AsyncCrawler(first_api, 0, concurrency=1, latency=LATENCY)
        first.crawl(max_new_rows=33)
        state = json.loads(json.dumps(first.state_dict()))  # wire round-trip
        rows = first_api.discovered.snapshot_rows()
        seen, raw_calls = first_api.counter.state()

        # A fresh process: rebuild the API's cache + counters, then the
        # crawler, then continue the chunk schedule to completion.
        resumed_api = SocialNetworkAPI(hidden)
        resumed_api.discovered.restore_rows(rows)
        resumed_api.counter.restore(seen, raw_calls)
        resumed = AsyncCrawler(resumed_api, 0, concurrency=1, latency=LATENCY)
        resumed.restore_state(state)
        assert resumed.clock.now == first.clock.now
        assert resumed.rows_fetched == 33
        while not resumed.finished:
            resumed.crawl(max_new_rows=33)

        assert fingerprint(resumed_api) == fingerprint(reference_api)
        assert resumed.rows_fetched == reference.rows_fetched
        assert resumed.batches_issued == reference.batches_issued
        assert resumed.clock.now == reference.clock.now

    def test_state_dict_is_json_safe_and_keyed(self, hidden):
        api = SocialNetworkAPI(hidden)
        crawler = AsyncCrawler(api, 0, concurrency=1, latency=LATENCY)
        crawler.crawl(max_new_rows=10)
        state = crawler.state_dict()
        assert set(state) == CRAWLER_STATE_KEYS
        assert json.loads(json.dumps(state)) == state

    def test_restore_validates_the_document(self, hidden):
        api = SocialNetworkAPI(hidden)
        crawler = AsyncCrawler(api, 0, latency=LATENCY)
        state = crawler.state_dict()
        with pytest.raises(CheckpointError, match="missing crawler state keys"):
            crawler.restore_state({k: v for k, v in state.items() if k != "frontier"})
        with pytest.raises(CheckpointError, match="unknown crawler state keys"):
            crawler.restore_state({**state, "extra": 1})
        other = AsyncCrawler(api, 1, latency=LATENCY)
        with pytest.raises(CheckpointError, match="start node"):
            other.restore_state(state)

    def test_restore_never_rewinds_the_clock(self, hidden):
        api = SocialNetworkAPI(hidden)
        clock = FakeClock()
        crawler = AsyncCrawler(api, 0, clock=clock, latency=LATENCY)
        state = crawler.state_dict()  # clock_now == 0.0
        clock.advance_to(50.0)
        crawler.restore_state(state)
        assert clock.now == 50.0
