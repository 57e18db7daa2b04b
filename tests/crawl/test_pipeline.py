"""CrawlPipeline end-to-end: epochs, the held rows' mean, determinism, hygiene."""

import multiprocessing

import numpy as np
import pytest

from repro.core.config import CrawlPipelineConfig
from repro.crawl import CrawlPipeline, FakeClock
from repro.errors import ConfigurationError
from repro.graphs.discovered import DiscoveredGraph
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.shm import _LIVE_SEGMENTS
from repro.osn.accounting import QueryBudget
from repro.osn.api import SocialNetworkAPI

LATENCY_SCRIPT = [1.0, 0.25, 0.5, 2.0, 0.75]


@pytest.fixture(scope="module")
def hidden():
    return barabasi_albert_graph(150, 3, seed=31).relabeled()


def build(hidden, concurrency, budget=None, **overrides):
    config = CrawlPipelineConfig(
        concurrency=concurrency, batch_size=8, rows_per_epoch=40, **overrides
    )
    api = SocialNetworkAPI(hidden, budget=budget)
    return CrawlPipeline(api, 0, config=config, latency=LATENCY_SCRIPT)


class TestEndToEnd:
    def test_three_plus_epochs_converging_to_full_graph_value(self, hidden):
        true_value = 2 * hidden.number_of_edges() / hidden.number_of_nodes()
        with build(hidden, concurrency=4) as pipeline:
            result = pipeline.run()
        # The acceptance pin: at least 3 crawl epochs...
        assert len(result.epochs) >= 3
        assert not result.budget_exhausted
        # ...covering the whole graph by the end...
        assert result.epochs[-1].fetched_nodes == hidden.number_of_nodes()
        # ...with the estimate refining toward the full-graph value.
        errors = np.abs(result.estimates - true_value)
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.12 * true_value
        # Coverage and query cost are monotone across epochs.
        fetched = [r.fetched_nodes for r in result.epochs]
        assert fetched == sorted(fetched)
        costs = [r.query_cost for r in result.epochs]
        assert costs == sorted(costs)
        # The campaign paid exactly the crawled rows.
        assert result.query_cost == hidden.number_of_nodes()

    def test_replays_bit_for_bit(self, hidden):
        def once():
            with build(hidden, concurrency=4) as pipeline:
                result = pipeline.run()
            return (
                [r.estimate for r in result.epochs],
                [r.clock_seconds for r in result.epochs],
                [r.fetched_nodes for r in result.epochs],
            )

        assert once() == once()

    def test_concurrency_beats_serial_wall_clock(self, hidden):
        # The paper's point, measured on the simulated clock: the same
        # crawl at concurrency 4 finishes in less simulated time than the
        # serial (concurrency 1) crawl, with identical coverage
        # and identical query cost.
        with build(hidden, concurrency=1) as serial:
            serial_result = serial.run()
        with build(hidden, concurrency=4) as wide:
            wide_result = wide.run()
        assert wide_result.simulated_seconds < serial_result.simulated_seconds
        assert (
            wide_result.epochs[-1].fetched_nodes
            == serial_result.epochs[-1].fetched_nodes
        )
        assert wide_result.query_cost == serial_result.query_cost


class TestBudgetAndEdges:
    def test_budget_exhaustion_ends_cleanly_with_partial_estimates(self, hidden):
        with build(hidden, concurrency=4, budget=QueryBudget(60)) as pipeline:
            result = pipeline.run()
            # Nothing new after exhaustion: the run is over.
            assert pipeline.run_epoch() is None
        assert result.budget_exhausted
        assert len(result.epochs) >= 1
        assert result.query_cost <= 60
        assert result.epochs[-1].fetched_nodes <= 60
        assert np.isfinite(result.final_estimate)

    def test_max_epochs_caps_the_run(self, hidden):
        with build(hidden, concurrency=4) as pipeline:
            result = pipeline.run(max_epochs=2)
        assert len(result.epochs) == 2
        assert result.epochs[-1].fetched_nodes < hidden.number_of_nodes()

    def test_epochs_resume_after_cap(self, hidden):
        with build(hidden, concurrency=4) as pipeline:
            pipeline.run(max_epochs=1)
            result = pipeline.run()
        assert result.epochs[-1].fetched_nodes == hidden.number_of_nodes()

    def test_closed_pipeline_refuses(self, hidden):
        pipeline = build(hidden, concurrency=2)
        pipeline.close()
        with pytest.raises(ConfigurationError, match="closed"):
            pipeline.run_epoch()
        pipeline.close()  # idempotent

    def test_bad_max_epochs_rejected(self, hidden):
        with build(hidden, concurrency=2) as pipeline:
            with pytest.raises(ConfigurationError):
                pipeline.run(max_epochs=0)

    def test_custom_attribute_estimand(self, hidden):
        # Estimate the mean of (node id mod 5) — any per-node function of
        # discovered data plugs in.
        values = {n: float(n % 5) for n in hidden.nodes()}
        truth = float(np.mean([v for v in values.values()]))
        api = SocialNetworkAPI(hidden)
        config = CrawlPipelineConfig(concurrency=4, batch_size=8, rows_per_epoch=80)
        with CrawlPipeline(
            api,
            0,
            config=config,
            attribute=lambda nodes: np.array([values[int(n)] for n in nodes]),
        ) as pipeline:
            result = pipeline.run()
        assert result.final_estimate == truth

    def test_empty_result_properties(self):
        from repro.crawl import PipelineResult

        empty = PipelineResult(epochs=[], budget_exhausted=False)
        assert np.isnan(empty.final_estimate)
        assert empty.query_cost == 0
        assert empty.simulated_seconds == 0.0

    def test_shared_clock_reads_total_campaign_time(self, hidden):
        clock = FakeClock()
        api = SocialNetworkAPI(hidden)
        config = CrawlPipelineConfig(concurrency=4, batch_size=8, rows_per_epoch=50)
        with CrawlPipeline(api, 0, config=config, clock=clock, latency=1.0) as pipeline:
            result = pipeline.run()
        assert clock.now == result.simulated_seconds > 0.0


class TestHygiene:
    def test_run_creates_no_segment_or_file(self, hidden, tmp_path, monkeypatch):
        # Epochs are in-process graphs: no epoch of a running pipeline
        # creates a /dev/shm segment or writes a file.
        monkeypatch.chdir(tmp_path)
        live_before = set(_LIVE_SEGMENTS)
        with build(hidden, concurrency=4) as pipeline:
            while pipeline.run_epoch() is not None:
                assert set(_LIVE_SEGMENTS) == live_before
            assert len(pipeline.epochs) >= 3
        assert set(_LIVE_SEGMENTS) == live_before
        assert list(tmp_path.iterdir()) == []

    def test_no_segments_leak_on_budget_exhaustion(self, hidden):
        live_before = set(_LIVE_SEGMENTS)
        with build(hidden, concurrency=4, budget=QueryBudget(45)) as pipeline:
            pipeline.run()
        assert set(_LIVE_SEGMENTS) == live_before

    def test_run_starts_no_child_process(self, hidden):
        def child_pids():
            return {child.pid for child in multiprocessing.active_children()}

        children = child_pids()
        with build(hidden, concurrency=4) as pipeline:
            while pipeline.run_epoch() is not None:
                assert child_pids() <= children
            assert len(pipeline.epochs) >= 3
        assert child_pids() <= children


class TestSmallSurfaces:
    def test_one_row_epoch_reports_that_rows_true_degree(self, hidden):
        # rows_per_epoch=1: epoch 1 fetches only the start's row (its
        # neighbors are frontier, not fetched), so it reports the start's
        # true degree; each later epoch adds one row.
        api = SocialNetworkAPI(hidden)
        config = CrawlPipelineConfig(concurrency=1, batch_size=1, rows_per_epoch=1)
        with CrawlPipeline(api, 0, config=config) as pipeline:
            first = pipeline.run_epoch()
            second = pipeline.run_epoch()
        assert (first.epoch, first.fetched_nodes) == (1, 1)
        assert first.estimate == hidden.degree(0)
        assert (second.epoch, second.fetched_nodes) == (2, 2)

    def test_reprs_and_properties(self, hidden):
        from repro.crawl import AsyncCrawler, TopologyPublisher

        api = SocialNetworkAPI(hidden)
        crawler = AsyncCrawler(api, 0, concurrency=2)
        assert crawler.discovered is api.discovered
        assert crawler.frontier_size == 1
        assert "AsyncCrawler" in repr(crawler)
        publisher = TopologyPublisher(api.discovered)
        assert "TopologyPublisher" in repr(publisher)
        crawler.crawl(max_new_rows=5)
        topology = publisher.publish()
        assert "PublishedTopology" in repr(topology)
        assert publisher.acquire().epoch == publisher.current_epoch == 1
        assert "epoch=1" in repr(publisher)
        pipeline = build(hidden, concurrency=2)
        assert "CrawlPipeline" in repr(pipeline)
        pipeline.close()

    def test_clock_repr(self):
        assert "FakeClock" in repr(FakeClock())


class TestBudgetEpochAccounting:
    def test_exhausted_epoch_reports_settled_rows_and_time(self, hidden):
        # The epoch that hits the budget must report what actually
        # settled before the raise — rows and simulated seconds — not an
        # empty crawl (fetched_nodes and new_rows stay consistent).
        with build(hidden, concurrency=4, budget=QueryBudget(60)) as pipeline:
            result = pipeline.run()
        assert result.budget_exhausted
        total_new = sum(r.new_rows for r in result.epochs)
        assert total_new == result.epochs[-1].fetched_nodes
        last = result.epochs[-1]
        if last.new_rows:
            assert last.crawl_seconds > 0.0


class TestHeldRowsEstimate:
    def test_each_epoch_reports_the_held_rows_mean_degree(self, hidden):
        with build(hidden, concurrency=4) as pipeline:
            discovered = pipeline.api.discovered
            while (record := pipeline.run_epoch()) is not None:
                degrees = discovered.degrees_of(discovered.fetched_ids())
                assert record.estimate == np.mean(degrees)
            assert len(pipeline.epochs) >= 3

    def test_each_epoch_reports_the_held_rows_attribute_mean(self, hidden):
        def attribute(nodes):
            return np.sqrt(nodes + 0.5)

        api = SocialNetworkAPI(hidden)
        config = CrawlPipelineConfig(concurrency=4, batch_size=8, rows_per_epoch=40)
        with CrawlPipeline(api, 0, config=config, attribute=attribute) as pipeline:
            while (record := pipeline.run_epoch()) is not None:
                held = api.discovered.fetched_ids()
                assert record.estimate == np.mean(attribute(held))
            assert len(pipeline.epochs) >= 3

    def test_completed_crawl_reports_the_hidden_graph_exactly(self, hidden):
        with build(hidden, concurrency=4) as pipeline:
            result = pipeline.run()
        assert result.epochs[-1].fetched_nodes == hidden.number_of_nodes()
        true_value = 2 * hidden.number_of_edges() / hidden.number_of_nodes()
        assert result.final_estimate == true_value

    def test_run_never_compacts(self, hidden, monkeypatch):
        def refuse(self):
            raise AssertionError("the pipeline compacted the discovered store")

        monkeypatch.setattr(DiscoveredGraph, "compact", refuse)
        with build(hidden, concurrency=4) as pipeline:
            result = pipeline.run()
        assert result.epochs[-1].fetched_nodes == hidden.number_of_nodes()

    def test_zero_budget_reports_one_nan_epoch(self, hidden):
        with build(hidden, concurrency=4, budget=QueryBudget(0)) as pipeline:
            first = pipeline.run_epoch()
            assert pipeline.run_epoch() is None
            assert pipeline.result().budget_exhausted
        assert (first.epoch, first.fetched_nodes, first.query_cost) == (1, 0, 0)
        assert np.isnan(first.estimate)


#: ``BENCH_asynccrawl``'s smoke crawl, per epoch: rows held (equal to the
#: query cost and the raw calls) and the simulated clock.
SMOKE_CRAWL = {
    1: ([80, 160, 240, 320, 400], [6.0, 10.5, 15.75, 19.75, 25.25]),
    4: ([80, 160, 240, 320, 400], [3.0, 5.0, 7.0, 9.25, 10.75]),
}


@pytest.mark.parametrize("concurrency", sorted(SMOKE_CRAWL))
def test_smoke_crawl_numbers_are_pinned(concurrency):
    hidden = barabasi_albert_graph(400, 4, seed=42).relabeled()
    api = SocialNetworkAPI(hidden)
    config = CrawlPipelineConfig(
        concurrency=concurrency, batch_size=16, rows_per_epoch=80
    )
    latency = [1.0, 0.25, 0.5, 2.0, 0.75, 1.5]
    with CrawlPipeline(api, 0, config=config, latency=latency) as pipeline:
        epochs = pipeline.run().epochs
    rows, seconds = SMOKE_CRAWL[concurrency]
    assert [r.epoch for r in epochs] == [1, 2, 3, 4, 5]
    assert [r.fetched_nodes for r in epochs] == rows
    assert [r.query_cost for r in epochs] == rows
    assert [r.raw_calls for r in epochs] == rows
    assert [r.clock_seconds for r in epochs] == seconds
