"""CrawlWalkPipeline end-to-end: epochs, convergence, determinism, hygiene."""

import multiprocessing

import numpy as np
import pytest

from repro.core.config import CrawlPipelineConfig
from repro.crawl import CrawlWalkPipeline, FakeClock
from repro.errors import ConfigurationError
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.shm import _LIVE_SEGMENTS
from repro.osn.accounting import QueryBudget
from repro.osn.api import SocialNetworkAPI
from repro.walks.batch import run_walk_batch, target_weights_batch
from repro.walks.transitions import MetropolisHastingsWalk

LATENCY_SCRIPT = [1.0, 0.25, 0.5, 2.0, 0.75]


@pytest.fixture(scope="module")
def hidden():
    return barabasi_albert_graph(150, 3, seed=31).relabeled()


def build(hidden, concurrency, seed=42, budget=None, **overrides):
    config = CrawlPipelineConfig(
        concurrency=concurrency,
        batch_size=8,
        rows_per_epoch=40,
        walks_per_epoch=64,
        steps_per_walk=40,
        **overrides,
    )
    api = SocialNetworkAPI(hidden, budget=budget)
    return CrawlWalkPipeline(
        api,
        0,
        config=config,
        latency=LATENCY_SCRIPT,
        seed=seed,
    )


class TestEndToEnd:
    def test_three_plus_epochs_converging_to_full_graph_value(self, hidden):
        true_value = 2 * hidden.number_of_edges() / hidden.number_of_nodes()
        with build(hidden, concurrency=4) as pipeline:
            result = pipeline.run()
        # The acceptance pin: at least 3 crawl→compact→walk epochs...
        assert len(result.epochs) >= 3
        assert not result.budget_exhausted
        # ...covering the whole graph by the end...
        assert result.epochs[-1].fetched_nodes == hidden.number_of_nodes()
        assert result.epochs[-1].walk_nodes == hidden.number_of_nodes()
        # ...with the estimate refining toward the full-graph value.
        errors = np.abs(result.estimates - true_value)
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.12 * true_value
        # Coverage and query cost are monotone across epochs.
        fetched = [r.fetched_nodes for r in result.epochs]
        assert fetched == sorted(fetched)
        costs = [r.query_cost for r in result.epochs]
        assert costs == sorted(costs)
        # Walks were free: the campaign paid exactly the crawled rows.
        assert result.query_cost == hidden.number_of_nodes()

    def test_deterministic_per_seed(self, hidden):
        def once():
            with build(hidden, concurrency=4, seed=7) as pipeline:
                result = pipeline.run()
            return (
                [r.estimate for r in result.epochs],
                [r.clock_seconds for r in result.epochs],
                [r.fetched_nodes for r in result.epochs],
            )

        assert once() == once()

    def test_seed_changes_walks_not_coverage(self, hidden):
        with build(hidden, concurrency=4, seed=1) as pipeline:
            a = pipeline.run()
        with build(hidden, concurrency=4, seed=2) as pipeline:
            b = pipeline.run()
        assert [r.fetched_nodes for r in a.epochs] == [
            r.fetched_nodes for r in b.epochs
        ]
        assert a.estimates.tolist() != b.estimates.tolist()

    def test_concurrency_beats_serial_wall_clock(self, hidden):
        # The paper's point, measured on the simulated clock: the same
        # crawl at concurrency 4 finishes in less simulated time than the
        # serial (concurrency 1) crawl-then-walk, with identical coverage
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

    def test_mhrw_design_round_trips(self, hidden):
        true_value = 2 * hidden.number_of_edges() / hidden.number_of_nodes()
        api = SocialNetworkAPI(hidden)
        config = CrawlPipelineConfig(
            concurrency=4,
            batch_size=8,
            rows_per_epoch=60,
            walks_per_epoch=64,
            steps_per_walk=40,
        )
        with CrawlWalkPipeline(
            api,
            0,
            design=MetropolisHastingsWalk(),
            config=config,
            seed=5,
        ) as pipeline:
            result = pipeline.run()
        # MHRW targets uniform, and f is the true degree: the estimate is
        # a plain mean over visits — still a consistent average-degree
        # estimator on the full graph.
        assert np.isfinite(result.final_estimate)
        assert abs(result.final_estimate - true_value) < 0.35 * true_value


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
        config = CrawlPipelineConfig(
            concurrency=4,
            batch_size=8,
            rows_per_epoch=80,
            walks_per_epoch=96,
            steps_per_walk=50,
        )
        with CrawlWalkPipeline(
            api,
            0,
            config=config,
            attribute=lambda nodes: np.array([values[int(n)] for n in nodes]),
            seed=3,
        ) as pipeline:
            result = pipeline.run()
        assert abs(result.final_estimate - truth) < 0.35 * truth

    def test_empty_result_properties(self):
        from repro.crawl import PipelineResult

        empty = PipelineResult(epochs=[], budget_exhausted=False)
        assert np.isnan(empty.final_estimate)
        assert empty.query_cost == 0
        assert empty.simulated_seconds == 0.0

    def test_shared_clock_reads_total_campaign_time(self, hidden):
        clock = FakeClock()
        api = SocialNetworkAPI(hidden)
        config = CrawlPipelineConfig(
            concurrency=4,
            batch_size=8,
            rows_per_epoch=50,
            walks_per_epoch=8,
            steps_per_walk=5,
        )
        with CrawlWalkPipeline(
            api,
            0,
            config=config,
            clock=clock,
            latency=1.0,
            seed=1,
        ) as pipeline:
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


class TestInProcessRounds:
    def test_each_epoch_walks_the_graph_just_published(self, hidden):
        with build(hidden, concurrency=2) as pipeline:
            while (record := pipeline.run_epoch()) is not None:
                topology = pipeline.publisher.acquire()
                assert record.epoch == topology.epoch
                assert record.fetched_nodes == topology.rows
                assert record.walk_nodes == topology.graph.number_of_nodes()
            assert len(pipeline.epochs) >= 3

    def test_generator_advances_with_every_walked_epoch(self, hidden):
        # Each epoch walks its published graph from the pipeline's one
        # generator, continuing where the previous epoch stopped: the
        # estimates equal a replay that walks every epoch's graph from
        # one continuing stream.
        replay_rng = np.random.default_rng(7)
        estimates, replayed = [], []
        with build(hidden, concurrency=4, seed=7) as pipeline:
            cfg, design = pipeline.config, pipeline.design
            while (record := pipeline.run_epoch()) is not None:
                estimates.append(record.estimate)
                topology = pipeline.publisher.acquire()
                assert topology.epoch == record.epoch
                starts = np.zeros(cfg.walks_per_epoch, dtype=np.int64)
                paths = run_walk_batch(
                    topology.graph,
                    design,
                    starts,
                    cfg.steps_per_walk,
                    seed=replay_rng,
                ).paths
                nodes = paths[:, 1:].ravel()
                weights = 1.0 / target_weights_batch(topology.graph, design, nodes)
                values = pipeline.api.discovered.degrees_of(nodes).astype(np.float64)
                replayed.append(float(np.sum(values * weights) / np.sum(weights)))
        assert len(estimates) >= 3
        assert estimates == replayed

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
    def test_unwalkable_first_epoch_yields_nan_then_recovers(self, hidden):
        # rows_per_epoch=1: epoch 1 publishes only the start node (its
        # neighbors are frontier, not fetched), so the induced graph has
        # no edges and the round is skipped with a NaN estimate; later
        # epochs walk normally.
        api = SocialNetworkAPI(hidden)
        config = CrawlPipelineConfig(
            concurrency=1,
            batch_size=1,
            rows_per_epoch=1,
            walks_per_epoch=8,
            steps_per_walk=5,
        )
        with CrawlWalkPipeline(api, 0, config=config, seed=4) as pipeline:
            first = pipeline.run_epoch()
            assert np.isnan(first.estimate)
            assert first.walk_nodes == 1 and first.walk_edges == 0
            for _ in range(30):
                record = pipeline.run_epoch()
            assert np.isfinite(record.estimate)

    def test_unwalked_epoch_reports_no_walks(self, hidden):
        # The same unwalkable first epoch must not report the round it
        # skipped: zero walks of zero steps, while walked epochs report
        # the configured round.
        api = SocialNetworkAPI(hidden)
        config = CrawlPipelineConfig(
            concurrency=1,
            batch_size=1,
            rows_per_epoch=1,
            walks_per_epoch=8,
            steps_per_walk=5,
        )
        with CrawlWalkPipeline(api, 0, config=config, seed=4) as pipeline:
            result = pipeline.run(max_epochs=10)
        first = result.epochs[0]
        assert np.isnan(first.estimate) and first.walk_nodes == 1
        assert (first.walks, first.steps) == (0, 0)
        for record in result.epochs:
            walked = bool(np.isfinite(record.estimate))
            assert (record.walks, record.steps) == ((8, 5) if walked else (0, 0))
        assert np.isfinite(result.final_estimate)

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
        assert "CrawlWalkPipeline" in repr(pipeline)
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
