"""TopologyPublisher: epoch swaps, the growth gate, rebuilds, and hygiene."""

import dataclasses
import gc
import threading
import weakref

import numpy as np
import pytest

from repro.crawl import AsyncCrawler, TopologyPublisher
from repro.errors import ConfigurationError
from repro.graphs.discovered import DiscoveredSlab
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.shm import _LIVE_SEGMENTS
from repro.osn.api import SocialNetworkAPI
from repro.walks.batch import run_walk_batch
from repro.walks.transitions import SimpleRandomWalk


@pytest.fixture()
def hidden():
    return barabasi_albert_graph(70, 3, seed=9).relabeled()


@pytest.fixture()
def api(hidden):
    return SocialNetworkAPI(hidden)


def crawl_rows(api, rows):
    crawler = AsyncCrawler(api, 0, concurrency=1, batch_size=8)
    crawler.crawl(max_new_rows=rows)
    return crawler


class TestPublish:
    def test_publishes_fetched_induced_graph(self, api):
        crawl_rows(api, 20)
        publisher = TopologyPublisher(api.discovered)
        topology = publisher.publish()
        slab = api.discovered.compact()
        reference = slab.fetched_csr()
        assert np.array_equal(topology.graph.indptr, reference.indptr)
        assert np.array_equal(topology.graph.indices, reference.indices)
        assert np.array_equal(topology.graph.node_ids, reference.node_ids)
        assert topology.epoch == 1

    def test_growth_gate(self, api):
        crawl_rows(api, 10)
        publisher = TopologyPublisher(api.discovered)
        assert publisher.publish() is not None
        # No growth since: gated.
        assert publisher.publish() is None
        # force overrides the gate.
        assert publisher.publish(force=True) is not None

    def test_gated_publish_skips_compaction(self, api, monkeypatch):
        crawl_rows(api, 10)
        publisher = TopologyPublisher(api.discovered)
        publisher.publish()
        calls = []
        compact = api.discovered.compact
        monkeypatch.setattr(
            api.discovered, "compact", lambda: calls.append(1) or compact()
        )
        # No new fetched row: the gate answers from the store's counter.
        assert publisher.publish() is None
        assert calls == []
        assert publisher.compactions == 1

    def test_acquire_before_publish_raises(self, api):
        publisher = TopologyPublisher(api.discovered)
        with pytest.raises(ConfigurationError, match="publish"):
            publisher.acquire()

    def test_current_epoch_is_zero_before_the_first_publish(self, api):
        crawl_rows(api, 10)
        publisher = TopologyPublisher(api.discovered)
        assert publisher.current is None
        assert publisher.current_epoch == 0
        assert publisher.compactions == 0
        publisher.publish()
        assert publisher.current_epoch == 1

    def test_acquire_returns_the_current_epoch(self, api):
        crawler = crawl_rows(api, 10)
        publisher = TopologyPublisher(api.discovered)
        first = publisher.publish()
        assert publisher.acquire() is first is publisher.current
        crawler.crawl(max_new_rows=10)
        second = publisher.publish()
        assert publisher.acquire() is second
        assert second.epoch == first.epoch + 1

    def test_watermark_is_the_fetched_row_count(self, api):
        crawler = crawl_rows(api, 10)
        publisher = TopologyPublisher(api.discovered)
        while True:
            topology = publisher.publish()
            assert topology.rows == api.discovered.fetched_count
            assert topology.graph.number_of_nodes() == topology.rows
            if crawler.finished:
                break
            crawler.crawl(max_new_rows=10)

    def test_one_new_row_passes_the_gate(self, api):
        crawler = crawl_rows(api, 10)
        publisher = TopologyPublisher(api.discovered)
        first = publisher.publish()
        crawler.crawl(max_new_rows=1)
        assert api.discovered.fetched_count == first.rows + 1
        second = publisher.publish()
        assert second is not None
        assert (second.epoch, second.rows) == (2, first.rows + 1)

    def test_forced_publish_renumbers_the_same_graph(self, api):
        crawl_rows(api, 15)
        publisher = TopologyPublisher(api.discovered)
        first = publisher.publish()
        again = publisher.publish(force=True)
        assert (again.epoch, again.rows) == (2, first.rows)
        assert again.graph is not first.graph
        assert np.array_equal(again.graph.indptr, first.graph.indptr)
        assert np.array_equal(again.graph.indices, first.graph.indices)
        assert np.array_equal(again.graph.node_ids, first.graph.node_ids)
        assert publisher.compactions == 2

    def test_completed_crawl_publishes_the_hidden_graph(self, api, hidden):
        crawler = crawl_rows(api, 10)
        while not crawler.finished:
            crawler.crawl(max_new_rows=25)
        topology = TopologyPublisher(api.discovered).publish()
        assert topology.graph.number_of_nodes() == hidden.number_of_nodes()
        assert topology.graph.number_of_edges() == hidden.number_of_edges()
        for node in hidden.nodes():
            assert sorted(topology.graph.neighbors(node)) == sorted(
                hidden.neighbors(node)
            )

    def test_concurrent_publishes_number_epochs_uniquely(self, api):
        crawl_rows(api, 20)
        publisher = TopologyPublisher(api.discovered)
        epochs = []
        lock = threading.Lock()

        def publish_many():
            for _ in range(10):
                topology = publisher.publish(force=True)
                with lock:
                    epochs.append(topology.epoch)

        threads = [threading.Thread(target=publish_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(epochs) == list(range(1, 41))
        assert publisher.current_epoch == 40
        assert publisher.compactions == 40


class TestRebuild:
    """The resume path: a lost epoch re-published under its number."""

    def test_rebuild_installs_the_recorded_epoch(self, api):
        crawl_rows(api, 20)
        rows = api.discovered.fetched_count
        publisher = TopologyPublisher(api.discovered)
        topology = publisher.rebuild(rows=rows, epoch=7)
        reference = api.discovered.compact().fetched_csr()
        assert np.array_equal(topology.graph.indices, reference.indices)
        assert np.array_equal(topology.graph.node_ids, reference.node_ids)
        assert (topology.epoch, topology.rows) == (7, rows)
        assert publisher.current_epoch == 7
        assert publisher.compactions == 1

    def test_next_publish_is_gated_then_numbered_after_it(self, api):
        crawler = crawl_rows(api, 20)
        publisher = TopologyPublisher(api.discovered)
        publisher.rebuild(rows=api.discovered.fetched_count, epoch=3)
        assert publisher.publish() is None
        crawler.crawl(max_new_rows=5)
        assert publisher.publish().epoch == 4

    def test_rebuild_refuses_a_watermark_the_rows_do_not_match(self, api):
        crawl_rows(api, 20)
        publisher = TopologyPublisher(api.discovered)
        with pytest.raises(ConfigurationError, match="fetched rows"):
            publisher.rebuild(rows=api.discovered.fetched_count - 1, epoch=2)
        assert publisher.current is None

    def test_rebuild_refuses_after_a_publish(self, api):
        crawl_rows(api, 20)
        publisher = TopologyPublisher(api.discovered)
        publisher.publish()
        with pytest.raises(ConfigurationError, match="not published"):
            publisher.rebuild(rows=api.discovered.fetched_count, epoch=2)


class TestEpochLifetime:
    """An epoch is a plain graph: it lives exactly as long as its readers."""

    def test_published_topology_is_frozen(self, api):
        crawl_rows(api, 10)
        topology = TopologyPublisher(api.discovered).publish()
        with pytest.raises(dataclasses.FrozenInstanceError):
            topology.epoch = 9

    def test_superseded_epoch_is_freed_once_unreferenced(self, api):
        crawler = crawl_rows(api, 15)
        publisher = TopologyPublisher(api.discovered)
        first = weakref.ref(publisher.publish().graph)
        crawler.crawl(max_new_rows=15)
        publisher.publish()
        gc.collect()
        # The publisher keeps no history: nobody held epoch 1, so its
        # graph is gone the moment epoch 2 lands.
        assert first() is None
        assert publisher.current_epoch == 2

    def test_held_epoch_is_never_written(self, api):
        crawler = crawl_rows(api, 10)
        publisher = TopologyPublisher(api.discovered)
        held = publisher.publish()
        frozen = [a.copy() for a in (held.graph.indptr, held.graph.indices)]
        frozen.append(held.graph.node_ids.copy())
        while not crawler.finished:
            crawler.crawl(max_new_rows=10)
            publisher.publish()
        # No append or compaction since wrote into epoch 1's arrays.
        current = (held.graph.indptr, held.graph.indices, held.graph.node_ids)
        assert all(map(np.array_equal, current, frozen))
        assert publisher.current_epoch > held.epoch

    def test_failed_swap_leaks_nothing_and_keeps_current(self, api, monkeypatch):
        crawler = crawl_rows(api, 15)
        publisher = TopologyPublisher(api.discovered)
        first = publisher.publish()
        live_before = set(_LIVE_SEGMENTS)
        crawler.crawl(max_new_rows=15)

        def torn(self):
            raise RuntimeError("torn swap")

        monkeypatch.setattr(DiscoveredSlab, "fetched_csr", torn)
        with pytest.raises(RuntimeError, match="torn swap"):
            publisher.publish()
        monkeypatch.undo()
        assert set(_LIVE_SEGMENTS) == live_before
        assert publisher.current is first
        assert publisher.acquire() is first
        # The publisher still works after the failure, numbering on.
        second = publisher.publish()
        assert second is not None and second.epoch == 2
        assert second.rows == api.discovered.fetched_count


class TestSwapUnderRunningRounds:
    def test_pinned_round_sees_the_leased_epoch_exactly(self, api):
        crawler = crawl_rows(api, 20)
        publisher = TopologyPublisher(api.discovered)
        publisher.publish()
        held = publisher.acquire()
        pinned_nodes = held.graph.number_of_nodes()
        # Reference trajectories over epoch 1, before any swap.
        starts = np.zeros(16, dtype=np.int64)
        reference = run_walk_batch(held.graph, SimpleRandomWalk(), starts, 40, seed=7)
        # Swap epochs *while the reader still holds epoch 1*.
        crawler.crawl(max_new_rows=20)
        publisher.publish()
        result = run_walk_batch(held.graph, SimpleRandomWalk(), starts, 40, seed=7)
        assert np.array_equal(result.paths, reference.paths)
        # A fresh acquire walks the new epoch's larger topology.
        fresh = publisher.acquire()
        grown = run_walk_batch(fresh.graph, SimpleRandomWalk(), starts, 40, seed=7)
        assert fresh.epoch == held.epoch + 1
        assert fresh.graph.number_of_nodes() > pinned_nodes
        assert grown.k == 16

    def test_concurrent_publish_during_round_is_never_torn(self, api):
        # A publisher thread swaps epochs as fast as it can while rounds
        # walk one held epoch's graph: every round must match the
        # reference round over that epoch.
        crawler = AsyncCrawler(api, 0, concurrency=2, batch_size=8)
        crawler.crawl(max_new_rows=25)
        publisher = TopologyPublisher(api.discovered)
        publisher.publish()
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                crawler_done = crawler.finished
                if not crawler_done:
                    crawler.crawl(max_new_rows=5)
                publisher.publish(force=True)
                if crawler_done:
                    break

        held = publisher.acquire()
        starts = np.zeros(32, dtype=np.int64)
        thread = threading.Thread(target=churn)
        try:
            # Reference round over the held epoch, before any churn.
            reference = run_walk_batch(
                held.graph, SimpleRandomWalk(), starts, 30, seed=11
            )
            thread.start()
            for _ in range(5):
                result = run_walk_batch(
                    held.graph, SimpleRandomWalk(), starts, 30, seed=11
                )
                # Deterministic per seed over one graph: any divergence
                # would mean a torn/overwritten epoch.
                assert np.array_equal(result.paths, reference.paths)
        finally:
            stop.set()
            if thread.ident is not None:
                thread.join(timeout=60)
        assert not thread.is_alive()

    def test_no_segments_leak_across_swaps(self, api):
        live_before = set(_LIVE_SEGMENTS)
        crawler = crawl_rows(api, 10)
        publisher = TopologyPublisher(api.discovered)
        publisher.publish()
        while not crawler.finished:
            crawler.crawl(max_new_rows=10)
            publisher.publish()
            assert set(_LIVE_SEGMENTS) == live_before
