"""TopologyPublisher: epoch swaps, lease retirement, and segment hygiene."""

import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.crawl import AsyncCrawler, TopologyPublisher
from repro.errors import ConfigurationError
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.shm import _LIVE_SEGMENTS
from repro.osn.api import SocialNetworkAPI
from repro.walks.batch import run_walk_batch
from repro.walks.transitions import SimpleRandomWalk


def _dev_shm(segment: str) -> str:
    return os.path.join("/dev/shm", segment)


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
        with TopologyPublisher(api.discovered) as publisher:
            topology = publisher.publish()
            slab = api.discovered.compact()
            reference = slab.fetched_csr()
            assert np.array_equal(topology.graph.indptr, reference.indptr)
            assert np.array_equal(topology.graph.indices, reference.indices)
            assert np.array_equal(topology.graph.node_ids, reference.node_ids)
            assert topology.epoch == 1

    def test_fetched_only_false_publishes_member_slab(self, api):
        crawl_rows(api, 10)
        with TopologyPublisher(api.discovered, fetched_only=False) as publisher:
            topology = publisher.publish()
            assert topology.graph.number_of_nodes() == api.discovered.membership_size

    def test_growth_gate(self, api):
        crawl_rows(api, 10)
        with TopologyPublisher(api.discovered, min_new_rows=5) as publisher:
            assert publisher.publish() is not None
            # No growth since: gated.
            assert publisher.publish() is None
            # force overrides the gate.
            assert publisher.publish(force=True) is not None

    def test_acquire_before_publish_raises(self, api):
        with TopologyPublisher(api.discovered) as publisher:
            with pytest.raises(ConfigurationError, match="publish"):
                publisher.acquire()

    def test_closed_publisher_refuses(self, api):
        publisher = TopologyPublisher(api.discovered)
        publisher.close()
        with pytest.raises(ConfigurationError, match="closed"):
            publisher.publish()


class TestRebuild:
    """The resume path: a lost epoch re-published under its number."""

    def test_rebuild_installs_the_recorded_epoch(self, api):
        crawl_rows(api, 20)
        rows = api.discovered.fetched_count
        with TopologyPublisher(api.discovered) as publisher:
            topology = publisher.rebuild(rows=rows, epoch=7)
            reference = api.discovered.compact().fetched_csr()
            assert np.array_equal(topology.graph.indices, reference.indices)
            assert np.array_equal(topology.graph.node_ids, reference.node_ids)
            assert (topology.epoch, topology.rows) == (7, rows)
            assert publisher.current_epoch == 7
            assert publisher.compactions == 1

    def test_next_publish_is_gated_then_numbered_after_it(self, api):
        crawler = crawl_rows(api, 20)
        with TopologyPublisher(api.discovered) as publisher:
            publisher.rebuild(rows=api.discovered.fetched_count, epoch=3)
            assert publisher.publish() is None
            crawler.crawl(max_new_rows=5)
            assert publisher.publish().epoch == 4

    def test_rebuild_refuses_a_watermark_the_rows_do_not_match(self, api):
        crawl_rows(api, 20)
        with TopologyPublisher(api.discovered) as publisher:
            with pytest.raises(ConfigurationError, match="fetched rows"):
                publisher.rebuild(rows=api.discovered.fetched_count - 1, epoch=2)
            assert publisher.current is None

    def test_rebuild_refuses_after_a_publish(self, api):
        crawl_rows(api, 20)
        with TopologyPublisher(api.discovered) as publisher:
            publisher.publish()
            with pytest.raises(ConfigurationError, match="not published"):
                publisher.rebuild(rows=api.discovered.fetched_count, epoch=2)


class TestEpochRetirement:
    def test_unleased_epoch_retires_on_swap(self, api):
        crawler = crawl_rows(api, 15)
        publisher = TopologyPublisher(api.discovered)
        first = publisher.publish()
        segment_one = first.spec.segment
        assert os.path.exists(_dev_shm(segment_one))
        crawler.crawl(max_new_rows=15)
        second = publisher.publish()
        # Nobody held epoch 1: its segment is gone the moment 2 lands.
        assert first.retired
        assert not os.path.exists(_dev_shm(segment_one))
        assert os.path.exists(_dev_shm(second.spec.segment))
        publisher.close()
        assert not os.path.exists(_dev_shm(second.spec.segment))

    def test_leased_epoch_survives_swap_until_release(self, api):
        crawler = crawl_rows(api, 15)
        publisher = TopologyPublisher(api.discovered)
        first = publisher.publish()
        lease = publisher.acquire()
        crawler.crawl(max_new_rows=15)
        publisher.publish()
        # Epoch 1 is superseded but pinned by the lease.
        assert not first.retired
        assert os.path.exists(_dev_shm(first.spec.segment))
        lease.release()
        assert first.retired
        assert not os.path.exists(_dev_shm(first.spec.segment))
        publisher.close()

    def test_release_is_idempotent(self, api):
        crawl_rows(api, 10)
        publisher = TopologyPublisher(api.discovered)
        publisher.publish()
        lease = publisher.acquire()
        lease.release()
        lease.release()
        with pytest.raises(ConfigurationError, match="released"):
            lease.graph
        publisher.close()

    def test_close_with_open_lease_defers_unlink(self, api):
        crawl_rows(api, 10)
        publisher = TopologyPublisher(api.discovered)
        topology = publisher.publish()
        lease = publisher.acquire()
        publisher.close()
        assert os.path.exists(_dev_shm(topology.spec.segment))
        lease.release()
        assert not os.path.exists(_dev_shm(topology.spec.segment))

    def test_failed_swap_leaks_nothing_and_keeps_current(self, api, monkeypatch):
        crawler = crawl_rows(api, 15)
        publisher = TopologyPublisher(api.discovered)
        first = publisher.publish()
        live_before = set(_LIVE_SEGMENTS)
        crawler.crawl(max_new_rows=15)
        monkeypatch.setattr(
            TopologyPublisher,
            "_install",
            lambda self, topology: (_ for _ in ()).throw(RuntimeError("torn swap")),
        )
        with pytest.raises(RuntimeError, match="torn swap"):
            publisher.publish()
        monkeypatch.undo()
        # The failed epoch's slab was closed before the error escaped.
        assert set(_LIVE_SEGMENTS) == live_before
        assert publisher.current is first
        assert os.path.exists(_dev_shm(first.spec.segment))
        # The publisher still works after the failure.
        second = publisher.publish()
        assert second is not None and second.epoch == 2
        publisher.close()
        assert not os.path.exists(_dev_shm(second.spec.segment))


class TestSwapUnderRunningRounds:
    def test_pinned_round_sees_the_leased_epoch_exactly(self, api):
        crawler = crawl_rows(api, 20)
        publisher = TopologyPublisher(api.discovered)
        publisher.publish()
        lease = publisher.acquire()
        pinned_nodes = lease.graph.number_of_nodes()
        # Reference trajectories over epoch 1, before any swap.
        starts = np.zeros(16, dtype=np.int64)
        reference = run_walk_batch(lease.graph, SimpleRandomWalk(), starts, 40, seed=7)
        # Swap epochs *while the lease pins epoch 1*.
        crawler.crawl(max_new_rows=20)
        publisher.publish()
        result = run_walk_batch(lease.graph, SimpleRandomWalk(), starts, 40, seed=7)
        assert np.array_equal(result.paths, reference.paths)
        # A new lease walks the new epoch's larger topology.
        lease.release()
        with publisher.acquire() as fresh:
            grown = run_walk_batch(fresh.graph, SimpleRandomWalk(), starts, 40, seed=7)
            assert fresh.graph.number_of_nodes() > pinned_nodes
            assert grown.k == 16
        publisher.close()

    def test_concurrent_publish_during_round_is_never_torn(self, api):
        # A publisher thread swaps epochs as fast as it can while rounds
        # walk one lease's graph: every round must match the reference
        # round over that lease's slab.
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

        lease = publisher.acquire()
        starts = np.zeros(32, dtype=np.int64)
        thread = threading.Thread(target=churn)
        try:
            # Reference round over the pinned epoch, before any churn.
            reference = run_walk_batch(
                lease.graph, SimpleRandomWalk(), starts, 30, seed=11
            )
            thread.start()
            for _ in range(5):
                result = run_walk_batch(
                    lease.graph, SimpleRandomWalk(), starts, 30, seed=11
                )
                # Deterministic per seed over one slab: any divergence
                # would mean a torn/overwritten slab.
                assert np.array_equal(result.paths, reference.paths)
        finally:
            stop.set()
            if thread.ident is not None:
                thread.join(timeout=60)
        assert not thread.is_alive()
        lease.release()
        publisher.close()

    def test_no_segments_leak_across_swaps(self, api):
        live_before = set(_LIVE_SEGMENTS)
        crawler = crawl_rows(api, 10)
        publisher = TopologyPublisher(api.discovered)
        publisher.publish()
        while not crawler.finished:
            crawler.crawl(max_new_rows=10)
            publisher.publish()
        publisher.close()
        assert set(_LIVE_SEGMENTS) == live_before


class TestFileSlabHygiene:
    """File-backed epochs follow the exact shm retirement discipline."""

    def _slab_files(self, slab_dir):
        return sorted(p.name for p in Path(slab_dir).iterdir())

    def test_publishes_file_epoch_and_retires_it(self, api, tmp_path):
        crawl_rows(api, 20)
        slab_dir = tmp_path / "slabs"
        publisher = TopologyPublisher(
            api.discovered, storage="file", slab_dir=slab_dir
        )
        topology = publisher.publish()
        assert topology.spec.storage == "file"
        assert os.path.exists(topology.spec.segment)
        slab = api.discovered.compact()
        assert np.array_equal(topology.graph.indices, slab.fetched_csr().indices)
        publisher.close()
        assert self._slab_files(slab_dir) == []

    def test_superseded_file_slab_unlinks_on_last_lease_release(self, api, tmp_path):
        crawler = crawl_rows(api, 15)
        slab_dir = tmp_path / "slabs"
        publisher = TopologyPublisher(
            api.discovered, storage="file", slab_dir=slab_dir
        )
        first = publisher.publish()
        lease = publisher.acquire()
        crawler.crawl(max_new_rows=15)
        second = publisher.publish()
        # Epoch 1 is superseded but pinned by the open lease.
        assert not first.retired
        assert os.path.exists(first.spec.segment)
        lease.release()
        assert first.retired
        assert not os.path.exists(first.spec.segment)
        assert os.path.exists(second.spec.segment)
        publisher.close()
        assert self._slab_files(slab_dir) == []

    def test_crash_mid_publish_leaves_no_orphan_files(self, api, tmp_path, monkeypatch):
        crawler = crawl_rows(api, 15)
        slab_dir = tmp_path / "slabs"
        publisher = TopologyPublisher(
            api.discovered, storage="file", slab_dir=slab_dir
        )
        first = publisher.publish()
        live_before = set(_LIVE_SEGMENTS)
        crawler.crawl(max_new_rows=15)
        monkeypatch.setattr(
            TopologyPublisher,
            "_install",
            lambda self, topology: (_ for _ in ()).throw(RuntimeError("torn swap")),
        )
        with pytest.raises(RuntimeError, match="torn swap"):
            publisher.publish()
        monkeypatch.undo()
        # The torn epoch's slab file is gone; no .tmp orphans either —
        # only epoch 1's slab remains in the directory.
        assert set(_LIVE_SEGMENTS) == live_before
        assert self._slab_files(slab_dir) == [Path(first.spec.segment).name]
        second = publisher.publish()
        assert second is not None and second.epoch == 2
        publisher.close()
        assert self._slab_files(slab_dir) == []

    def test_file_storage_requires_slab_dir(self, api):
        with pytest.raises(ConfigurationError, match="slab_dir"):
            TopologyPublisher(api.discovered, storage="file")
        with pytest.raises(ConfigurationError, match="storage"):
            TopologyPublisher(api.discovered, storage="tape")
