"""The service keeps every topology epoch in process.

:class:`~repro.service.server.SamplingService` publishes each epoch as a
plain in-process graph and walks it in process — ``batch`` and
``sharded`` jobs alike — so a campaign creates no ``/dev/shm`` segment,
no file and no worker process.  The tests below check that after every
epoch of a running campaign, not only once the service has closed, and
that closing — before any epoch, after a run, twice — leaves nothing
behind and keeps the last epoch's graph readable.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig
from repro.crawl.clock import drive
from repro.errors import ConfigurationError
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.shm import _LIVE_SEGMENTS
from repro.osn.api import SocialNetworkAPI
from repro.service import SamplingService, ServiceConfig
from repro.walks.batch import run_walk_batch
from repro.walks.transitions import SimpleRandomWalk


def _child_pids() -> set:
    return {child.pid for child in multiprocessing.active_children()}


WALK = WalkEstimateConfig(
    walk_length=5,
    crawl_hops=0,
    backward_repetitions=3,
    refine_repetitions=0,
    calibration_walks=4,
)


@pytest.fixture()
def service():
    hidden = barabasi_albert_graph(120, 3, seed=9).relabeled()
    return SamplingService(
        SocialNetworkAPI(hidden),
        0,
        config=ServiceConfig(rows_per_epoch=25, n_workers=2),
        latency=[0.5, 1.0, 0.25],
        seed=7,
    )


def spec(backend="batch", tenant="alice"):
    return EstimationJobSpec(
        design="srw",
        samples=20,
        error_target=0.8,
        tenant=tenant,
        walk=WALK,
        engine=EngineConfig(backend=backend),
    )


class TestNothingOutsideTheProcess:
    def test_campaign_creates_no_segment_file_or_process(
        self, service, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        before = set(_LIVE_SEGMENTS)
        children = _child_pids()
        service.submit_nowait(spec())
        service.submit_nowait(spec(backend="sharded", tenant="bob"))
        while service.scheduler.has_work:
            drive(service.clock, service.step())
            # Mid-run, with an epoch published and walked.
            assert set(_LIVE_SEGMENTS) == before
            assert _child_pids() <= children
        assert service.publisher.current_epoch >= 2
        assert all(job.rounds for job in service.jobs.values())
        service.close()
        assert set(_LIVE_SEGMENTS) == before
        assert list(tmp_path.iterdir()) == []


class TestClose:
    def test_close_before_any_epoch_is_clean(self, service):
        before = set(_LIVE_SEGMENTS)
        children = _child_pids()
        service.close()
        assert service.publisher.current is None
        assert set(_LIVE_SEGMENTS) == before
        assert _child_pids() <= children

    def test_close_after_sharded_run_leaves_nothing_behind(
        self, service, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        before = set(_LIVE_SEGMENTS)
        children = _child_pids()
        with service:
            (result,) = service.run([spec(backend="sharded")])
            assert result.rounds
        assert set(_LIVE_SEGMENTS) == before
        assert _child_pids() <= children
        assert list(tmp_path.iterdir()) == []

    def test_double_close_is_idempotent(self, service):
        before = set(_LIVE_SEGMENTS)
        service.run([spec()])
        epoch = service.publisher.current_epoch
        service.close()
        service.close()
        assert service.publisher.current_epoch == epoch
        assert set(_LIVE_SEGMENTS) == before

    def test_closed_service_refuses_further_epochs(self, service):
        service.submit_nowait(spec())
        drive(service.clock, service.step())
        epoch = service.publisher.current_epoch
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            drive(service.clock, service.step())
        with pytest.raises(ConfigurationError, match="closed"):
            drive(service.clock, service.serve())
        with pytest.raises(ConfigurationError, match="closed"):
            service.submit_nowait(spec(tenant="bob"))
        assert service.publisher.current_epoch == epoch

    def test_last_epoch_stays_readable_after_close(self, service):
        service.run([spec()])
        topology = service.publisher.current
        starts = np.zeros(8, dtype=np.int64)
        reference = run_walk_batch(
            topology.graph, SimpleRandomWalk(), starts, 20, seed=3
        )
        service.close()
        # The epoch is a plain graph, not a slab the close unlinked.
        after = run_walk_batch(topology.graph, SimpleRandomWalk(), starts, 20, seed=3)
        assert np.array_equal(after.paths, reference.paths)
        assert topology.graph.number_of_nodes() == topology.rows
