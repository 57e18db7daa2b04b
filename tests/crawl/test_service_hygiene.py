"""Regression: the service's standing lease must not leak /dev/shm segments.

:class:`~repro.service.server.SamplingService` pins the current topology
epoch with a *standing lease* between rounds (its in-process rounds walk
that slab).  ``TopologyPublisher.close()`` defers the unlink of any epoch
with outstanding leases to the last release — correct for ordinary
clients, fatal for the service if it closed the publisher while still
holding its own pin: the deferred unlink would wait on a lease nobody
will ever release again, and the segment would outlive the process.

``SamplingService.close()`` therefore releases the standing lease
*before* ``publisher.close()``.  These tests pin that ordering from the
outside: after any service shutdown path, nothing the service created is
left in ``/dev/shm``, and no path — ``sharded`` jobs included — leaves a
worker process behind.
"""

import multiprocessing
import os

import pytest

from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig
from repro.errors import ConfigurationError
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.shm import _LIVE_SEGMENTS
from repro.osn.api import SocialNetworkAPI
from repro.service import SamplingService, ServiceConfig


def _dev_shm(segment: str) -> str:
    return os.path.join("/dev/shm", segment)


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
        config=ServiceConfig(rows_per_epoch=25),
        latency=[0.5, 1.0, 0.25],
        seed=7,
    )


def spec(backend="batch"):
    return EstimationJobSpec(
        design="srw",
        samples=20,
        error_target=0.8,
        tenant="alice",
        walk=WALK,
        engine=EngineConfig(backend=backend),
    )


class TestStandingLeaseHygiene:
    def test_close_after_run_unlinks_everything(self, service):
        before = set(_LIVE_SEGMENTS)
        service.run([spec()])
        # Mid-flight the service still pins the live epoch with its
        # standing lease, and that epoch's segment is on disk.
        assert service._lease is not None
        created = set(_LIVE_SEGMENTS) - before
        assert created
        for segment in created:
            assert os.path.exists(_dev_shm(segment))
        service.close()
        for segment in created:
            assert not os.path.exists(_dev_shm(segment))
        assert set(_LIVE_SEGMENTS) == before

    def test_close_after_sharded_run_leaves_nothing_behind(self, service):
        before = set(_LIVE_SEGMENTS)
        children = _child_pids()
        with service:
            service.run([spec(backend="sharded")])
            created = set(_LIVE_SEGMENTS) - before
            assert created
            # Sharded rounds run in process: no worker was ever started.
            assert _child_pids() <= children
            lease = service._lease
            assert lease is not None
        # Lease released, publisher closed, segments unlinked.
        assert service._lease is None
        with pytest.raises(ConfigurationError, match="released"):
            lease.topology
        for segment in created:
            assert not os.path.exists(_dev_shm(segment))
        assert set(_LIVE_SEGMENTS) == before
        assert _child_pids() <= children

    def test_close_before_any_epoch_is_clean(self, service):
        before = set(_LIVE_SEGMENTS)
        service.close()
        assert set(_LIVE_SEGMENTS) == before

    def test_double_close_does_not_double_release(self, service):
        before = set(_LIVE_SEGMENTS)
        service.run([spec()])
        service.close()
        service.close()  # second close must not touch the released lease
        assert set(_LIVE_SEGMENTS) == before
