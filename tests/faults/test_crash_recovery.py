"""Crash-transparent sharded walks: dead workers, bit-identical results.

The recovery contract of :class:`ShardedWalkEngine.map_shards`: a worker
killed mid-round is detected, the pool respawned, and only the failed
shards re-executed — with the same pickled arguments, so the recovered
round's trajectories are bit-for-bit those of a crash-free run.
"""

from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graphs.generators import barabasi_albert_graph
from repro.walks.parallel import ShardedWalkEngine
from repro.walks.transitions import SimpleRandomWalk

WALKS, STEPS, SEED = 64, 10, 42


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(150, 3, seed=11).relabeled()


def run_round(graph, crashes=(), n_workers=4):
    with ShardedWalkEngine(graph, n_workers=n_workers, mp_context="fork") as engine:
        for round_index, shard_index in crashes:
            engine.schedule_worker_crash(round_index, shard_index)
        starts = np.zeros(WALKS, dtype=np.int64)
        result = engine.run_walk_batch(SimpleRandomWalk(), starts, STEPS, seed=SEED)
        stats = (engine.worker_respawns, engine.shard_retries)
    return result.paths, stats


class TestCrashTransparency:
    def test_recovered_round_is_bit_identical(self, graph):
        clean, (respawns, retries) = run_round(graph)
        assert (respawns, retries) == (0, 0)
        crashed, (respawns, retries) = run_round(graph, crashes=[(1, 2)])
        assert respawns == 1
        # The crash also kills sibling futures in flight on the broken
        # pool; every one of them is resubmitted idempotently.
        assert retries >= 1
        np.testing.assert_array_equal(crashed, clean)

    def test_multiple_crashes_in_one_round_recover(self, graph):
        clean, _ = run_round(graph)
        crashed, (respawns, _) = run_round(graph, crashes=[(1, 0), (1, 3)])
        assert respawns >= 1
        np.testing.assert_array_equal(crashed, clean)

    def test_engine_stays_healthy_after_recovery(self, graph):
        with ShardedWalkEngine(graph, n_workers=2, mp_context="fork") as engine:
            engine.schedule_worker_crash(1, 1)
            starts = np.zeros(16, dtype=np.int64)
            first = engine.run_walk_batch(SimpleRandomWalk(), starts, 5, seed=1)
            assert engine.worker_respawns == 1
            # The respawned pool serves later rounds without incident,
            # and a crash-free engine produces the same trajectories.
            second = engine.run_walk_batch(SimpleRandomWalk(), starts, 5, seed=2)
        with ShardedWalkEngine(graph, n_workers=2, mp_context="fork") as engine:
            clean_first = engine.run_walk_batch(SimpleRandomWalk(), starts, 5, seed=1)
            clean_second = engine.run_walk_batch(SimpleRandomWalk(), starts, 5, seed=2)
        np.testing.assert_array_equal(first.paths, clean_first.paths)
        np.testing.assert_array_equal(second.paths, clean_second.paths)

    def test_crash_in_a_later_round_only_hits_that_round(self, graph):
        with ShardedWalkEngine(graph, n_workers=2, mp_context="fork") as engine:
            engine.schedule_worker_crash(2, 0)
            starts = np.zeros(16, dtype=np.int64)
            engine.run_walk_batch(SimpleRandomWalk(), starts, 5, seed=1)
            assert engine.worker_respawns == 0
            engine.run_walk_batch(SimpleRandomWalk(), starts, 5, seed=2)
            assert engine.worker_respawns == 1


class SubmitRefusedOnce:
    """A pool whose *n*-th submit raises ``BrokenProcessPool`` once.

    Stands in for the race where a crashed shard breaks the pool before
    a later shard of the same round is submitted; every other call goes
    to the real pool, so the refused shards' retry runs for real.
    """

    def __init__(self, pool, refuse_at):
        self._pool = pool
        self._refuse_at = refuse_at
        self.submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        if self.submits == self._refuse_at:
            raise BrokenProcessPool("pool broke before this submit")
        return self._pool.submit(*args, **kwargs)

    def shutdown(self, wait=True):
        self._pool.shutdown(wait=wait)


class TestRefusedSubmit:
    def _round(self, graph, refuse_at, crashes=()):
        with ShardedWalkEngine(graph, n_workers=4, mp_context="fork") as engine:
            for round_index, shard_index in crashes:
                engine.schedule_worker_crash(round_index, shard_index)
            stub = SubmitRefusedOnce(engine._pool, refuse_at)
            engine._pool = stub
            starts = np.zeros(WALKS, dtype=np.int64)
            result = engine.run_walk_batch(SimpleRandomWalk(), starts, STEPS, seed=SEED)
            stats = (engine.worker_respawns, engine.shard_retries)
        return result.paths, stats, stub.submits

    def test_refused_submit_retries_the_unsubmitted_shards(self, graph):
        clean, _ = run_round(graph)
        # Shards 0 and 1 go in; the submit of shard 2 is refused, so
        # shards 2 and 3 retry on the respawned pool.
        paths, (respawns, retries), submits = self._round(graph, refuse_at=3)
        assert submits == 3
        assert (respawns, retries) == (1, 2)
        np.testing.assert_array_equal(paths, clean)

    def test_refused_first_submit_retries_the_whole_round(self, graph):
        clean, _ = run_round(graph)
        paths, (respawns, retries), _ = self._round(graph, refuse_at=1)
        assert (respawns, retries) == (1, 4)
        np.testing.assert_array_equal(paths, clean)

    def test_a_crash_scheduled_on_a_refused_shard_still_fires(self, graph):
        # The schedule entry is consumed only when the task enters a
        # pool: the refused shard crashes on its retry, and the second
        # respawn runs the real function.
        clean, _ = run_round(graph)
        paths, (respawns, _), _ = self._round(graph, refuse_at=2, crashes=[(1, 1)])
        assert respawns == 2
        np.testing.assert_array_equal(paths, clean)


class TestScheduleValidation:
    def test_rejects_bad_indices(self, graph):
        with ShardedWalkEngine(graph, n_workers=1, mp_context="fork") as engine:
            with pytest.raises(ConfigurationError):
                engine.schedule_worker_crash(0, 0)
            with pytest.raises(ConfigurationError):
                engine.schedule_worker_crash(1, -1)
