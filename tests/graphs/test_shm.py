"""Shared-memory CSR slabs: round trip, zero-copy, and lifetime rules."""

import os
import pickle
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.graph import Graph
from repro.graphs.shm import (
    _LIVE_SEGMENTS,
    CSRSlabSpec,
    SharedCSR,
    _defuse_shared_memory,
)
from repro.walks.batch import run_walk_batch
from repro.walks.transitions import SimpleRandomWalk


@pytest.fixture()
def graph():
    g = barabasi_albert_graph(120, 3, seed=5)
    g.set_attribute("score", {n: float(n % 7) for n in g.nodes()})
    return g


def _dev_shm(segment: str) -> str:
    return os.path.join("/dev/shm", segment)


class TestRoundTrip:
    def test_attach_reproduces_graph_exactly(self, graph):
        csr = graph.compile()
        with SharedCSR.create(csr) as shared:
            attached = SharedCSR.attach(shared.spec)
            twin = attached.graph
            assert np.array_equal(twin.indptr, csr.indptr)
            assert np.array_equal(twin.indices, csr.indices)
            assert np.array_equal(twin.degrees, csr.degrees)
            assert np.array_equal(twin.node_ids, csr.node_ids)
            assert twin.name == csr.name
            assert twin.contiguous == csr.contiguous
            assert twin.attribute_values("score") == csr.attribute_values("score")
            back = twin.to_graph()
            assert back.number_of_nodes() == graph.number_of_nodes()
            assert back.number_of_edges() == graph.number_of_edges()
            attached.close()

    def test_non_contiguous_node_ids_survive(self):
        g = Graph(name="sparse-ids")
        g.add_edge(10, 20)
        g.add_edge(20, 40)
        with SharedCSR.create(g.compile()) as shared:
            twin = shared.graph
            assert twin.nodes() == (10, 20, 40)
            assert twin.neighbors(20) == (10, 40)
            assert not twin.contiguous

    def test_empty_graph_round_trips(self):
        with SharedCSR.create(Graph(name="empty").compile()) as shared:
            assert shared.graph.number_of_nodes() == 0
            assert shared.graph.nodes() == ()

    def test_spec_is_picklable(self, graph):
        with SharedCSR.create(graph.compile()) as shared:
            spec = pickle.loads(pickle.dumps(shared.spec))
            assert isinstance(spec, CSRSlabSpec)
            assert spec.segment == shared.spec.segment
            assert spec.lengths == shared.spec.lengths
            attached = SharedCSR.attach(spec)
            assert attached.graph.number_of_edges() == graph.number_of_edges()
            attached.close()

    def test_spec_layout_matches_the_arrays(self, graph):
        csr = graph.compile()
        with SharedCSR.create(csr) as shared:
            spec = shared.spec
            sizes = tuple(
                a.size for a in (csr.indptr, csr.indices, csr.degrees, csr.node_ids)
            )
            assert spec.lengths == sizes
            assert spec.offsets == (0, sizes[0], sizes[0] + sizes[1], sum(sizes[:3]))
            assert spec.total_elements == sum(sizes)
            assert spec.total_bytes == 8 * sum(sizes)

    def test_attached_graph_walks_like_the_source(self, graph):
        csr = graph.compile()
        starts = np.arange(16, dtype=np.int64)
        reference = run_walk_batch(csr, SimpleRandomWalk(), starts, 30, seed=21)
        with SharedCSR.create(csr) as shared:
            attached = SharedCSR.attach(shared.spec)
            result = run_walk_batch(
                attached.graph, SimpleRandomWalk(), starts, 30, seed=21
            )
            assert np.array_equal(result.paths, reference.paths)
            del result
            attached.close()


class TestZeroCopy:
    def test_attached_arrays_are_views_not_copies(self, graph):
        with SharedCSR.create(graph.compile()) as shared:
            twin = shared.graph
            for array in (twin.indptr, twin.indices, twin.degrees, twin.node_ids):
                assert not array.flags.owndata, "array was copied, not mapped"

    def test_two_attaches_see_one_memory(self, graph):
        # Writing through one mapping must be visible through the other:
        # the definition of zero-copy sharing.  (Production code never
        # writes; this is a throwaway slab.)
        with SharedCSR.create(graph.compile()) as shared:
            a = SharedCSR.attach(shared.spec)
            b = SharedCSR.attach(shared.spec)
            a.graph.indices[0] = 999
            assert b.graph.indices[0] == 999
            a.close()
            b.close()

    def test_graph_is_built_once_per_handle(self, graph):
        with SharedCSR.create(graph.compile()) as shared:
            assert shared.graph is shared.graph


class TestLifetime:
    def test_segment_exists_until_owner_closes(self, graph):
        shared = SharedCSR.create(graph.compile())
        segment = shared.spec.segment
        assert os.path.exists(_dev_shm(segment))
        assert segment in _LIVE_SEGMENTS
        shared.close()
        assert not os.path.exists(_dev_shm(segment))
        assert segment not in _LIVE_SEGMENTS

    def test_attach_close_does_not_unlink(self, graph):
        shared = SharedCSR.create(graph.compile())
        attached = SharedCSR.attach(shared.spec)
        attached.close()
        assert os.path.exists(_dev_shm(shared.spec.segment))
        shared.close()
        assert not os.path.exists(_dev_shm(shared.spec.segment))

    def test_attach_after_unlink_fails(self, graph):
        shared = SharedCSR.create(graph.compile())
        spec = shared.spec
        shared.close()
        with pytest.raises(FileNotFoundError):
            SharedCSR.attach(spec)

    def test_attach_of_an_unknown_segment_fails(self, graph):
        with SharedCSR.create(graph.compile()) as shared:
            spec = shared.spec
        forged = CSRSlabSpec(
            segment=spec.segment + "x",
            lengths=spec.lengths,
            name=spec.name,
            attributes={},
        )
        with pytest.raises(FileNotFoundError):
            SharedCSR.attach(forged)

    def test_creates_never_share_a_segment(self, graph):
        csr = graph.compile()
        with SharedCSR.create(csr) as first, SharedCSR.create(csr) as second:
            assert first.spec.segment != second.spec.segment
            assert {first.spec.segment, second.spec.segment} <= _LIVE_SEGMENTS
            first.graph.indices[0] = 999
            assert second.graph.indices[0] == csr.indices[0]

    def test_context_exit_unlinks(self, graph):
        with SharedCSR.create(graph.compile()) as shared:
            segment = shared.spec.segment
            assert os.path.exists(_dev_shm(segment))
        assert shared.closed
        assert not os.path.exists(_dev_shm(segment))
        assert segment not in _LIVE_SEGMENTS

    def test_repr_reports_the_handle_state(self, graph):
        shared = SharedCSR.create(graph.compile())
        attached = SharedCSR.attach(shared.spec)
        assert "owner" in repr(shared)
        assert "attached" in repr(attached)
        attached.close()
        shared.close()
        assert "closed" in repr(attached) and "closed" in repr(shared)

    def test_close_is_idempotent(self, graph):
        shared = SharedCSR.create(graph.compile())
        shared.close()
        shared.close()
        assert shared.closed

    def test_graph_access_after_close_raises(self, graph):
        shared = SharedCSR.create(graph.compile())
        shared.close()
        with pytest.raises(GraphError, match="closed"):
            shared.graph

    def test_abandoned_handle_is_finalized(self, graph):
        # No explicit close: the GC finalizer must still unlink.
        shared = SharedCSR.create(graph.compile())
        segment = shared.spec.segment
        del shared
        assert not os.path.exists(_dev_shm(segment))
        assert segment not in _LIVE_SEGMENTS


class TestBufferErrorDefusal:
    """Closing under leaked views must not raise or leak slab names."""

    def test_owner_close_with_leaked_view_is_clean(self, graph):
        shared = SharedCSR.create(graph.compile())
        segment = shared.spec.segment
        leaked = shared.graph.indices  # deliberately outlives close()
        checksum = int(leaked.sum())
        shared.close()  # must not raise BufferError
        assert shared.closed
        assert segment not in _LIVE_SEGMENTS
        assert not os.path.exists(_dev_shm(segment))
        # The leaked view stays readable until it dies: defusal drops the
        # handle's references, it does not tear down the mapping.
        assert int(leaked.sum()) == checksum

    def test_attached_close_with_leaked_view_is_clean(self, graph):
        shared = SharedCSR.create(graph.compile())
        attached = SharedCSR.attach(shared.spec)
        leaked = attached.graph.indptr  # deliberately outlives close()
        attached.close()  # must not raise BufferError, must not unlink
        assert attached.closed
        assert os.path.exists(_dev_shm(shared.spec.segment))
        assert int(leaked[-1]) == shared.graph.number_of_edges() * 2
        shared.close()
        assert not os.path.exists(_dev_shm(shared.spec.segment))

    def test_close_after_defusal_is_idempotent(self, graph):
        shared = SharedCSR.create(graph.compile())
        leaked = shared.graph.indptr
        shared.close()
        shared.close()
        assert leaked is not None

    def test_defusal_tolerates_missing_private_attrs(self):
        # Future CPythons may rename SharedMemory internals; defusal must
        # degrade to a no-op, never an AttributeError.
        class Stub:
            pass

        _defuse_shared_memory(Stub())  # nothing to drop: fine

        class Partial:
            _buf = None
            _mmap = object()
            _fd = "not-an-fd"

        partial = Partial()
        _defuse_shared_memory(partial)
        assert partial._mmap is None

    def test_vanished_segment_unregisters_from_tracker(self, graph, monkeypatch):
        # If the segment name is already gone when the owner unlinks,
        # CPython's tracker would warn about a "leak" at exit unless we
        # unregister it ourselves.
        calls = []
        monkeypatch.setattr(
            resource_tracker,
            "unregister",
            lambda name, rtype: calls.append((name, rtype)),
        )
        shared = SharedCSR.create(graph.compile())
        segment = shared.spec.segment
        os.unlink(_dev_shm(segment))  # somebody else swept /dev/shm
        shared.close()  # must not raise FileNotFoundError
        assert (f"/{segment}", "shared_memory") in calls or (
            segment,
            "shared_memory",
        ) in calls
        assert segment not in _LIVE_SEGMENTS
