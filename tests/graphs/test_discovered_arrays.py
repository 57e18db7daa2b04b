"""DiscoveredGraph's array paths: gathered compaction and row snapshots.

``compact()`` fills the CSR edge array with one gather over the row
pool.  The per-row loop it replaced is kept below as the reference, and
every store shape that could separate the two — a re-recorded row,
mark-only members, ids past the dense table, an empty store, random
record/mark sequences — must compact to identical arrays.
``snapshot_rows`` → ``restore_rows`` must rebuild a store that every
lookup and every compaction cannot tell from its source.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.graphs.discovered import _DENSE_ID_LIMIT, DiscoveredGraph
from repro.graphs.generators import barabasi_albert_graph

BIG = _DENSE_ID_LIMIT + 5


def reference_compact(store):
    """The per-row compaction loop ``compact()`` used to run."""
    members = store.member_ids()
    n = members.size
    degrees = np.zeros(n, dtype=np.int64)
    fetched = store.fetched_mask(members)
    degrees[fetched] = store.degrees_of(members[fetched])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    flat = np.empty(int(indptr[-1]), dtype=np.int64)
    for p in np.flatnonzero(fetched):
        flat[indptr[p] : indptr[p + 1]] = store.row(int(members[p]))
    indices = np.searchsorted(members, flat)
    return indptr, indices, members, fetched


def assert_compacts_like_reference(store):
    slab = store.compact()
    indptr, indices, members, fetched = reference_compact(store)
    assert slab.csr.indptr.dtype == slab.csr.indices.dtype == np.int64
    np.testing.assert_array_equal(slab.csr.indptr, indptr)
    np.testing.assert_array_equal(slab.csr.indices, indices)
    np.testing.assert_array_equal(slab.csr.node_ids, members)
    np.testing.assert_array_equal(slab.fetched, fetched)


def bfs_store(rows=60, *, offset=0):
    graph = barabasi_albert_graph(300, 3, seed=4).relabeled()
    store = DiscoveredGraph()
    for node in sorted(graph.nodes())[:rows]:
        store.record(node + offset, tuple(v + offset for v in graph.neighbors(node)))
    return store


def re_recorded_store():
    store = DiscoveredGraph()
    store.record(5, (1, 2, 3))
    store.record(1, (5, 9))
    store.record(5, (1, 7))  # new contents: the first segment goes unused
    store.record(9, (1,))
    return store


def marked_store():
    store = bfs_store(20)
    store.mark(10_000, (10_001, 10_002))
    store.mark(3)  # already a member: no new id
    return store


def sparse_store():
    store = DiscoveredGraph()
    store.record(BIG, (3, BIG + 1))
    store.record(3, (BIG,))
    store.record(BIG + 1, (BIG, 4))
    store.mark(BIG + 9)
    return store


STORES = {
    "bfs": bfs_store,
    "re-recorded": re_recorded_store,
    "marked-only": marked_store,
    "sparse-ids": sparse_store,
    "sparse-bfs": lambda: bfs_store(40, offset=BIG),
    "empty": DiscoveredGraph,
}


@pytest.mark.parametrize("name", sorted(STORES))
def test_compact_equals_the_per_row_loop(name):
    assert_compacts_like_reference(STORES[name]())


def test_re_recorded_row_compacts_to_its_latest_contents():
    slab = re_recorded_store().compact()
    assert slab.csr.neighbors(5) == (1, 7)
    assert slab.csr.degree(2) == 0  # still a member, never fetched


def test_empty_store_compacts_to_an_empty_slab():
    slab = DiscoveredGraph().compact()
    assert slab.csr.number_of_nodes() == 0
    assert slab.fetched.size == 0
    assert slab.fetched_csr().number_of_nodes() == 0


def snapshot_round_trip(store):
    restored = DiscoveredGraph()
    restored.restore_rows(store.snapshot_rows())
    return restored


def assert_indistinguishable(restored, store):
    snapshot = store.snapshot_rows()
    again = restored.snapshot_rows()
    for key in ("ids", "lengths", "flat", "marked"):
        np.testing.assert_array_equal(again[key], snapshot[key])
    assert list(restored._rows) == list(store._rows)  # first-record order
    assert restored._slot_by_id == store._slot_by_id
    ids = store.fetched_ids()
    np.testing.assert_array_equal(restored.fetched_ids(), ids)
    np.testing.assert_array_equal(restored.member_ids(), store.member_ids())
    np.testing.assert_array_equal(restored.degrees_of(ids), store.degrees_of(ids))
    for mine, theirs in zip(restored.rows_flat(ids), store.rows_flat(ids)):
        np.testing.assert_array_equal(mine, theirs)
    assert restored.fetched_count == store.fetched_count
    assert restored.membership_size == store.membership_size
    mine, theirs = restored.compact(), store.compact()
    np.testing.assert_array_equal(mine.csr.indptr, theirs.csr.indptr)
    np.testing.assert_array_equal(mine.csr.indices, theirs.csr.indices)
    np.testing.assert_array_equal(mine.csr.node_ids, theirs.csr.node_ids)
    np.testing.assert_array_equal(mine.fetched, theirs.fetched)


@pytest.mark.parametrize("name", sorted(STORES))
def test_snapshot_restores_an_indistinguishable_store(name):
    store = STORES[name]()
    assert_indistinguishable(snapshot_round_trip(store), store)


def test_snapshot_is_int64_arrays_in_first_record_order():
    snapshot = re_recorded_store().snapshot_rows()
    assert set(snapshot) == {"ids", "lengths", "flat", "marked"}
    assert all(array.dtype == np.int64 for array in snapshot.values())
    assert snapshot["ids"].tolist() == [5, 1, 9]
    assert snapshot["lengths"].tolist() == [2, 2, 1]
    assert snapshot["flat"].tolist() == [1, 7, 5, 9, 1]
    # 2 and 3 were listed once by row 5's first contents, and are now
    # members that no current row lists.
    assert snapshot["marked"].tolist() == [2, 3]


def test_marked_only_members_survive():
    snapshot = marked_store().snapshot_rows()
    assert snapshot["marked"].tolist() == [10_000, 10_001, 10_002]


def test_restore_refuses_a_non_empty_store():
    store = bfs_store(5)
    with pytest.raises(CheckpointError, match="non-empty"):
        store.restore_rows(bfs_store(5).snapshot_rows())


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda s: {**s, "lengths": s["lengths"][:-1]},
        lambda s: {**s, "flat": s["flat"][:-1]},
        lambda s: {**s, "lengths": -s["lengths"]},
    ],
    ids=["short-lengths", "short-flat", "negative-lengths"],
)
def test_restore_refuses_an_inconsistent_snapshot(corrupt):
    snapshot = corrupt(bfs_store(5).snapshot_rows())
    with pytest.raises(CheckpointError, match="inconsistent"):
        DiscoveredGraph().restore_rows(snapshot)


node_ids = st.one_of(
    st.integers(0, 40), st.integers(_DENSE_ID_LIMIT - 2, _DENSE_ID_LIMIT + 2)
)
operations = st.lists(
    st.tuples(
        st.sampled_from(["record", "mark"]),
        node_ids,
        st.lists(node_ids, max_size=6, unique=True),
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(operations)
def test_random_record_mark_sequences(ops):
    store = DiscoveredGraph()
    for kind, node, row in ops:
        if kind == "record":
            store.record(node, tuple(sorted(row)))
        else:
            store.mark(node, row)
        assert_compacts_like_reference(store)
    assert_indistinguishable(snapshot_round_trip(store), store)
