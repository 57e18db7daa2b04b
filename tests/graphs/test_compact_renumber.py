"""``DiscoveredGraph.compact`` renumbers cached edges by rank table.

When every member id lies in the slot table's dense range, compaction
scatters member positions into a table indexed by id and gathers the
edge array through it; any id outside that range (negative, or at least
``2^22``) sends it back to one ``numpy.searchsorted``.  The binary
search is kept below as the reference: both must give the same CSR,
array for array, on every store shape that could separate them.
"""

import numpy as np
import pytest

from repro.graphs.discovered import _DENSE_ID_LIMIT, DiscoveredGraph
from repro.graphs.generators import barabasi_albert_graph

BIG = _DENSE_ID_LIMIT + 3


def searchsorted_compact(store):
    """The renumbering ``compact()`` ran before the rank table."""
    members = store.member_ids()
    fetched = store.fetched_mask(members)
    flat, lengths = store.rows_flat(members[fetched])
    degrees = np.zeros(members.size, dtype=np.int64)
    degrees[fetched] = lengths
    indptr = np.zeros(members.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return indptr, np.searchsorted(members, flat), members, fetched


def dense_store():
    graph = barabasi_albert_graph(400, 3, seed=11).relabeled()
    store = DiscoveredGraph()
    for node in sorted(graph.nodes())[:150]:
        store.record(node, tuple(graph.neighbors(node)))
    return store


def sparse_listed_store():
    """Dense row owners listing one id past the table and one negative id:
    the slot table stays dense, but the members do not."""
    store = DiscoveredGraph()
    store.record(0, (-4, 2, BIG))
    store.record(2, (0, 7))
    store.record(7, (2,))
    return store


def sparse_owner_store():
    store = DiscoveredGraph()
    store.record(-4, (0, BIG))
    store.record(BIG, (-4, 0))
    store.record(0, (-4, BIG))
    return store


def mark_only_store():
    store = dense_store()
    store.mark(9_000, (9_001, 3))
    store.mark(12)
    return store


def mark_only_sparse_store():
    store = dense_store()
    store.mark(BIG)  # never fetched, never listed
    return store


def re_recorded_store():
    store = DiscoveredGraph()
    store.record(5, (1, 2, 3))
    store.record(1, (5, 9))
    store.record(5, (1, 7))
    store.record(9, (1, 5))
    store.record(1, (9,))
    return store


def edge_of_table_store():
    store = DiscoveredGraph()
    store.record(0, (_DENSE_ID_LIMIT - 1,))
    store.record(_DENSE_ID_LIMIT - 1, (0,))
    return store


STORES = {
    "dense": dense_store,
    "sparse-listed": sparse_listed_store,
    "sparse-owner": sparse_owner_store,
    "mark-only": mark_only_store,
    "mark-only-sparse": mark_only_sparse_store,
    "re-recorded": re_recorded_store,
    "edge-of-table": edge_of_table_store,
    "empty": DiscoveredGraph,
}


@pytest.mark.parametrize("name", sorted(STORES))
def test_compact_equals_the_searchsorted_reference(name):
    store = STORES[name]()
    slab = store.compact()
    indptr, indices, members, fetched = searchsorted_compact(store)
    assert slab.csr.indices.dtype == np.int64
    np.testing.assert_array_equal(slab.csr.indptr, indptr)
    np.testing.assert_array_equal(slab.csr.indices, indices)
    np.testing.assert_array_equal(slab.csr.node_ids, members)
    np.testing.assert_array_equal(slab.fetched, fetched)


def test_sparse_members_resolve_to_their_own_rows():
    slab = sparse_listed_store().compact()
    assert slab.csr.neighbors(0) == (-4, 2, BIG)
    assert slab.csr.degree(-4) == slab.csr.degree(BIG) == 0
    assert slab.fetched_csr().neighbors(2) == (0, 7)


def test_compaction_grows_with_the_store():
    store = re_recorded_store()
    first = store.compact()
    store.record(40, (1,))
    second = store.compact()
    assert first.csr.number_of_nodes() + 1 == second.csr.number_of_nodes()
    np.testing.assert_array_equal(second.csr.indices, searchsorted_compact(store)[1])


@pytest.mark.parametrize(
    "name, searches",
    [("dense", 0), ("re-recorded", 0), ("sparse-listed", 1), ("sparse-owner", 1)],
)
def test_only_a_sparse_store_binary_searches(monkeypatch, name, searches):
    store = STORES[name]()
    store.member_ids()  # refresh the sorted arrays before counting
    calls = []
    searchsorted = np.searchsorted

    def counted(*args, **kwargs):
        calls.append(args)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    store.compact()
    renumbered = [args for args in calls if args[0] is store.member_ids()]
    assert len(renumbered) == searches
