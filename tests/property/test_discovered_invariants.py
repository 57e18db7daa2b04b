"""DiscoveredGraph invariants under randomized interleaved operations.

The async pipeline turns the discovered graph into shared mutable state:
a crawler appends while a publisher compacts.  These properties pin what
must survive any interleaving of appends, membership marks, lookups, and
compactions — plus a genuinely threaded stress test of the locking
discipline the module documents.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.discovered import DiscoveredGraph

#: Node universe kept small so interleavings collide on purpose.
NODES = st.integers(min_value=0, max_value=40)


@st.composite
def operation_sequences(draw):
    """Random interleavings of record / mark / lookup / compact."""
    count = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(count):
        kind = draw(st.sampled_from(["record", "mark", "lookup", "compact"]))
        if kind == "record":
            node = draw(NODES)
            row = tuple(sorted(set(draw(st.lists(NODES, min_size=0, max_size=8)))))
            ops.append(("record", node, row))
        elif kind == "mark":
            node = draw(NODES)
            extras = tuple(draw(st.lists(NODES, min_size=0, max_size=4)))
            ops.append(("mark", node, extras))
        elif kind == "lookup":
            probes = tuple(draw(st.lists(NODES, min_size=1, max_size=10)))
            ops.append(("lookup", probes))
        else:
            ops.append(("compact",))
    return ops


def replay(ops):
    """Run *ops*, checking the running invariants; return (store, model)."""
    store = DiscoveredGraph(name="prop")
    rows = {}
    members = set()
    for op in ops:
        if op[0] == "record":
            _, node, row = op
            store.record(node, row)
            rows[node] = row
            members.add(node)
            members.update(row)
        elif op[0] == "mark":
            _, node, extras = op
            store.mark(node, extras)
            members.add(node)
            members.update(extras)
        elif op[0] == "lookup":
            probes = np.asarray(op[1], dtype=np.int64)
            mask = store.fetched_mask(probes)
            degrees, known = store.try_degrees(probes)
            assert np.array_equal(mask, known)
            for probe, is_fetched, degree in zip(
                probes.tolist(), mask.tolist(), degrees.tolist()
            ):
                assert is_fetched == (probe in rows)
                if is_fetched:
                    assert degree == len(rows[probe])
        else:
            slab = store.compact()
            assert np.array_equal(slab.csr.node_ids, np.sort(slab.csr.node_ids))
        # Running invariants after every operation:
        assert store.membership_size == len(members)
        assert store.fetched_count == len(rows)
    return store, rows, members


@given(operation_sequences())
@settings(max_examples=60, deadline=None)
def test_membership_is_monotone_and_degrees_stable(ops):
    store = DiscoveredGraph(name="prop")
    seen_members = 0
    recorded = {}
    for op in ops:
        if op[0] == "record":
            _, node, row = op
            store.record(node, row)
            recorded[node] = row
        elif op[0] == "mark":
            store.mark(op[1], op[2])
        elif op[0] == "compact":
            store.compact()
        # Membership never shrinks, whatever the interleaving.
        assert store.membership_size >= seen_members
        seen_members = store.membership_size
        # Once fetched, a row answers with its latest recorded degree.
        if recorded:
            ids = np.fromiter(recorded, dtype=np.int64)
            degrees = store.degrees_of(ids)
            expected = np.fromiter((len(recorded[int(n)]) for n in ids), np.int64)
            assert np.array_equal(degrees, expected)


@given(operation_sequences())
@settings(max_examples=60, deadline=None)
def test_interleaved_lookups_always_consistent(ops):
    replay(ops)


@given(operation_sequences())
@settings(max_examples=60, deadline=None)
def test_compact_round_trips_against_from_scratch_build(ops):
    store, rows, members = replay(ops)
    slab = store.compact()
    # A from-scratch store fed only the final rows (then marked up to the
    # same membership) must compact to the identical slab.
    scratch = DiscoveredGraph(name="scratch")
    for node, row in rows.items():
        scratch.record(node, row)
    for node in members:
        scratch.mark(node)
    twin = scratch.compact()
    assert np.array_equal(slab.csr.node_ids, twin.csr.node_ids)
    assert np.array_equal(slab.csr.indptr, twin.csr.indptr)
    assert np.array_equal(slab.csr.indices, twin.csr.indices)
    assert np.array_equal(slab.fetched, twin.fetched)
    # And the slab itself reflects the model exactly.
    assert slab.csr.number_of_nodes() == len(members)
    assert set(slab.fetched_ids.tolist()) == set(rows)
    for node, row in rows.items():
        assert slab.csr.neighbors(node) == row


@given(operation_sequences())
@settings(max_examples=40, deadline=None)
def test_fetched_csr_is_the_fetched_induced_subgraph(ops):
    store, rows, members = replay(ops)
    induced = store.compact().fetched_csr()
    assert set(induced.node_ids.tolist()) == set(rows)
    for node, row in rows.items():
        expected = tuple(v for v in row if v in rows)
        assert induced.neighbors(node) == expected


def test_locking_discipline_under_threaded_producer_consumer():
    """Satellite pin: appends are safe under a concurrently compacting
    publisher — by locking, not by CPython luck.

    Four producer threads hammer disjoint row ranges while a consumer
    thread compacts and reads every array form in a tight loop, with the
    interpreter switching threads as often as it can.  Every intermediate
    compaction must be internally consistent (CSRGraph validates its own
    arrays on construction), and every read must answer each fetched row
    with its recorded length: a row lost between the queue of recorded
    rows and the row pool would break that.  The final state must equal
    a serial build.
    """
    store = DiscoveredGraph(name="threaded")
    universe = 400
    producers = 4
    per_producer = universe // producers
    errors = []
    done = threading.Event()
    rows = [
        tuple(sorted({(node * 7 + k) % universe for k in range(1, 6)}))
        for node in range(universe)
    ]
    lengths = np.array([len(row) for row in rows], dtype=np.int64)

    def produce(base):
        try:
            for node in range(base, base + per_producer):
                store.record(node, rows[node])
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    def assert_recorded_lengths(ids):
        assert np.array_equal(store.degrees_of(ids), lengths[ids])

    def consume():
        try:
            while not done.is_set():
                # Rows the scalar interface shows must be in the array form.
                shown = [node for node in range(universe) if store.has_row(node)]
                assert_recorded_lengths(np.array(shown, dtype=np.int64))
                slab = store.compact()
                assert_recorded_lengths(slab.fetched_ids)
                ids = store.fetched_ids()
                assert_recorded_lengths(ids)
                flat, row_lengths = store.rows_flat(ids)
                assert np.array_equal(row_lengths, lengths[ids])
                expected = [v for node in ids.tolist() for v in rows[node]]
                assert flat.tolist() == expected
                snapshot = store.snapshot_rows()
                assert_recorded_lengths(snapshot["ids"])
                assert np.array_equal(snapshot["lengths"], lengths[snapshot["ids"]])
                members = store.member_ids()
                assert np.isin(ids, members).all()
                assert store.membership_size >= members.size
                store.fetched_mask(np.arange(universe))
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=produce, args=(i * per_producer,))
        for i in range(producers)
    ]
    consumer = threading.Thread(target=consume)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumer.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        done.set()
        consumer.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in [*threads, consumer])
    assert not errors, errors
    assert store.fetched_count == universe
    assert_recorded_lengths(np.arange(universe))
    # Final compaction equals a serial from-scratch build.
    serial = DiscoveredGraph(name="serial")
    for node in range(universe):
        serial.record(node, rows[node])
    final, twin = store.compact(), serial.compact()
    assert np.array_equal(final.csr.node_ids, twin.csr.node_ids)
    assert np.array_equal(final.csr.indptr, twin.csr.indptr)
    assert np.array_equal(final.csr.indices, twin.csr.indices)
    assert np.array_equal(final.fetched, twin.fetched)
