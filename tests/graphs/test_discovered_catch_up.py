"""DiscoveredGraph's catch-up pass against the per-row appends it replaced.

``record`` only queues a row; the first array or membership read writes
every queued row into the row pool, the slot arrays, the dense id → slot
table and the member set in one vectorized pass.  The per-row append
``record`` used to run is kept below as the reference: after any mix of
records (re-records with new contents, ids past the dense table,
negative ids), marks and reads, the store's arrays must hold exactly
what appending row by row left, pool offsets included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.discovered import _DENSE_ID_LIMIT, DiscoveredGraph

#: A small id universe, so re-records collide, plus ids that leave the
#: dense table's range.
IDS = st.one_of(
    st.integers(min_value=0, max_value=30),
    st.sampled_from([-3, _DENSE_ID_LIMIT, _DENSE_ID_LIMIT + 7]),
)


class ReferenceStore:
    """The arrays ``record`` appended to row by row, as plain Python."""

    def __init__(self):
        self.rows = {}
        self.pool = []
        self.starts = {}
        self.lengths = {}
        self.slot_by_id = {}
        self.table = {}
        self.dense = True
        self.members = set()

    def record(self, node, row):
        if self.rows.get(node) == row:
            return
        self.rows[node] = row
        slot = self.slot_by_id.get(node)
        if slot is None:
            slot = self.slot_by_id[node] = len(self.slot_by_id)
            if self.dense:
                if 0 <= node < _DENSE_ID_LIMIT:
                    self.table[node] = slot
                else:
                    self.dense = False
        self.starts[slot] = len(self.pool)
        self.lengths[slot] = len(row)
        self.pool.extend(row)
        self.members.add(node)
        self.members.update(row)

    def mark(self, node, extras):
        self.members.add(node)
        self.members.update(extras)


def assert_arrays_like_reference(store, reference):
    count = len(reference.slot_by_id)
    assert store._slot_by_id == reference.slot_by_id
    assert store._pool[: store._pool_used].tolist() == reference.pool
    assert store._slot_starts[:count].tolist() == [
        reference.starts[slot] for slot in range(count)
    ]
    assert store._slot_lengths[:count].tolist() == [
        reference.lengths[slot] for slot in range(count)
    ]
    assert store._dense == reference.dense
    if reference.dense:
        filled = np.flatnonzero(store._slot_table >= 0)
        assert filled.tolist() == sorted(reference.table)
        assert store._slot_table[filled].tolist() == [
            reference.table[node] for node in sorted(reference.table)
        ]
    assert store._members == reference.members


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(st.sampled_from(["record", "record", "record", "mark", "read"]))
        if kind == "record":
            row = tuple(sorted(set(draw(st.lists(IDS, max_size=6)))))
            ops.append(("record", draw(IDS), row))
        elif kind == "mark":
            ops.append(("mark", draw(IDS), tuple(draw(st.lists(IDS, max_size=3)))))
        else:
            ops.append(("read",))
    return ops


@given(operations())
@settings(max_examples=150, deadline=None)
def test_catch_up_leaves_what_per_row_appends_left(ops):
    store, reference = DiscoveredGraph(), ReferenceStore()
    for op in ops:
        if op[0] == "record":
            store.record(op[1], op[2])
            reference.record(op[1], op[2])
        elif op[0] == "mark":
            store.mark(op[1], op[2])
            reference.mark(op[1], op[2])
            assert_arrays_like_reference(store, reference)
        else:
            store.fetched_mask(np.zeros(0, dtype=np.int64))
            assert_arrays_like_reference(store, reference)
    assert store.membership_size == len(reference.members)
    assert_arrays_like_reference(store, reference)


def test_a_row_recorded_again_keeps_its_slot_and_points_at_its_last_segment():
    store, reference = DiscoveredGraph(), ReferenceStore()
    for node, row in [(5, (1, 2, 3)), (1, (5, 9)), (5, (1, 7)), (9, (1,)), (5, (2,))]:
        store.record(node, row)
        reference.record(node, row)
    assert store.member(7)  # a membership read catches up too
    assert_arrays_like_reference(store, reference)
    assert store._slot_starts[0] == 8  # the third of 5's segments
    assert store.rows_flat([5, 1, 9])[0].tolist() == [2, 5, 9, 1]


def test_reads_before_any_record_and_after_clear_see_nothing_queued():
    store = DiscoveredGraph()
    assert store.membership_size == 0
    store.record(3, (4, 5))
    store.clear()
    assert not store.member(4)
    assert store.fetched_ids().size == 0
    store.record(4, (3,))
    assert store.member(3) and store.membership_size == 2
    assert store.degrees_of([4]).tolist() == [1]
