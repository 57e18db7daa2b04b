"""ForwardHistory keeps its dense per-step count vectors current in place.

A step's dense vector is built once from the step's counts, then every
``record`` updates it: the entry of a visited id grows by one, and the
vector grows when an id lands past its end.  After any sequence of
records it must agree with a vector rebuilt from scratch wherever the two
overlap and be zero past the largest visited id.  A step that has visited
an id outside the dense range (negative, or at least 2^20) answers None
and leaves the lookup to ``counts_arrays``, as a rebuild would.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weighted import ForwardHistory, ws_bw_batch
from repro.graphs.generators import barabasi_albert_graph
from repro.rng import ensure_rng
from repro.walks.transitions import SimpleRandomWalk
from repro.walks.walker import WalkResult, run_walk

LIMIT = 1 << 20
IN_RANGE = st.one_of(st.integers(0, 40), st.integers(0, 5000), st.just(LIMIT - 1))
OUT_OF_RANGE = st.sampled_from([-1, -7, LIMIT, LIMIT + 5, 1 << 40])


def rebuilt(history, step):
    """The step's dense vector built from scratch; None where none exists."""
    counts = history.counts_at(step)
    if not counts or min(counts) < 0 or max(counts) >= LIMIT:
        return None
    dense = np.zeros(max(counts) + 1)
    for node, count in counts.items():
        dense[node] = count
    return dense


def assert_current(history, step):
    expected = rebuilt(history, step)
    dense = history.counts_dense(step)
    ids, counts = history.counts_arrays(step)
    assert dict(zip(ids.tolist(), counts.tolist())) == history.counts_at(step)
    if expected is None:
        assert dense is None
        return
    assert dense.dtype == np.float64 and dense.size >= expected.size
    assert np.array_equal(dense[: expected.size], expected)
    assert not dense[expected.size :].any()


@st.composite
def records(draw):
    """A start, a walk length, walks from that start, and when to read."""
    start = draw(st.one_of(IN_RANGE, OUT_OF_RANGE))
    length = draw(st.integers(0, 4))
    steps = st.lists(IN_RANGE, min_size=length, max_size=length)
    walks = draw(st.lists(steps, min_size=1, max_size=10))
    if length:
        # Now and then one visit leaves the dense range.
        for _ in range(draw(st.integers(0, 2))):
            walk = draw(st.integers(0, len(walks) - 1))
            walks[walk][draw(st.integers(0, length - 1))] = draw(OUT_OF_RANGE)
    reads = draw(st.lists(st.booleans(), min_size=len(walks), max_size=len(walks)))
    return start, length, walks, reads


@settings(max_examples=120, deadline=None)
@given(case=records(), every=st.booleans())
def test_dense_counts_match_a_rebuild(case, every):
    start, length, walks, reads = case
    history = ForwardHistory(start, length)
    for steps, read in zip(walks, reads):
        history.record(WalkResult((start, *steps)))
        if every or read:
            for step in range(length + 1):
                assert_current(history, step)
    for step in range(length + 1):
        assert_current(history, step)


def test_record_updates_the_vector_in_place():
    history = ForwardHistory(0, 2)
    history.record(WalkResult((0, 5, 9)))
    vectors = [history.counts_dense(step) for step in range(3)]
    history.record(WalkResult((0, 2, 7)))
    assert all(history.counts_dense(s) is vectors[s] for s in range(3))
    assert vectors[1][:6].tolist() == [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]
    history.record(WalkResult((0, 300, 9)))
    grown = history.counts_dense(1)
    assert grown is not vectors[1] and grown[[2, 5, 300]].tolist() == [1.0, 1.0, 1.0]
    assert history.counts_dense(2) is vectors[2] and vectors[2][9] == 2.0


def test_out_of_range_visit_falls_back_to_sorted_arrays():
    history = ForwardHistory(0, 2)
    history.record(WalkResult((0, 4, 6)))
    assert history.counts_dense(1) is not None
    history.record(WalkResult((0, -3, LIMIT)))
    assert history.counts_dense(1) is None and history.counts_dense(2) is None
    ids, counts = history.counts_arrays(1)
    assert ids.tolist() == [-3, 4] and counts.tolist() == [1, 1]
    history.record(WalkResult((0, 4, 6)))
    assert history.counts_dense(1) is None
    assert history.counts_arrays(1)[1].tolist() == [1, 2]
    assert history.counts_dense(0).tolist() == [3.0]


def test_backward_walks_read_the_same_counts():
    # Reading the history between records (in-place updates) and only
    # after all of them (one build per step) gives identical estimates.
    graph = barabasi_albert_graph(60, 3, seed=3).relabeled()
    design = SimpleRandomWalk()
    walks = [run_walk(graph, design, 0, 5, seed=ensure_rng(i)) for i in range(12)]
    live, fresh = ForwardHistory(0, 5), ForwardHistory(0, 5)
    for walk in walks:
        live.record(walk)
        for step in range(6):
            live.counts_dense(step)
    for walk in walks:
        fresh.record(walk)
    nodes = np.asarray([walk.end for walk in walks])
    estimates = [
        ws_bw_batch(graph, design, nodes, 0, 5, history=history, seed=11)
        for history in (live, fresh)
    ]
    assert estimates[0].tobytes() == estimates[1].tobytes()
