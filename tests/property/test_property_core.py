"""Property-based tests for WALK-ESTIMATE's core invariants.

The crown jewel: on arbitrary random graphs, the *exact expectation* of the
backward estimators (enumerated over all backward paths, for any proposal)
equals the matrix-power ground truth — unbiasedness as an algebraic
identity, not a Monte-Carlo approximation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crawl import InitialCrawl
from repro.core.unbiased import backward_candidates
from repro.core.weighted import ForwardHistory, smoothing_constant
from repro.graphs.generators import barabasi_albert_graph
from repro.markov.matrix import TransitionMatrix
from repro.osn.api import SocialNetworkAPI
from repro.rng import ensure_rng
from repro.walks.transitions import MetropolisHastingsWalk, SimpleRandomWalk
from repro.walks.walker import run_walk


def exact_ws_bw_expectation(graph, design, node, start, t, history, epsilon, crawl):
    """E[WS-BW] enumerated exactly over every backward path."""
    if crawl is not None and crawl.covers_step(t):
        return crawl.probability(node, t)
    if t == 0:
        return 1.0 if node == start else 0.0
    candidates = backward_candidates(graph, design, node)
    total = 0.0
    for index, predecessor in enumerate(candidates):
        transition = design.transition_probability(graph, predecessor, node)
        if transition == 0.0:
            continue
        # pi(x) * [T(x,u)/pi(x)] * E[recursive] = T(x,u) * E[recursive].
        total += transition * exact_ws_bw_expectation(
            graph, design, predecessor, start, t - 1, history, epsilon, crawl
        )
        del index
    return total


@given(
    st.integers(min_value=5, max_value=14),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.05, max_value=0.9),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_ws_bw_expectation_identity(n, seed, t, epsilon, use_history, use_crawl):
    graph = barabasi_albert_graph(n, 2, seed=seed).relabeled()
    design = SimpleRandomWalk()
    matrix = TransitionMatrix(graph, design)
    truth = matrix.step_distribution(0, t)
    rng = ensure_rng(seed)
    history = None
    if use_history:
        history = ForwardHistory(0, t)
        for _ in range(10):
            history.record(run_walk(graph, design, 0, t, seed=rng))
    crawl = None
    if use_crawl:
        crawl = InitialCrawl(SocialNetworkAPI(graph), design, 0, hops=1)
    for node in graph.nodes():
        expected = exact_ws_bw_expectation(
            graph, design, node, 0, t, history, epsilon, crawl
        )
        assert abs(expected - truth[node]) < 1e-10


@given(
    st.integers(min_value=5, max_value=12),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=15, deadline=None)
def test_ws_bw_expectation_identity_mhrw(n, seed, t):
    graph = barabasi_albert_graph(n, 2, seed=seed).relabeled()
    design = MetropolisHastingsWalk()
    matrix = TransitionMatrix(graph, design)
    truth = matrix.step_distribution(0, t)
    for node in graph.nodes():
        expected = exact_ws_bw_expectation(
            graph, design, node, 0, t, None, 0.2, None
        )
        assert abs(expected - truth[node]) < 1e-10


@given(
    st.integers(min_value=0, max_value=10000),
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=100, deadline=None)
def test_smoothing_constant_bounds(total, k, epsilon):
    c = smoothing_constant(total, k, epsilon)
    assert c >= 1.0
    if total > 0:
        share = c * k / (total + c * k)
        # The uniform share never drops below epsilon (floor included).
        assert share >= epsilon - 1e-9


@given(
    st.integers(min_value=5, max_value=16),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_crawl_table_is_exact_distribution(n, seed, hops):
    graph = barabasi_albert_graph(n, 2, seed=seed).relabeled()
    design = SimpleRandomWalk()
    matrix = TransitionMatrix(graph, design)
    crawl = InitialCrawl(SocialNetworkAPI(graph), design, 0, hops=hops)
    for s in range(hops + 1):
        table = np.array([crawl.probability(v, s) for v in graph.nodes()])
        assert np.all(table >= 0)
        assert np.isclose(table.sum(), 1.0)
        assert np.allclose(table, matrix.step_distribution(0, s))


@given(
    st.integers(min_value=5, max_value=20),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_backward_candidates_cover_all_predecessors(n, seed):
    graph = barabasi_albert_graph(n, 2, seed=seed).relabeled()
    for design in (SimpleRandomWalk(), MetropolisHastingsWalk()):
        matrix = TransitionMatrix(graph, design).matrix
        for node in graph.nodes():
            candidates = set(backward_candidates(graph, design, node))
            predecessors = {
                x for x in graph.nodes() if matrix[x, node] > 0
            }
            assert predecessors <= candidates
