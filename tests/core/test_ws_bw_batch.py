"""Batched crawl-aware WS-BW: K=1 scalar parity, query-cost parity, law.

The contract pinned here is the charged-API twin of the forward batch
engine's: at ``K = 1``, :func:`repro.core.weighted.ws_bw_batch` consumes
the RNG stream exactly as the scalar estimator does and reproduces its
realization bit for bit — same importance weights, same unique-node query
cost, same raw calls, same backward-step count, same generator state
afterwards.  At ``K > 1`` each walk keeps the scalar law (checked against
matrix-power ground truth), and estimating every node of a graph charges
exactly ``|V|`` unique queries on both engines.
"""

import numpy as np
import pytest

from repro.core.crawl import InitialCrawl
from repro.core.weighted import (
    BackwardStats,
    ForwardHistory,
    smoothing_constant,
    smoothing_constants,
    weighted_backward_estimate,
    ws_bw_batch,
)
from repro.errors import ConfigurationError, GraphError
from repro.graphs.generators import barabasi_albert_graph
from repro.markov.matrix import TransitionMatrix
from repro.osn.api import SocialNetworkAPI
from repro.osn.restrictions import FixedRandomKRestriction, TruncatedKRestriction
from repro.rng import ensure_rng
from repro.walks.transitions import (
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)
from repro.walks.walker import run_walk

T = 7


def designs_for(graph):
    return [
        SimpleRandomWalk(),
        MetropolisHastingsWalk(),
        LazyWalk(SimpleRandomWalk(), 0.3),
        LazyWalk(MetropolisHastingsWalk(), 0.4),
        MaxDegreeWalk(graph.max_degree()),
    ]


def build_history(graph, design, walks=10, seed=99):
    history = ForwardHistory(0, T)
    rng = ensure_rng(seed)
    for _ in range(walks):
        history.record(run_walk(graph, design, 0, T, seed=rng))
    return history


def scalar_vs_batch(graph, design, node, history, crawl_hops, seed, restriction=None):
    """Run both engines on fresh APIs; return their full observable state."""
    outcomes = []
    for runner in ("scalar", "batch"):
        api = SocialNetworkAPI(graph, restriction=restriction)
        crawl = (
            InitialCrawl(api, design, 0, crawl_hops) if crawl_hops else None
        )
        rng = ensure_rng(seed)
        stats = BackwardStats()
        if runner == "scalar":
            value = weighted_backward_estimate(
                api,
                design,
                node,
                0,
                T,
                history=history,
                epsilon=0.2,
                seed=rng,
                crawl=crawl,
                stats=stats,
            )
        else:
            value = float(
                ws_bw_batch(
                    api,
                    design,
                    np.array([node]),
                    0,
                    T,
                    history=history,
                    epsilon=0.2,
                    seed=rng,
                    crawl=crawl,
                    stats=stats,
                )[0]
            )
        outcomes.append(
            (
                value,
                api.query_cost,
                api.raw_calls,
                stats.steps,
                stats.walks,
                rng.bit_generator.state,
            )
        )
    return outcomes


@pytest.mark.parametrize("graph_name", ["small_ba", "small_cycle", "star5"])
@pytest.mark.parametrize("use_history", [False, True], ids=["uniform", "weighted"])
@pytest.mark.parametrize("crawl_hops", [0, 2], ids=["nocrawl", "crawl2"])
def test_k1_parity_across_designs(request, graph_name, use_history, crawl_hops):
    graph = request.getfixturevalue(graph_name)
    n = graph.number_of_nodes()
    for design in designs_for(graph):
        history = build_history(graph, design) if use_history else None
        for seed in range(6):
            node = int(np.random.default_rng(seed).integers(0, n))
            scalar, batch = scalar_vs_batch(
                graph, design, node, history, crawl_hops, seed
            )
            assert scalar == batch, (design.name, seed, node)


def test_k1_parity_under_call_stable_restrictions(small_ba):
    for make in (
        lambda: FixedRandomKRestriction(3, seed=5),
        lambda: TruncatedKRestriction(3),
    ):
        for design in (SimpleRandomWalk(), MetropolisHastingsWalk()):
            for seed in range(6):
                node = int(np.random.default_rng(seed).integers(0, 30))
                api_s = SocialNetworkAPI(small_ba, restriction=make())
                api_b = SocialNetworkAPI(small_ba, restriction=make())
                r1, r2 = ensure_rng(seed), ensure_rng(seed)
                value_s = weighted_backward_estimate(
                    api_s, design, node, 0, T, history=None, seed=r1
                )
                value_b = float(
                    ws_bw_batch(api_b, design, np.array([node]), 0, T, seed=r2)[0]
                )
                assert value_s == value_b
                assert api_s.query_cost == api_b.query_cost
                assert r1.bit_generator.state == r2.bit_generator.state


@pytest.mark.parametrize("compiled", [False, True], ids=["graph", "csr"])
@pytest.mark.parametrize("use_history", [False, True], ids=["uniform", "weighted"])
@pytest.mark.parametrize("crawl_hops", [0, 2], ids=["nocrawl", "crawl2"])
def test_free_graph_view_matches_charged_api(
    small_ba, compiled, use_history, crawl_hops
):
    # A free graph walks through an uncharged API over itself: the same
    # values, generator state and effort as a charged API over the graph.
    free = small_ba.compile() if compiled else small_ba
    for design in designs_for(small_ba):
        history = build_history(small_ba, design) if use_history else None
        crawl = InitialCrawl(small_ba, design, 0, crawl_hops) if crawl_hops else None
        for seed in range(4):
            nodes = np.random.default_rng(seed).integers(0, 30, size=5)
            outcomes = []
            for view in (free, SocialNetworkAPI(small_ba)):
                rng, stats = ensure_rng(seed), BackwardStats()
                values = ws_bw_batch(
                    view,
                    design,
                    nodes,
                    0,
                    T,
                    history=history,
                    epsilon=0.2,
                    seed=rng,
                    crawl=crawl,
                    stats=stats,
                )
                outcomes.append((values.tobytes(), rng.bit_generator.state, stats))
            assert outcomes[0] == outcomes[1], (design.name, seed)


def test_full_graph_estimation_has_identical_query_cost(small_ba):
    # Estimating p_t for every node fetches every node on both engines:
    # the query cost is |V| exactly, seed-independent, batch or scalar.
    design = MetropolisHastingsWalk()
    history = build_history(small_ba, design)
    targets = np.asarray(small_ba.nodes())
    api_s = SocialNetworkAPI(small_ba)
    rng = ensure_rng(3)
    for node in targets.tolist():
        weighted_backward_estimate(
            api_s, design, int(node), 0, T, history=history, seed=rng
        )
    api_b = SocialNetworkAPI(small_ba)
    values = ws_bw_batch(
        api_b, design, targets, 0, T, history=history, seed=ensure_rng(3)
    )
    assert values.shape == targets.shape
    assert api_s.query_cost == api_b.query_cost == small_ba.number_of_nodes()


@pytest.mark.parametrize(
    "design",
    [SimpleRandomWalk(), MetropolisHastingsWalk()],
    ids=lambda d: d.name,
)
def test_batch_realizations_unbiased(design, small_ba):
    t = 5
    matrix = TransitionMatrix(small_ba, design)
    truth = matrix.step_distribution(0, t)
    history = ForwardHistory(0, t)
    rng = ensure_rng(5)
    for _ in range(40):
        history.record(run_walk(small_ba, design, 0, t, seed=rng))
    node, repeats = 7, 3000
    values = ws_bw_batch(
        small_ba,
        design,
        np.full(repeats, node),
        0,
        t,
        history=history,
        epsilon=0.2,
        seed=ensure_rng(11),
    )
    assert np.all(values >= 0.0)
    tolerance = 5 * values.std() / np.sqrt(repeats) + 1e-12
    assert abs(values.mean() - truth[node]) < tolerance


def test_stats_accumulate_k_walks(small_ba):
    stats = BackwardStats()
    ws_bw_batch(
        small_ba, SimpleRandomWalk(), np.array([1, 2, 3]), 0, T, stats=stats, seed=0
    )
    assert stats.walks == 3
    assert stats.steps > 0


def test_negative_node_ids_keep_parity():
    # Negative ids must not wrap around the dense history table.
    from repro.graphs.graph import Graph

    graph = Graph(name="neg")
    graph.add_edges_from([(-1, 0), (0, 1), (1, 2), (2, 0)])
    design = SimpleRandomWalk()
    history = ForwardHistory(0, 3)
    rng = ensure_rng(4)
    for _ in range(50):
        history.record(run_walk(graph, design, 0, 3, seed=rng))
    for seed in range(40):
        r1, r2 = ensure_rng(seed), ensure_rng(seed)
        scalar = weighted_backward_estimate(
            graph, design, 0, 0, 3, history=history, seed=r1
        )
        batch = float(
            ws_bw_batch(graph, design, np.array([0]), 0, 3, history=history, seed=r2)[
                0
            ]
        )
        assert scalar == batch, seed


def test_unsupported_design_rejected_before_charging(small_ba):
    from repro.walks.transitions import BidirectionalWalk

    api = SocialNetworkAPI(small_ba)
    with pytest.raises(ConfigurationError):
        ws_bw_batch(api, BidirectionalWalk(), np.array([0, 1]), 0, T, seed=0)
    assert api.query_cost == 0  # rejected before any budget was spent


def test_type1_restriction_rejected(small_ba):
    # Fresh-subset responses cannot be cached, so no batched walk can
    # reproduce the scalar estimator's query pattern; reject loudly
    # instead of silently diverging.
    from repro.osn.restrictions import RandomKRestriction

    api = SocialNetworkAPI(small_ba, restriction=RandomKRestriction(2, seed=1))
    with pytest.raises(ConfigurationError):
        ws_bw_batch(api, SimpleRandomWalk(), np.array([0]), 0, T, seed=0)


def test_validation_errors(small_ba):
    with pytest.raises(ValueError):
        ws_bw_batch(small_ba, SimpleRandomWalk(), np.array([0]), 0, -1)
    with pytest.raises(ConfigurationError):
        ws_bw_batch(small_ba, SimpleRandomWalk(), np.array([0]), 0, T, epsilon=0.0)
    with pytest.raises(ConfigurationError):
        ws_bw_batch(small_ba, SimpleRandomWalk(), np.zeros((2, 2), dtype=int), 0, T)


def test_stuck_walk_raises(path4):
    from repro.graphs.graph import Graph

    graph = Graph(name="lonely")
    graph.add_node(0)
    graph.add_edge(1, 2)
    with pytest.raises(GraphError):
        ws_bw_batch(graph, SimpleRandomWalk(), np.array([0]), 1, 2, seed=0)


def test_t_zero_is_indicator(small_ba):
    values = ws_bw_batch(small_ba, SimpleRandomWalk(), np.array([0, 3, 0]), 0, 0)
    assert values.tolist() == [1.0, 0.0, 1.0]


# ----------------------------------------------------------------------
# Shared building blocks
# ----------------------------------------------------------------------
def test_smoothing_constants_matches_scalar():
    totals = np.array([0, 1, 7, 400], dtype=np.int64)
    sizes = np.array([4, 4, 9, 2], dtype=np.int64)
    got = smoothing_constants(totals, sizes, 0.2)
    expected = [smoothing_constant(int(t), int(k), 0.2) for t, k in zip(totals, sizes)]
    assert got.tolist() == expected


def test_history_counts_arrays_and_dense(small_ba):
    design = SimpleRandomWalk()
    history = build_history(small_ba, design, walks=12)
    for step in range(T + 1):
        ids, counts = history.counts_arrays(step)
        table = history.counts_at(step)
        assert dict(zip(ids.tolist(), counts.tolist())) == table
        dense = history.counts_dense(step)
        assert dense is not None
        for node, count in table.items():
            assert dense[node] == count
        assert dense.sum() == sum(table.values())
    empty_ids, empty_counts = history.counts_arrays(T + 5)
    assert empty_ids.size == 0 and empty_counts.size == 0
    assert history.counts_dense(-1) is None


def test_history_arrays_invalidate_on_record(small_ba):
    design = SimpleRandomWalk()
    history = build_history(small_ba, design, walks=2)
    before = history.counts_arrays(0)[1].sum()
    history.record(run_walk(small_ba, design, 0, T, seed=5))
    assert history.counts_arrays(0)[1].sum() == before + 1


def test_crawl_probabilities_batch(small_ba):
    design = SimpleRandomWalk()
    crawl = InitialCrawl(SocialNetworkAPI(small_ba), design, 0, 2)
    nodes = np.asarray(small_ba.nodes())
    for s in range(3):
        got = crawl.probabilities_batch(nodes, s)
        expected = [crawl.probability(int(n), s) for n in nodes]
        assert got.tolist() == expected
    with pytest.raises(ConfigurationError):
        crawl.probabilities_batch(nodes, 3)


def test_crawl_batched_bfs_charges_like_scalar(small_ba):
    # The layered batch BFS (through neighbors_batch) pays for exactly the
    # nodes the node-at-a-time BFS pays for.
    api_graph = InitialCrawl(small_ba, SimpleRandomWalk(), 0, 2)
    api_charged = SocialNetworkAPI(small_ba)
    crawl = InitialCrawl(api_charged, SimpleRandomWalk(), 0, 2)
    assert crawl.crawled_nodes == api_graph.crawled_nodes
    assert api_charged.query_cost == len(crawl.crawled_nodes)


@pytest.mark.parametrize("larger", [False, True], ids=["ba30", "ba300"])
def test_k1_parity_on_larger_graph(larger, small_ba):
    graph = (
        barabasi_albert_graph(300, 4, seed=13).relabeled() if larger else small_ba
    )
    design = LazyWalk(MetropolisHastingsWalk(), 0.25)
    history = build_history(graph, design, walks=20)
    for seed in range(4):
        node = int(np.random.default_rng(seed).integers(0, graph.number_of_nodes()))
        scalar, batch = scalar_vs_batch(graph, design, node, history, 2, seed)
        assert scalar == batch
