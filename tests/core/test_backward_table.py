"""The batch backward estimator against its pre-table per-depth loop.

:func:`unbiased_estimate_batch` reads each depth level's predecessor and
factor ``|C(u)| · T(x, u)`` from a backward candidate table memoized on
the graph.  The loop below is the estimator as it was before the table:
it re-derives every factor at every step.  Both make the same draws in
the same order and the same elementwise arithmetic, so estimates must be
equal byte for byte and the generator must end in the same state — over
every batchable design, shared and per-walk starts, contiguous and gappy
node ids, and the error paths (stuck walk, over-declared max degree).
"""

import warnings
from typing import Union

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.unbiased import unbiased_estimate_batch
from repro.errors import ConfigurationError, GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.graph import Graph
from repro.rng import BLOCK_DRAW_MIN, RngLike, ensure_rng
from repro.walks.batch import check_max_degree
from repro.walks.transitions import (
    BidirectionalWalk,
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
    TransitionDesign,
)


# ----------------------------------------------------------------------
# Reference: the per-depth loop, verbatim but for names and docstrings
# ----------------------------------------------------------------------
def _reference_transition_probabilities(
    csr: CSRGraph,
    design: TransitionDesign,
    sources: np.ndarray,
    destinations: np.ndarray,
) -> np.ndarray:
    """The pre-table per-step ``T(source, destination)`` pricing."""
    if isinstance(design, SimpleRandomWalk):
        return 1.0 / csr.degrees[sources].astype(np.float64)
    if isinstance(design, MetropolisHastingsWalk):
        ds = csr.degrees[sources].astype(np.float64)
        dd = csr.degrees[destinations].astype(np.float64)
        probabilities = np.minimum(1.0, ds / dd) / ds
        loops = sources == destinations
        if np.any(loops):
            probabilities[loops] = csr.mhrw_selfloop_mass()[sources[loops]]
        return probabilities
    if isinstance(design, MaxDegreeWalk):
        degrees = csr.degrees[sources]
        check_max_degree(csr, design, sources, degrees)
        probabilities = np.full(sources.size, 1.0 / design.max_degree)
        loops = sources == destinations
        if np.any(loops):
            probabilities[loops] = 1.0 - design.move_probability(
                degrees[loops].astype(np.float64)
            )
        return probabilities
    if isinstance(design, LazyWalk):
        probabilities = (1.0 - design.laziness) * _reference_transition_probabilities(
            csr, design.inner, sources, destinations
        )
        loops = sources == destinations
        if np.any(loops):
            if not design.inner.may_self_loop:
                # The inner branch priced (u, u) as if it were an edge;
                # a loop-free inner design's true self-entry is 0.
                probabilities[loops] = 0.0
            probabilities[loops] += design.laziness
        return probabilities
    raise ConfigurationError(
        f"design {design.name!r} has no vectorized transition probability; "
        "use the scalar unbiased_estimate"
    )


def reference_unbiased_estimate_batch(
    graph: Union[Graph, CSRGraph],
    design: TransitionDesign,
    nodes,
    start,
    t: int,
    seed: RngLike = None,
    repetitions: int = 1,
) -> np.ndarray:
    """The per-depth loop that re-derives every factor at every step."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    csr = graph.compile() if isinstance(graph, Graph) else graph
    rng = ensure_rng(seed)
    targets = csr.positions_of(nodes)
    starts = np.asarray(start, dtype=np.int64)
    if starts.ndim == 0:
        start_position = np.full(targets.size, csr.position_of(int(starts)))
    elif starts.ndim == 1 and starts.size == targets.size:
        start_position = csr.positions_of(starts)
    else:
        raise ConfigurationError(
            f"start must be one node or an array aligned with nodes; got "
            f"shape {starts.shape} for {targets.size} nodes"
        )
    start_position = np.tile(start_position, repetitions)
    current = np.tile(targets, repetitions)
    weights = np.ones(current.size, dtype=np.float64)
    self_loop = 1 if design.may_self_loop else 0
    for _ in range(t, 0, -1):
        degrees = csr.degrees[current]
        if np.any((degrees == 0) & (weights > 0)):
            stuck = int(csr.ids_of(current[(degrees == 0) & (weights > 0)][:1])[0])
            raise GraphError(f"backward walk stuck: node {stuck} has no neighbors")
        candidates = degrees + self_loop
        # Walks whose weight already hit zero keep drawing (their product
        # stays zero); masking them out would cost more than it saves.
        picks = rng.integers(0, np.maximum(candidates, 1))
        is_neighbor = picks < degrees
        predecessors = np.where(
            is_neighbor,
            csr.indices[csr.indptr[current] + np.minimum(picks, degrees - 1)],
            current,
        )
        transition = _reference_transition_probabilities(
            csr, design, predecessors, current
        )
        weights *= candidates * transition
        current = predecessors
    realizations = weights * (current == start_position)
    return realizations.reshape(repetitions, targets.size).mean(axis=0)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _designs(max_degree: int):
    """Every batchable design shape: SRW, MHRW, max-degree, each made
    lazy, and one nested lazy walk."""
    bases = [
        SimpleRandomWalk(),
        MetropolisHastingsWalk(),
        MaxDegreeWalk(max_degree),
    ]
    lazy = [LazyWalk(base, 0.35) for base in bases]
    return bases + lazy + [LazyWalk(LazyWalk(MetropolisHastingsWalk(), 0.2), 0.5)]


def _gappy(graph: Graph) -> Graph:
    """*graph* with node ``v`` renamed ``3v + 7``: non-contiguous ids."""
    out = Graph(name="gappy")
    out.add_nodes_from(3 * v + 7 for v in graph.nodes())
    out.add_edges_from((3 * u + 7, 3 * v + 7) for u, v in graph.edges())
    return out


def _assert_same(csr, design, nodes, start, t, seed, repetitions):
    """Both estimators from one seed: equal bytes, equal end states."""
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    reference = reference_unbiased_estimate_batch(
        csr, design, nodes, start, t, seed=rng_ref, repetitions=repetitions
    )
    candidate = unbiased_estimate_batch(
        csr, design, nodes, start, t, seed=rng_new, repetitions=repetitions
    )
    assert candidate.tobytes() == reference.tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return candidate


def _error_messages(exc_type, csr, design, nodes, start, t, seed, repetitions=4):
    with pytest.raises(exc_type) as reference:
        reference_unbiased_estimate_batch(
            csr, design, nodes, start, t, seed=seed, repetitions=repetitions
        )
    with pytest.raises(exc_type) as candidate:
        unbiased_estimate_batch(
            csr, design, nodes, start, t, seed=seed, repetitions=repetitions
        )
    return str(candidate.value), str(reference.value)


BASE = barabasi_albert_graph(40, 3, seed=11).relabeled()
GRAPHS = {"contiguous": BASE, "gappy": _gappy(BASE)}
DESIGN_NAMES = [
    "srw",
    "mhrw",
    "maxdeg",
    "lazy-srw",
    "lazy-mhrw",
    "lazy-maxdeg",
    "lazy-lazy-mhrw",
]


# ----------------------------------------------------------------------
# Bit-for-bit equality with the reference loop
# ----------------------------------------------------------------------
class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("ids", sorted(GRAPHS))
    @pytest.mark.parametrize("per_walk_start", [False, True])
    @pytest.mark.parametrize("t", [0, 1, 3, 10])
    @pytest.mark.parametrize("code", range(len(DESIGN_NAMES)), ids=DESIGN_NAMES)
    def test_estimates_and_generator_state(self, ids, per_walk_start, t, code):
        graph = GRAPHS[ids]
        csr = graph.compile()
        design = _designs(graph.max_degree())[code]
        ids_array = csr.node_ids
        nodes = np.concatenate([ids_array, ids_array[::3]])
        if per_walk_start:
            pick = np.random.default_rng(5).integers(0, ids_array.size, nodes.size)
            start = ids_array[pick]
        else:
            start = int(ids_array[0])
        # Two calls on one generator: the first builds the table, the
        # second reads the memo, and the stream must run on unbroken.
        rng = np.random.default_rng(1234 + t)
        rng_ref = np.random.default_rng(1234 + t)
        for _ in range(2):
            candidate = unbiased_estimate_batch(
                csr, design, nodes, start, t, seed=rng, repetitions=3
            )
            reference = reference_unbiased_estimate_batch(
                csr, design, nodes, start, t, seed=rng_ref, repetitions=3
            )
            assert candidate.tobytes() == reference.tobytes()
            assert rng.bit_generator.state == rng_ref.bit_generator.state

    @given(
        nodes=st.integers(min_value=5, max_value=40),
        attach=st.integers(min_value=1, max_value=4),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        walk_seed=st.integers(min_value=0, max_value=10_000),
        design_code=st.integers(min_value=0, max_value=len(DESIGN_NAMES) - 1),
        t=st.integers(min_value=0, max_value=12),
        repetitions=st.integers(min_value=1, max_value=4),
        per_walk_start=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_designs_and_seeds(
        self,
        nodes,
        attach,
        graph_seed,
        walk_seed,
        design_code,
        t,
        repetitions,
        per_walk_start,
    ):
        attach = min(attach, nodes - 1)
        graph = barabasi_albert_graph(nodes, attach, seed=graph_seed).relabeled()
        csr = graph.compile()
        design = _designs(graph.max_degree())[design_code]
        targets = np.arange(nodes, dtype=np.int64)
        start = targets[::-1] if per_walk_start else 0
        _assert_same(csr, design, targets, start, t, walk_seed, repetitions)

    def test_slab_style_graph_matches(self):
        # Graphs attached to a slab are assembled copy-free; their memo
        # starts empty just like a constructed graph's.
        csr = BASE.compile()
        attached = CSRGraph.from_validated_parts(
            csr.indptr, csr.indices, csr.degrees, csr.node_ids
        )
        for design in _designs(BASE.max_degree()):
            _assert_same(attached, design, csr.node_ids, 0, 6, 9, 2)

    def test_mutable_graph_input_matches(self):
        design = MetropolisHastingsWalk()
        _assert_same(BASE, design, [3, 5, 8], 0, 5, 4, 6)


class TestWideBatches:
    """From ``BLOCK_DRAW_MIN`` walks on, each level draws one block of
    32-bit values; the reference loop still draws element by element."""

    @pytest.mark.parametrize("ids", sorted(GRAPHS))
    @pytest.mark.parametrize("per_walk_start", [False, True])
    @pytest.mark.parametrize("code", range(len(DESIGN_NAMES)), ids=DESIGN_NAMES)
    def test_estimates_and_generator_state(
        self, ids, per_walk_start, code, block_calls
    ):
        graph = GRAPHS[ids]
        csr = graph.compile()
        design = _designs(graph.max_degree())[code]
        nodes = csr.node_ids
        repetitions = BLOCK_DRAW_MIN // nodes.size + 1
        if per_walk_start:
            pick = np.random.default_rng(5).integers(0, nodes.size, nodes.size)
            start = nodes[pick]
        else:
            start = int(nodes[0])
        _assert_same(csr, design, nodes, start, 8, 77 + code, repetitions)
        assert block_calls == [nodes.size * repetitions] * 8


# ----------------------------------------------------------------------
# The memo
# ----------------------------------------------------------------------
class TestTableMemo:
    def test_one_table_per_design_structure(self):
        csr = BASE.compile()
        assert csr._backward_tables == {}
        for design in (SimpleRandomWalk(), SimpleRandomWalk()):
            unbiased_estimate_batch(csr, design, [1, 2], 0, 3, seed=1)
        assert len(csr._backward_tables) == 1
        (table,) = csr._backward_tables.values()
        unbiased_estimate_batch(csr, SimpleRandomWalk(), [4], 0, 2, seed=2)
        assert next(iter(csr._backward_tables.values())) is table
        for laziness in (0.3, 0.5, 0.3):
            design = LazyWalk(SimpleRandomWalk(), laziness)
            unbiased_estimate_batch(csr, design, [1], 0, 2, seed=3)
        assert len(csr._backward_tables) == 3

    def test_loop_free_table_aliases_the_graph_arrays(self):
        csr = BASE.compile()
        unbiased_estimate_batch(csr, SimpleRandomWalk(), [1], 0, 2, seed=1)
        unbiased_estimate_batch(csr, MetropolisHastingsWalk(), [1], 0, 2, seed=1)
        srw, mhrw = csr._backward_tables.values()
        assert srw.indptr is csr.indptr and srw.indices is csr.indices
        # A self-looping design appends u to row u.
        assert mhrw.indices.size == csr.indices.size + len(csr)
        for u in (0, 7, 39):
            row = mhrw.indices[mhrw.indptr[u] : mhrw.indptr[u + 1]]
            expected = csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
            assert row.tolist() == expected.tolist() + [u]

    def test_depth_zero_builds_nothing(self):
        csr = BASE.compile()
        estimates = unbiased_estimate_batch(csr, SimpleRandomWalk(), [0, 1], 0, 0)
        assert estimates.tolist() == [1.0, 0.0]
        assert csr._backward_tables == {}


# ----------------------------------------------------------------------
# Error paths: same errors, same messages, no numeric warnings
# ----------------------------------------------------------------------
def _with_isolated_nodes() -> Graph:
    """Gappy BA(30, 3) plus edgeless nodes first, in between and last."""
    graph = _gappy(barabasi_albert_graph(30, 3, seed=2).relabeled())
    graph.add_nodes_from([0, 50, 999])
    return graph


def _hub_with_path() -> Graph:
    """Star hub 0 of degree 5 (leaves 1–5), path 5–10–11–12–13–14."""
    graph = Graph(name="hub-path")
    graph.add_edges_from((0, leaf) for leaf in range(1, 6))
    graph.add_edges_from([(5, 10), (10, 11), (11, 12), (12, 13), (13, 14)])
    return graph


class TestErrorPaths:
    @pytest.mark.parametrize("code", range(len(DESIGN_NAMES)), ids=DESIGN_NAMES)
    def test_isolated_target_raises_the_same_stuck_error(self, code):
        graph = _with_isolated_nodes()
        csr = graph.compile()
        design = _designs(graph.max_degree())[code]
        message, expected = _error_messages(
            GraphError, csr, design, [10, 50, 13], 7, 3, seed=6
        )
        assert message == expected
        assert message == "backward walk stuck: node 50 has no neighbors"
        # Both raise before their first draw: the generators end alike.
        rng, rng_ref = np.random.default_rng(6), np.random.default_rng(6)
        with pytest.raises(GraphError):
            unbiased_estimate_batch(csr, design, [10, 50, 13], 7, 3, seed=rng)
        with pytest.raises(GraphError):
            reference_unbiased_estimate_batch(
                csr, design, [10, 50, 13], 7, 3, seed=rng_ref
            )
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("code", range(len(DESIGN_NAMES)), ids=DESIGN_NAMES)
    def test_table_build_is_silent_beside_an_isolated_node(self, code):
        # Pricing an isolated node's self slot would divide 0 by 0.
        graph = _with_isolated_nodes()
        csr = graph.compile()
        design = _designs(graph.max_degree())[code]
        nodes = csr.node_ids[csr.degrees > 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            candidate = unbiased_estimate_batch(
                csr, design, nodes, 7, 5, seed=8, repetitions=4
            )
        assert len(csr._backward_tables) == 1
        reference = reference_unbiased_estimate_batch(
            csr, design, nodes, 7, 5, seed=8, repetitions=4
        )
        assert candidate.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("lazy", [False, True])
    def test_over_bound_hub_raises_only_when_drawn(self, lazy):
        graph = _hub_with_path()
        csr = graph.compile()
        design = MaxDegreeWalk(3)
        if lazy:
            design = LazyWalk(design, 0.4)
        # Walks from the path's far end never get within reach of the
        # hub in three levels: the build must not check nodes eagerly.
        confined = _assert_same(csr, design, [14, 13, 14], 14, 3, 0, 50)
        assert confined.shape == (3,)
        # A leaf's candidate set holds the hub; some walk draws it.
        message, expected = _error_messages(
            ConfigurationError, csr, design, [1, 14], 0, 1, seed=3, repetitions=50
        )
        assert message == expected
        assert message == "node 0 has degree 5 > declared max_degree 3"

    def test_over_bound_target_raises_when_it_draws_itself(self):
        # The hub as a target is checked only once drawn as its own
        # (self-loop) predecessor, exactly as before the table.
        csr = _hub_with_path().compile()
        message, expected = _error_messages(
            ConfigurationError, csr, MaxDegreeWalk(3), [0], 0, 1, seed=1, repetitions=60
        )
        assert message == expected

    def test_unsupported_design_still_rejected(self):
        csr = BASE.compile()
        with pytest.raises(ConfigurationError, match="no vectorized transition"):
            unbiased_estimate_batch(csr, BidirectionalWalk(), [0], 0, 3)
        assert csr._backward_tables == {}
