"""CSRGraph: construction, NeighborView conformance, and round-tripping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, NodeNotFoundError
from repro.graphs.convert import csr_to_graph, graph_to_csr
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.graph import Graph


@st.composite
def attributed_graphs(draw):
    """Simple graphs with gappy node ids, isolated nodes, and attributes."""
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    g = Graph(name="hyp")
    g.add_nodes_from(ids)
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
            max_size=80,
        )
    )
    for u, v in pairs:
        if u != v:
            g.add_edge(u, v)
    if draw(st.booleans()):
        g.set_attribute("x", {n: float(n % 7) for n in ids})
    return g


class TestFromGraph:
    def test_arrays_describe_the_adjacency(self, triangle):
        csr = CSRGraph.from_graph(triangle)
        assert csr.indptr.tolist() == [0, 2, 4, 6]
        assert csr.degrees.tolist() == [2, 2, 2]
        assert csr.neighbors(0) == (1, 2)

    def test_compile_is_from_graph(self, small_ba):
        compiled = small_ba.compile()
        direct = CSRGraph.from_graph(small_ba)
        assert np.array_equal(compiled.indptr, direct.indptr)
        assert np.array_equal(compiled.indices, direct.indices)

    def test_compile_is_a_snapshot(self, path4):
        csr = path4.compile()
        path4.add_edge(0, 3)
        assert csr.degree(0) == 1
        assert path4.degree(0) == 2

    def test_noncontiguous_ids(self):
        g = Graph()
        g.add_edges_from([(10, 20), (20, 40)])
        csr = g.compile()
        assert not csr.contiguous
        assert csr.nodes() == (10, 20, 40)
        assert csr.neighbors(20) == (10, 40)
        assert csr.degree(40) == 1

    def test_isolated_nodes_have_empty_rows(self):
        g = Graph()
        g.add_nodes_from([0, 1, 2])
        g.add_edge(0, 1)
        csr = g.compile()
        assert csr.degree(2) == 0
        assert csr.neighbors(2) == ()


class TestNeighborView:
    """CSRGraph must be usable wherever a Graph view is (scalar walkers)."""

    def test_matches_graph(self, small_ba):
        csr = small_ba.compile()
        for node in small_ba.nodes():
            assert csr.neighbors(node) == small_ba.neighbors(node)
            assert csr.degree(node) == small_ba.degree(node)

    def test_has_edge(self, star5):
        csr = star5.compile()
        assert csr.has_edge(0, 3)
        assert csr.has_edge(3, 0)
        assert not csr.has_edge(1, 2)

    def test_missing_node_raises(self, triangle):
        csr = triangle.compile()
        with pytest.raises(NodeNotFoundError):
            csr.neighbors(99)
        with pytest.raises(NodeNotFoundError):
            csr.degree(-1)

    def test_membership_and_len(self, triangle):
        csr = triangle.compile()
        assert 1 in csr
        assert 99 not in csr
        assert len(csr) == 3


class TestPositions:
    def test_roundtrip_contiguous(self, small_ba):
        csr = small_ba.compile()
        nodes = np.array([0, 5, 29])
        assert np.array_equal(csr.ids_of(csr.positions_of(nodes)), nodes)

    def test_roundtrip_gappy(self):
        g = Graph()
        g.add_edges_from([(3, 7), (7, 100)])
        csr = g.compile()
        nodes = np.array([100, 3, 7])
        assert np.array_equal(csr.ids_of(csr.positions_of(nodes)), nodes)

    def test_unknown_id_raises(self):
        g = Graph()
        g.add_edges_from([(3, 7)])
        csr = g.compile()
        with pytest.raises(NodeNotFoundError):
            csr.positions_of([3, 8])


class TestScalarLookupOnGappyIds:
    """``position_of`` binary-searches ``node_ids``; it builds no id map."""

    @pytest.fixture
    def gappy(self):
        g = Graph()
        g.add_edges_from([(3, 7), (7, 10), (10, 42), (42, 3)])
        csr = g.compile()
        assert not csr.contiguous
        return csr

    def test_hits(self, gappy):
        for position, node in enumerate((3, 7, 10, 42)):
            assert gappy.position_of(node) == position
            assert type(gappy.position_of(node)) is int
            assert node in gappy
        assert gappy.neighbors(42) == (3, 10)
        assert gappy.degree(7) == 2

    @pytest.mark.parametrize("node", [-5, 0, 2, 4, 8, 41, 43, 10**6, 2**70, -(2**70)])
    def test_misses_below_between_and_above(self, gappy, node):
        with pytest.raises(NodeNotFoundError):
            gappy.position_of(node)
        assert node not in gappy
        assert not gappy.has_node(node)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16, np.intp])
    def test_numpy_integers(self, gappy, kind):
        assert gappy.position_of(kind(10)) == 2
        assert kind(10) in gappy
        assert kind(11) not in gappy

    def test_no_id_map_after_lookups(self, gappy):
        for node in (3, 7, 10, 42, 99):
            assert (node in gappy) == (node != 99)
        assert gappy.neighbors(10) == (7, 42)
        for value in vars(gappy).values():
            assert not (isinstance(value, dict) and 42 in value)

    def test_attached_parts_search_the_same_way(self, gappy):
        attached = CSRGraph.from_validated_parts(
            gappy.indptr, gappy.indices, gappy.degrees, gappy.node_ids
        )
        assert [attached.position_of(n) for n in (3, 7, 10, 42)] == [0, 1, 2, 3]
        assert 8 not in attached


class TestAttributes:
    def test_values_survive_compilation(self, triangle):
        triangle.set_attribute("x", {0: 1.0, 1: 2.0, 2: 3.0})
        csr = triangle.compile()
        assert csr.get_attribute("x", 1) == 2.0
        assert csr.attribute_names() == ("x",)

    def test_attribute_array_is_position_aligned(self):
        g = Graph()
        g.add_edges_from([(10, 30), (30, 20)])
        g.set_attribute("x", {10: 1.0, 20: 2.0, 30: 3.0})
        csr = g.compile()
        assert csr.attribute_array("x").tolist() == [1.0, 2.0, 3.0]

    def test_partial_attribute_array_raises(self, path4):
        path4.set_attribute("x", {0: 1.0})
        csr = path4.compile()
        with pytest.raises(GraphError):
            csr.attribute_array("x")
        assert csr.attribute_values("x") == {0: 1.0}

    def test_unknown_attribute_raises(self, triangle):
        csr = triangle.compile()
        with pytest.raises(GraphError):
            csr.attribute_array("nope")


class TestValidation:
    def test_indptr_must_cover_indices(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([0, 0]))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([1, 2, 0]))

    def test_node_ids_must_match_rows(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 0]), np.array([]), node_ids=np.array([1, 2]))


class TestRoundTrip:
    def test_counts_survive(self):
        g = barabasi_albert_graph(150, 5, seed=9).relabeled()
        back = csr_to_graph(graph_to_csr(g))
        assert back.number_of_nodes() == g.number_of_nodes()
        assert back.number_of_edges() == g.number_of_edges()

    def test_star_exact(self, star5):
        back = graph_to_csr(star5).to_graph()
        assert list(back.edges()) == list(star5.edges())

    @given(attributed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_graph_csr_graph_is_identity(self, g):
        back = csr_to_graph(graph_to_csr(g))
        assert back.nodes() == g.nodes()
        assert list(back.edges()) == list(g.edges())
        assert back.attribute_names() == g.attribute_names()
        for attr in g.attribute_names():
            assert back.attribute_values(attr) == g.attribute_values(attr)

    @given(attributed_graphs())
    @settings(max_examples=40, deadline=None)
    def test_csr_degrees_match_graph(self, g):
        csr = graph_to_csr(g)
        assert sum(int(d) for d in csr.degrees) == 2 * g.number_of_edges()
        for node in g.nodes():
            assert csr.degree(node) == g.degree(node)


class TestMhrwSelfloopMass:
    def test_matches_scalar_row(self, small_ba):
        from repro.walks.transitions import MetropolisHastingsWalk

        design = MetropolisHastingsWalk()
        csr = small_ba.compile()
        mass = csr.mhrw_selfloop_mass()
        for node in small_ba.nodes():
            row = design.transition_row(small_ba, node)
            assert mass[node] == pytest.approx(row.get(node, 0.0), abs=1e-12)

    def test_regular_graph_has_no_selfloop(self):
        from repro.graphs.generators import cycle_graph

        csr = cycle_graph(8).relabeled().compile()
        assert np.allclose(csr.mhrw_selfloop_mass(), 0.0)
