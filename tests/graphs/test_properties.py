"""Structural property computations."""

import pytest

from repro.datasets import build_dataset
from repro.errors import GraphError, NodeNotFoundError
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    star_graph,
    watts_strogatz_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.properties import (
    average_clustering,
    average_degree,
    bfs_distances,
    connected_components,
    degree_histogram,
    diameter,
    eccentricity,
    estimate_diameter,
    is_connected,
    k_hop_neighborhood,
    largest_connected_component,
    local_clustering,
    mean_shortest_path_lengths,
)


def test_bfs_distances_path(path4):
    assert bfs_distances(path4, 0) == {0: 0, 1: 1, 2: 2, 3: 3}
    with pytest.raises(NodeNotFoundError):
        bfs_distances(path4, 9)


def test_k_hop_neighborhood(path4):
    assert k_hop_neighborhood(path4, 0, 2) == {0: 0, 1: 1, 2: 2}
    assert k_hop_neighborhood(path4, 0, 0) == {0: 0}
    with pytest.raises(GraphError):
        k_hop_neighborhood(path4, 0, -1)


def test_connected_components_ordering():
    g = Graph()
    g.add_edges_from([(0, 1), (1, 2), (5, 6)])
    g.add_node(9)
    components = connected_components(g)
    assert [len(c) for c in components] == [3, 2, 1]
    assert not is_connected(g)


def test_largest_connected_component_relabels():
    g = Graph()
    g.add_edges_from([(10, 20), (20, 30), (100, 200)])
    lcc = largest_connected_component(g)
    assert lcc.number_of_nodes() == 3
    assert lcc.nodes() == (0, 1, 2)


def test_diameter_and_eccentricity(path4):
    assert eccentricity(path4, 0) == 3
    assert eccentricity(path4, 1) == 2
    assert diameter(path4) == 3


def test_diameter_disconnected_raises():
    g = Graph()
    g.add_edge(0, 1)
    g.add_node(5)
    with pytest.raises(GraphError):
        diameter(g)


def test_estimate_diameter_bounds_true_value():
    g = cycle_graph(20)
    estimated = estimate_diameter(g, probes=8, seed=1)
    assert estimated <= diameter(g)
    # Double-sweep on a cycle finds the true diameter easily.
    assert estimated >= diameter(g) - 1


def test_local_clustering_extremes():
    g = complete_graph(5)
    assert local_clustering(g, 0) == 1.0
    s = star_graph(6)
    assert local_clustering(s, 0) == 0.0  # hub: no neighbor links
    assert local_clustering(s, 1) == 0.0  # leaf: degree < 2


def reference_local_clustering(graph, node):
    """The pairwise ``has_edge`` loop ``local_clustering`` used to run."""
    neighbors = graph.neighbors(node)
    k = len(neighbors)
    if k < 2:
        return 0.0
    links = 0
    neighbor_set = set(neighbors)
    for i, u in enumerate(neighbors):
        # Count each pair once by only looking at later neighbors of u.
        for v in neighbors[i + 1 :]:
            if v in neighbor_set and graph.has_edge(u, v):
                links += 1
    return 2.0 * links / (k * (k - 1))


def assert_clustering_like_reference(graph):
    for node in graph.nodes():
        assert local_clustering(graph, node) == reference_local_clustering(graph, node)


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(erdos_renyi_graph(120, 0.08, seed=3), id="er-120"),
        pytest.param(watts_strogatz_graph(150, 6, 0.2, seed=4), id="ws-150"),
        pytest.param(barabasi_albert_graph(200, 4, seed=5), id="ba-200"),
        pytest.param(complete_graph(7), id="k7"),
        pytest.param(star_graph(9), id="star"),
    ],
)
def test_local_clustering_equals_the_pairwise_loop(graph):
    assert_clustering_like_reference(graph)


def test_local_clustering_equals_the_pairwise_loop_on_yelp():
    assert_clustering_like_reference(build_dataset("yelp", seed=7).graph)


def test_average_clustering_triangle_plus_tail():
    g = Graph()
    g.add_edges_from([(0, 1), (1, 2), (2, 0), (2, 3)])
    # nodes 0,1: coefficient 1.0; node 2: 1/3; node 3: 0.
    assert average_clustering(g) == pytest.approx((1 + 1 + 1 / 3 + 0) / 4)


def test_average_degree(triangle):
    assert average_degree(triangle) == 2.0
    with pytest.raises(GraphError):
        average_degree(Graph())


def test_degree_histogram(star5):
    assert degree_histogram(star5) == {4: 1, 1: 4}


def test_mean_shortest_path_lengths_exact_on_cycle():
    g = cycle_graph(6)
    means = mean_shortest_path_lengths(g, landmarks=list(g.nodes()))
    # By symmetry, every node's mean distance to all nodes is (1+1+2+2+3)/6.
    expected = (0 + 1 + 1 + 2 + 2 + 3) / 6
    for value in means.values():
        assert value == pytest.approx(expected)


def test_mean_shortest_path_lengths_random_landmarks():
    g = barabasi_albert_graph(60, 3, seed=2)
    means = mean_shortest_path_lengths(g, landmark_count=8, seed=3)
    assert set(means) == set(g.nodes())
    assert all(v >= 0 for v in means.values())


def test_mean_shortest_path_unreachable_raises():
    g = Graph()
    g.add_edge(0, 1)
    g.add_node(2)
    with pytest.raises(GraphError):
        mean_shortest_path_lengths(g, landmarks=[0])
