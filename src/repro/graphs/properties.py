"""Structural graph properties: BFS, diameter, clustering, components.

These back three needs: validating generators in tests, computing ground
truth for the paper's AVG aggregates (degree, shortest-path length, local
clustering coefficient), and sizing walk lengths (the WALK step keys off the
graph diameter, paper §4.3).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional

from repro.errors import GraphError, NodeNotFoundError
from repro.graphs.graph import Graph, Node
from repro.rng import RngLike, ensure_rng


def bfs_distances(graph: Graph, source: Node) -> Dict[Node, int]:
    """Hop distance from *source* to every reachable node (BFS)."""
    return k_hop_neighborhood(graph, source, None)


def k_hop_neighborhood(
    graph: Graph, source: Node, hops: Optional[int]
) -> Dict[Node, int]:
    """Nodes within *hops* of *source* (``None``: no cap), mapped to their
    distance in BFS order."""
    if hops is not None and hops < 0:
        raise GraphError(f"hops must be >= 0, got {hops}")
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    distances = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        if distances[current] == hops:
            continue
        for neighbor in graph.neighbors(current):
            if neighbor not in distances:
                distances[neighbor] = distances[current] + 1
                queue.append(neighbor)
    return distances


def connected_components(graph: Graph) -> List[set[Node]]:
    """Connected components, largest first."""
    seen: set[Node] = set()
    components: List[set[Node]] = []
    for node in graph.nodes():
        if node in seen:
            continue
        component = set(bfs_distances(graph, node))
        seen |= component
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def is_connected(graph: Graph) -> bool:
    """True if the graph is non-empty and has a single component."""
    n = graph.number_of_nodes()
    if n == 0:
        return False
    first = graph.nodes()[0]
    return len(bfs_distances(graph, first)) == n


def largest_connected_component(graph: Graph) -> Graph:
    """Induced subgraph on the largest component (relabeled 0..n-1).

    The paper's Yelp experiment uses "the largest connected component of
    the user-user graph"; surrogates apply the same normalization.
    """
    components = connected_components(graph)
    if not components:
        raise GraphError("graph has no nodes")
    return graph.subgraph(components[0], name=f"{graph.name}-lcc").relabeled()


def eccentricity(graph: Graph, node: Node) -> int:
    """Greatest hop distance from *node* to any node of its component."""
    return max(bfs_distances(graph, node).values())


def diameter(graph: Graph, require_connected: bool = True) -> int:
    """Exact diameter via all-pairs BFS.

    ``O(|V| * (|V| + |E|))`` — fine for the paper's case-study graphs;
    use :func:`estimate_diameter` on the large surrogates.
    """
    nodes = graph.nodes()
    if not nodes:
        raise GraphError("diameter of an empty graph is undefined")
    if require_connected and not is_connected(graph):
        raise GraphError("graph is disconnected; diameter is infinite")
    return max(eccentricity(graph, node) for node in nodes)


def estimate_diameter(graph: Graph, probes: int = 16, seed: RngLike = None) -> int:
    """Lower-bound diameter estimate via random double-sweep BFS probes.

    Mirrors the practical setting of the paper (§4.3): third parties cannot
    compute the exact diameter, but "8 to 10 is a safe bet" upper bounds —
    this estimator supplies the data-driven counterpart used when building
    experiment configurations.
    """
    nodes = graph.nodes()
    if not nodes:
        raise GraphError("diameter of an empty graph is undefined")
    rng = ensure_rng(seed)
    best = 0
    for _ in range(probes):
        start = nodes[int(rng.integers(0, len(nodes)))]
        first = bfs_distances(graph, start)
        far_node = max(first, key=lambda n: first[n])
        second = bfs_distances(graph, far_node)
        best = max(best, max(second.values()))
    return best


def local_clustering(graph: Graph, node: Node) -> float:
    """Local clustering coefficient of *node*.

    Fraction of neighbor pairs that are themselves connected; 0.0 for
    degree < 2 (the usual convention).
    """
    neighbors = graph.neighbors(node)
    k = len(neighbors)
    if k < 2:
        return 0.0
    neighbor_set = set(neighbors)
    # Each link between two neighbors is counted once from either end.
    links = sum(len(neighbor_set.intersection(graph.neighbors(u))) for u in neighbors)
    return 2.0 * (links // 2) / (k * (k - 1))


def average_clustering(graph: Graph) -> float:
    """Mean local clustering coefficient over all nodes."""
    nodes = graph.nodes()
    if not nodes:
        raise GraphError("average clustering of an empty graph is undefined")
    return sum(local_clustering(graph, node) for node in nodes) / len(nodes)


def average_degree(graph: Graph) -> float:
    """Mean degree ``2|E| / |V|``."""
    n = graph.number_of_nodes()
    if n == 0:
        raise GraphError("average degree of an empty graph is undefined")
    return 2.0 * graph.number_of_edges() / n


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Map degree -> number of nodes with that degree."""
    histogram: Dict[int, int] = {}
    for node in graph.nodes():
        d = graph.degree(node)
        histogram[d] = histogram.get(d, 0) + 1
    return histogram


def shortest_path_lengths(graph: Graph, source: Node) -> Dict[Node, int]:
    """Alias of :func:`bfs_distances` under the paper's terminology."""
    return bfs_distances(graph, source)


def mean_shortest_path_lengths(
    graph: Graph,
    landmarks: Optional[Iterable[Node]] = None,
    landmark_count: int = 32,
    seed: RngLike = None,
) -> Dict[Node, float]:
    """Per-node mean hop distance to a set of landmark nodes.

    The paper's Yelp/Twitter experiments estimate "average shortest path
    length" as a node-associated measure.  Computing exact all-pairs means is
    quadratic, so datasets precompute the mean distance to a fixed random
    landmark set — an unbiased estimate of each node's mean distance whose
    per-node values serve as the aggregate attribute.
    """
    nodes = graph.nodes()
    if not nodes:
        raise GraphError("no nodes")
    if landmarks is None:
        rng = ensure_rng(seed)
        count = min(landmark_count, len(nodes))
        picked = rng.choice(len(nodes), size=count, replace=False)
        landmarks = [nodes[int(i)] for i in picked]
    landmarks = list(landmarks)
    if not landmarks:
        raise GraphError("need at least one landmark")
    totals = {node: 0.0 for node in nodes}
    counts = {node: 0 for node in nodes}
    for landmark in landmarks:
        distances = bfs_distances(graph, landmark)
        for node, dist in distances.items():
            totals[node] += dist
            counts[node] += 1
    means: Dict[Node, float] = {}
    for node in nodes:
        if counts[node] == 0:
            raise GraphError(
                f"node {node} unreachable from all landmarks; "
                "run on a connected graph or pass reachable landmarks"
            )
        means[node] = totals[node] / counts[node]
    return means
