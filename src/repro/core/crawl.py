"""Initial crawling: exact sampling probabilities near the start node.

Variance-reduction heuristic #1 (paper §5.2): crawl the h-hop neighborhood
of the walk's starting node once, then compute — *exactly* — the forward
walk's step distributions ``p_s`` for every ``s ≤ h`` by dynamic programming
over the crawled zone.

Why this is exact: after ``s ≤ h`` steps the walk's support lies within
``s`` hops of the start, and the transition row of any node within ``h-1``
hops only references nodes within ``h`` hops — all of which the crawl has
queried (so their neighbor lists, hence degrees, are known).  A backward
walk can therefore stop as soon as its remaining depth ``s`` drops to ``h``
and read off the exact value ``p_s(x)`` (zero for nodes outside the
support), which is both cheaper and lower-variance than recursing to the
base case.

The crawl itself proceeds layer by layer, fetching each BFS frontier with
one ``neighbors_batch`` call when the view supports it — the queried node
set (and hence the §2.4 query cost) is identical to the node-at-a-time
BFS, but the accounting settles once per layer.  The resulting ``p_s``
tables serve two grains: :meth:`InitialCrawl.probability` for the scalar
backward walk, and :meth:`InitialCrawl.probabilities_batch` — one sorted
array per step, shared across K simultaneous backward walks from the same
start — for the batched WS-BW estimator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arrays import sorted_lookup, sorted_table
from repro.errors import ConfigurationError
from repro.walks.transitions import NeighborView, Node, TransitionDesign


class InitialCrawl:
    """h-hop crawl of a start node plus the exact ``p_s`` table.

    Parameters
    ----------
    api:
        Neighbor view (normally a charged :class:`SocialNetworkAPI`).
    design:
        Transit design of the forward walk whose probabilities we tabulate.
    start:
        The forward walk's starting node.
    hops:
        Crawl depth ``h`` (paper suggests 2 or 3; it uses 1 for the dense
        Google Plus graph).
    """

    def __init__(
        self,
        api: NeighborView,
        design: TransitionDesign,
        start: Node,
        hops: int,
    ) -> None:
        if hops < 0:
            raise ConfigurationError(f"hops must be >= 0, got {hops}")
        self.api = api
        self.design = design
        self.start = start
        self.hops = hops
        self._distances = self._crawl()
        self._tables = self._exact_probability_tables()
        self._array_tables: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [
            None
        ] * (hops + 1)

    def _fetch_layer(self, nodes: List[Node]) -> List[Tuple[Node, ...]]:
        """Neighbor rows for one BFS layer, batched when the view allows."""
        fetch = getattr(self.api, "neighbors_batch", None)
        if fetch is not None:
            return fetch(np.asarray(nodes, dtype=np.int64))
        return [self.api.neighbors(node) for node in nodes]

    def _crawl(self) -> Dict[Node, int]:
        """Layered BFS to depth ``hops``; queries every node within it.

        Every node at distance ``≤ hops`` is queried — including the
        frontier layer itself, whose degrees the DP needs even though its
        rows are never expanded.
        """
        distances: Dict[Node, int] = {self.start: 0}
        layer: List[Node] = [self.start]
        for depth in range(self.hops + 1):
            rows = self._fetch_layer(layer)
            if depth == self.hops:
                break
            next_layer: List[Node] = []
            for row in rows:
                for neighbor in row:
                    if neighbor not in distances:
                        distances[neighbor] = depth + 1
                        next_layer.append(neighbor)
            if not next_layer:
                break
            layer = next_layer
        return distances

    def _exact_probability_tables(self) -> list[Dict[Node, float]]:
        """Forward DP: ``tables[s][v] = p_s(v)`` exactly, for ``s ≤ hops``."""
        tables: list[Dict[Node, float]] = [{self.start: 1.0}]
        for _ in range(self.hops):
            previous = tables[-1]
            current: Dict[Node, float] = {}
            for node, mass in previous.items():
                row = self.design.transition_row(self.api, node)
                for candidate, probability in row.items():
                    current[candidate] = (
                        current.get(candidate, 0.0) + mass * probability
                    )
            tables.append(current)
        return tables

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def covers_step(self, s: int) -> bool:
        """True when ``p_s`` is tabulated exactly (``0 ≤ s ≤ hops``)."""
        return 0 <= s <= self.hops

    def probability(self, node: Node, s: int) -> float:
        """Exact ``p_s(node)``; 0.0 for nodes outside the step-``s`` support.

        Raises
        ------
        ConfigurationError
            If ``s`` is not covered by the crawl (callers must check
            :meth:`covers_step` first — asking for an uncovered step is a
            logic error, not a data condition).
        """
        if not self.covers_step(s):
            raise ConfigurationError(
                f"step {s} not covered by an h={self.hops} crawl"
            )
        return self._tables[s].get(node, 0.0)

    def _table_arrays(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted (node ids, probabilities) arrays for step *s* (cached)."""
        if self._array_tables[s] is None:
            self._array_tables[s] = sorted_table(self._tables[s], np.float64)
        return self._array_tables[s]

    def probabilities_batch(self, nodes, s: int) -> np.ndarray:
        """Exact ``p_s`` for an array of nodes — one search, K lookups.

        The array form of :meth:`probability`: one crawl (paid once per
        start) serves every backward walk of a K-wide batch in a single
        sorted-array lookup.  Nodes outside the step-``s`` support get 0.

        Raises
        ------
        ConfigurationError
            If ``s`` is not covered by the crawl.
        """
        if not self.covers_step(s):
            raise ConfigurationError(
                f"step {s} not covered by an h={self.hops} crawl"
            )
        ids, values = self._table_arrays(s)
        nodes = np.asarray(nodes, dtype=np.int64)
        out = np.zeros(nodes.size, dtype=np.float64)
        pos, hit = sorted_lookup(ids, nodes)
        out[hit] = values[pos[hit]]
        return out

    @property
    def crawled_nodes(self) -> frozenset[Node]:
        """All nodes the crawl queried."""
        return frozenset(self._distances)

    def distance(self, node: Node) -> int | None:
        """Hop distance from the start for crawled nodes, else None."""
        return self._distances.get(node)

    def __repr__(self) -> str:
        return (
            f"InitialCrawl(start={self.start}, hops={self.hops}, "
            f"nodes={len(self._distances)})"
        )
