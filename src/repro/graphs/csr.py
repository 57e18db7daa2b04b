"""Frozen CSR (compressed sparse row) adjacency for vectorized walking.

:class:`CSRGraph` is the read-optimized twin of the mutable adjacency-set
:class:`~repro.graphs.graph.Graph`.  The whole topology lives in three
NumPy arrays —

* ``indptr``  — row offsets, shape ``(n + 1,)``;
* ``indices`` — concatenated neighbor lists, sorted within each row;
* ``degrees`` — per-node degree, ``indptr[i+1] - indptr[i]``;

so a batch of K independent walks advances one step with a handful of
array operations instead of K Python-level neighbor lookups.  That is the
substrate :mod:`repro.walks.batch` builds on.

**When to use which.**  Use :class:`~repro.graphs.graph.Graph` while the
topology is still changing (loading, generators, restriction surgery) and
for anything charged through :class:`~repro.osn.api.SocialNetworkAPI` —
query-cost accounting is inherently per-node.  Once the graph is frozen
and the workload is throughput-bound (many walks, backward-estimate
sweeps, benchmarks), compile it with :meth:`Graph.compile` /
:meth:`CSRGraph.from_graph` and hand it to the batch engine.

``CSRGraph`` also satisfies the ``NeighborView`` protocol
(``neighbors(node)`` / ``degree(node)`` over original node ids), so every
scalar walker and transition design runs on it unchanged — which is what
makes seed-for-seed parity tests between the two engines possible.

Conversion is lossless: ``CSRGraph.from_graph(g).to_graph()`` reproduces
``g``'s nodes, edges, and attributes exactly (see
:func:`repro.graphs.convert.graph_to_csr` /
:func:`repro.graphs.convert.csr_to_graph`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.errors import GraphError, NodeNotFoundError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graphs.graph import Graph

Node = int


class CSRGraph:
    """Immutable CSR adjacency over nodes relabeled to positions ``0..n-1``.

    Positions follow sorted original node-id order; ``node_ids[p]`` maps a
    position back to its id and :meth:`position_of` maps forward.  When the
    ids already are ``0..n-1`` (:attr:`contiguous`), both maps are the
    identity and the batch engine skips them entirely.

    Parameters
    ----------
    indptr, indices:
        CSR arrays over *positions*; ``indices`` must be sorted within each
        row (the same deterministic neighbor order ``Graph.neighbors``
        exposes, which seeded walks rely on).
    node_ids:
        Sorted original node ids, one per position; defaults to
        ``0..n-1``.
    name:
        Human-readable label carried into reports.
    attributes:
        Per-node attribute maps keyed by original node id (possibly
        partial), copied verbatim so conversion round-trips.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        node_ids: Optional[np.ndarray] = None,
        name: str = "csr",
        attributes: Optional[Dict[str, Dict[Node, float]]] = None,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise GraphError("indptr must be a 1-d array of length n + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise GraphError(
                "indptr must start at 0 and end at len(indices); got "
                f"[{self.indptr[0]}, {self.indptr[-1]}] for {self.indices.size}"
            )
        self.degrees = np.diff(self.indptr)
        if np.any(self.degrees < 0):
            raise GraphError("indptr must be non-decreasing")
        n = self.indptr.size - 1
        if node_ids is None:
            self.node_ids = np.arange(n, dtype=np.int64)
        else:
            self.node_ids = np.ascontiguousarray(node_ids, dtype=np.int64)
            if self.node_ids.size != n:
                raise GraphError(
                    f"node_ids has {self.node_ids.size} entries for {n} rows"
                )
            if n and np.any(np.diff(self.node_ids) <= 0):
                raise GraphError("node_ids must be strictly increasing")
        self.name = name
        self.contiguous = bool(
            n == 0 or (self.node_ids[0] == 0 and self.node_ids[-1] == n - 1)
        )
        self._attributes: Dict[str, Dict[Node, float]] = {
            attr: dict(values) for attr, values in (attributes or {}).items()
        }
        self._mhrw_selfloop: Optional[np.ndarray] = None
        self._backward_tables: Dict[Tuple, Tuple] = {}

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: "Graph") -> "CSRGraph":
        """Freeze a :class:`Graph` into CSR form (nodes in sorted-id order)."""
        ids = np.fromiter(graph.nodes(), dtype=np.int64, count=len(graph))
        degrees = np.fromiter(
            (graph.degree(int(node)) for node in ids), dtype=np.int64, count=ids.size
        )
        indptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        if ids.size and not (ids[0] == 0 and ids[-1] == ids.size - 1):
            position = {int(node): p for p, node in enumerate(ids)}
            for p, node in enumerate(ids):
                row = [position[v] for v in graph.neighbors(int(node))]
                indices[indptr[p] : indptr[p + 1]] = row
        else:
            for p, node in enumerate(ids):
                indices[indptr[p] : indptr[p + 1]] = graph.neighbors(int(node))
        attributes = {
            attr: graph.attribute_values(attr) for attr in graph.attribute_names()
        }
        return cls(
            indptr, indices, node_ids=ids, name=graph.name, attributes=attributes
        )

    @classmethod
    def from_validated_parts(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        node_ids: np.ndarray,
        name: str = "csr",
        attributes: Optional[Dict[str, Dict[Node, float]]] = None,
    ) -> "CSRGraph":
        """Assemble a graph from already-validated int64 arrays, copy-free.

        The regular constructor normalizes dtypes (which may copy) and
        recomputes ``degrees`` — both wrong for arrays that live in a
        shared-memory segment, where every view must alias the one mapping.
        :mod:`repro.graphs.shm` validates at share time and attaches
        through here; the arrays are adopted exactly as passed.
        """
        self = cls.__new__(cls)
        self.indptr = indptr
        self.indices = indices
        self.degrees = degrees
        self.node_ids = node_ids
        self.name = name
        n = indptr.size - 1
        self.contiguous = bool(n == 0 or (node_ids[0] == 0 and node_ids[-1] == n - 1))
        self._attributes = {
            attr: dict(values) for attr, values in (attributes or {}).items()
        }
        self._mhrw_selfloop = None
        self._backward_tables = {}
        return self

    def to_graph(self, name: Optional[str] = None) -> "Graph":
        """Thaw back into a mutable :class:`Graph` (exact inverse of
        :meth:`from_graph`)."""
        from repro.graphs.graph import Graph

        out = Graph(name=name if name is not None else self.name)
        out.add_nodes_from(int(node) for node in self.node_ids)
        for p in range(self.number_of_nodes()):
            u = int(self.node_ids[p])
            for q in self.indices[self.indptr[p] : self.indptr[p + 1]]:
                v = int(self.node_ids[q])
                if u < v:
                    out.add_edge(u, v)
        for attr, values in self._attributes.items():
            out.set_attribute(attr, values)
        return out

    # ------------------------------------------------------------------
    # Position <-> id maps
    # ------------------------------------------------------------------
    def position_of(self, node: Node) -> int:
        """Position (CSR row) of original node id *node*.

        The identity on a :attr:`contiguous` graph, otherwise one binary
        search of the sorted :attr:`node_ids` — no per-graph id map, so a
        graph asked once (``start in graph``) never pays for one.
        """
        if self.contiguous:
            if 0 <= node < self.number_of_nodes():
                return int(node)
            raise NodeNotFoundError(node)
        position = int(np.searchsorted(self.node_ids, node))
        if position < self.node_ids.size and self.node_ids[position] == node:
            return position
        raise NodeNotFoundError(node)

    def positions_of(self, nodes) -> np.ndarray:
        """Vectorized :meth:`position_of` for an array of node ids."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if self.contiguous:
            if nodes.size and (nodes.min() < 0 or nodes.max() >= len(self)):
                bad = nodes[(nodes < 0) | (nodes >= len(self))][0]
                raise NodeNotFoundError(int(bad))
            return nodes
        positions = np.searchsorted(self.node_ids, nodes)
        ok = (positions < self.node_ids.size) & (
            self.node_ids[np.minimum(positions, self.node_ids.size - 1)] == nodes
        )
        if not np.all(ok):
            raise NodeNotFoundError(int(nodes[~ok][0]))
        return positions

    def ids_of(self, positions: np.ndarray) -> np.ndarray:
        """Original node ids for an array of positions."""
        if self.contiguous:
            return np.asarray(positions, dtype=np.int64)
        return self.node_ids[positions]

    # ------------------------------------------------------------------
    # NeighborView protocol (original node ids)
    # ------------------------------------------------------------------
    def neighbors(self, node: Node) -> Tuple[Node, ...]:
        """Sorted tuple of *node*'s neighbors, as original ids."""
        p = self.position_of(node)
        row = self.indices[self.indptr[p] : self.indptr[p + 1]]
        return tuple(int(v) for v in self.ids_of(row))

    def degree(self, node: Node) -> int:
        """Number of neighbors of *node*."""
        return int(self.degrees[self.position_of(node)])

    def has_node(self, node: Node) -> bool:
        """True if *node* is in the graph."""
        try:
            self.position_of(node)
        except NodeNotFoundError:
            return False
        return True

    def has_edge(self, u: Node, v: Node) -> bool:
        """True if the undirected edge ``(u, v)`` exists (binary search)."""
        pu = self.position_of(u)
        pv = self.position_of(v)
        row = self.indices[self.indptr[pu] : self.indptr[pu + 1]]
        i = np.searchsorted(row, pv)
        return bool(i < row.size and row[i] == pv)

    def nodes(self) -> Tuple[Node, ...]:
        """All node ids in sorted order."""
        return tuple(int(n) for n in self.node_ids)

    def number_of_nodes(self) -> int:
        """Node count ``|V|``."""
        return self.indptr.size - 1

    def number_of_edges(self) -> int:
        """Edge count ``|E|`` (each undirected edge counted once)."""
        return self.indices.size // 2

    def max_degree(self) -> int:
        """Maximum degree over all nodes (0 for an empty graph)."""
        return int(self.degrees.max()) if self.degrees.size else 0

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------
    def attribute_names(self) -> Tuple[str, ...]:
        """Names of all defined attributes, sorted."""
        return tuple(sorted(self._attributes))

    def attribute_values(self, name: str) -> Dict[Node, float]:
        """Copy of the full value map for attribute *name*."""
        if name not in self._attributes:
            raise GraphError(f"attribute {name!r} is not defined on {self.name!r}")
        return dict(self._attributes[name])

    def get_attribute(self, name: str, node: Node) -> float:
        """Value of attribute *name* at *node*."""
        if name not in self._attributes:
            raise GraphError(f"attribute {name!r} is not defined on {self.name!r}")
        values = self._attributes[name]
        if node not in values:
            raise NodeNotFoundError(node)
        return values[node]

    def attribute_array(self, name: str) -> np.ndarray:
        """Attribute values as a float array aligned to positions.

        Requires the attribute to cover every node — the vectorized
        estimators index it by walk position, where a hole would silently
        poison aggregates.
        """
        if name not in self._attributes:
            raise GraphError(f"attribute {name!r} is not defined on {self.name!r}")
        values = self._attributes[name]
        if len(values) != self.number_of_nodes():
            raise GraphError(
                f"attribute {name!r} covers {len(values)} of "
                f"{self.number_of_nodes()} nodes; dense array would be wrong"
            )
        return np.array([values[int(node)] for node in self.node_ids], dtype=np.float64)

    # ------------------------------------------------------------------
    # Precomputed transition quantities
    # ------------------------------------------------------------------
    # Memos built on first use and kept on the instance, so they live and
    # die with its arrays (a slab-backed graph's tables may alias the
    # slab's views; a module-level cache would outlive the mapping):
    #
    # * ``_mhrw_selfloop`` — :meth:`mhrw_selfloop_mass`;
    # * ``_backward_tables`` — :mod:`repro.core.unbiased`'s backward
    #   candidate tables (every C(u) row with its |C(u)|·T(x, u)
    #   factors), one per design structure, keyed by its
    #   :func:`repro.walks.kernels.compile_design` record.
    #
    # Id lookups are not memoized: the service publishes a new graph each
    # epoch and asks it a handful of questions, so :meth:`position_of`
    # binary-searches ``node_ids`` rather than build a map per graph.
    def mhrw_selfloop_mass(self) -> np.ndarray:
        """Per-position MHRW self-loop mass, ``1 - Σ_v (1/dᵤ)·min(1, dᵤ/dᵥ)``.

        The scalar design computes this on demand by querying every
        neighbor's degree; here one O(|E|) vectorized pass precomputes it
        for all nodes at once (cached), which is what lets the batch
        backward estimator price MHRW self-loop predecessors without
        per-node row materialization.
        """
        if self._mhrw_selfloop is None:
            du = np.repeat(self.degrees, self.degrees).astype(np.float64)
            dv = self.degrees[self.indices].astype(np.float64)
            per_edge = np.minimum(1.0, du / dv) / du
            moved = np.zeros(self.number_of_nodes(), dtype=np.float64)
            row_of_edge = np.repeat(np.arange(self.number_of_nodes()), self.degrees)
            np.add.at(moved, row_of_edge, per_edge)
            self._mhrw_selfloop = np.maximum(0.0, 1.0 - moved)
        return self._mhrw_selfloop

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __len__(self) -> int:
        return self.number_of_nodes()

    def __repr__(self) -> str:
        return (
            f"CSRGraph(name={self.name!r}, nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()})"
        )
