"""UNBIASED-ESTIMATE: the backward random walk (paper Algorithm 1).

Estimates ``p_t(u)`` — the probability that a *t*-step forward walk from
``w`` ends at ``u`` — by walking *backward* from ``u``:

    p_t(u) = Σ_x  T(x, u) · p_{t-1}(x)        over predecessors x of u.

Draw one predecessor ``x`` uniformly from the candidate set ``C(u)``, then

    estimate = |C(u)| · T(x, u) · estimate_of(p_{t-1}(x)),

recursing until ``t = 0`` (worth 1 at the start node, 0 elsewhere) or until
an :class:`~repro.core.crawl.InitialCrawl` table covers the remaining depth.
Unbiasedness follows by induction exactly as in the paper's Eq. 22–24 —
and is verified in the test suite by exhaustive enumeration of backward
paths on small graphs.

The candidate set ``C(u)`` is ``N(u)`` plus ``u`` itself when the design
has a self-loop at ``u`` (MHRW does); on an undirected graph these are the
only states with ``T(x, u) > 0``.

On a frozen :class:`~repro.graphs.csr.CSRGraph` the factor
``|C(u)| · T(x, u)`` is a fixed number per ``(u, x)`` pair, so the batch
estimator reads it from a **backward candidate table** instead of pricing
every step: row ``u`` lists ``C(u)`` (``N(u)`` in CSR order, then ``u``
when the design may self-loop) with each slot's factor alongside, plus
each node's candidate count and whether any node is isolated.  One table is
built per (graph, design structure) on first use and memoized on the
graph.  The structure is :func:`repro.walks.kernels.compile_design`'s
record: it keys the memo and decides the table's self slots and prices,
so a design it does not match by exact type, a subclass included, is
refused before any table is built.  A depth level is then one take of
each walk's row start and candidate count, one bounded draw (one block
of 32-bit values for a wide batch, see
:func:`repro.rng.bounded_integers`) and the gather of each walk's
predecessor.  The slots of every level are kept; after the last
level only the walks that ended at their start, the only ones worth
more than 0, multiply their slots' factors.

In law this is the no-history case of
:func:`repro.core.weighted.ws_bw_batch`, but not bit for bit: WS-BW
multiplies ``T(x, u)/π(x)`` at every level (SRW values move in the last
bit), and stops drawing for a walk whose weight reached 0 (MHRW and
max-degree streams diverge).  It also gathers every live walk's whole
candidate row per level, where this walk reads one slot.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import numpy as np

from repro.core.crawl import InitialCrawl
from repro.errors import ConfigurationError, GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.rng import RngLike, bounded_integers, ensure_rng
from repro.walks.batch import check_max_degree
from repro.walks.kernels import MAXDEG, MHRW, SRW, BatchDesign, compile_design
from repro.walks.transitions import NeighborView, Node, TransitionDesign


def backward_candidates(
    view: NeighborView, design: TransitionDesign, node: Node
) -> tuple[Node, ...]:
    """All states that can transition into *node* in one step.

    On an undirected graph, predecessors of ``u`` are among ``N(u) ∪ {u}``;
    ``u`` itself is included exactly when the design can self-loop
    (``may_self_loop``).  When the particular node's self-loop mass happens
    to be zero, including it is still unbiased — the realization just picks
    up a zero weight — and avoids materializing the full transition row,
    which for MHRW would query every neighbor's degree.
    """
    neighbors = view.neighbors(node)
    if design.may_self_loop:
        return neighbors + (node,)
    return neighbors


def unbiased_estimate(
    view: NeighborView,
    design: TransitionDesign,
    node: Node,
    start: Node,
    t: int,
    seed: RngLike = None,
    crawl: Optional[InitialCrawl] = None,
    max_depth: Optional[int] = None,
) -> float:
    """One unbiased realization of the estimator of ``p_t(node)``.

    Parameters
    ----------
    view:
        Neighbor view; a charged API accrues the backward walk's query cost.
    design:
        Transit design of the *forward* walk being estimated.
    node:
        The node whose sampling probability is estimated.
    start:
        The forward walk's starting node ``w``.
    t:
        Forward walk length.
    crawl:
        Optional exact-probability table; when provided the recursion stops
        at depth ``crawl.hops`` and reads the exact value (variance
        reduction #1, §5.2).
    max_depth:
        Internal recursion guard; defaults to ``t``.

    Returns
    -------
    float
        A single non-negative realization with expectation ``p_t(node)``.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    rng = ensure_rng(seed)
    return _backward(view, design, node, start, t, rng, crawl)


def _backward(
    view: NeighborView,
    design: TransitionDesign,
    node: Node,
    start: Node,
    t: int,
    rng: np.random.Generator,
    crawl: Optional[InitialCrawl],
) -> float:
    # Iterative form of the recursion: accumulate the product weight while
    # walking backward, so deep walks cannot hit Python's recursion limit.
    weight = 1.0
    current = node
    depth = t
    while True:
        if crawl is not None and crawl.covers_step(depth):
            return weight * crawl.probability(current, depth)
        if depth == 0:
            return weight if current == start else 0.0
        candidates = backward_candidates(view, design, current)
        predecessor = candidates[int(rng.integers(0, len(candidates)))]
        transition = design.transition_probability(view, predecessor, current)
        weight *= len(candidates) * transition
        if weight == 0.0:
            # The sampled predecessor cannot actually reach `current`
            # (e.g. a no-self-loop candidate); the realization is 0.
            return 0.0
        current = predecessor
        depth -= 1


# ----------------------------------------------------------------------
# Vectorized batch estimation (CSR backend)
# ----------------------------------------------------------------------
def _transition_probabilities_batch(
    csr: CSRGraph,
    design: BatchDesign,
    sources: np.ndarray,
    destinations: np.ndarray,
) -> np.ndarray:
    """``T(source, destination)`` for aligned position arrays.

    Called once per backward candidate table, over every slot of it:
    (source, destination) pairs that are graph edges or self-loops, so
    neighbor-set membership needs no checking, and never with an isolated
    destination (its 0/0 prices would warn and are never read).
    Pure-self-loop pairs only reach a table whose design ``may_self_loop``;
    each lazy layer, innermost first, scales the law by 1 − λ and adds λ
    on the diagonal.  A max-degree source over the declared bound is
    priced here without complaint; the step loop raises when a walk
    draws it.
    """
    loops = sources == destinations
    if design.code == SRW:
        probabilities = 1.0 / csr.degrees[sources].astype(np.float64)
        if design.laziness:
            # The lazy layers' self slots; SRW's own (u, u) entry is 0.
            probabilities[loops] = 0.0
    elif design.code == MHRW:
        ds = csr.degrees[sources].astype(np.float64)
        dd = csr.degrees[destinations].astype(np.float64)
        probabilities = np.minimum(1.0, ds / dd) / ds
        if np.any(loops):
            probabilities[loops] = csr.mhrw_selfloop_mass()[sources[loops]]
    else:
        degrees = csr.degrees[sources[loops]].astype(np.float64)
        probabilities = np.full(sources.size, 1.0 / design.max_degree)
        probabilities[loops] = 1.0 - degrees / design.max_degree
    for laziness in reversed(design.laziness):
        probabilities = (1.0 - laziness) * probabilities
        probabilities[loops] += laziness
    return probabilities


class _BackwardTable(NamedTuple):
    """Every candidate set ``C(u)`` of one graph under one design, flat.

    ``indices[indptr[u]:indptr[u + 1]]`` is ``C(u)``: ``N(u)`` in CSR
    order, then ``u`` itself when the design may self-loop (loop-free
    designs alias the graph's own ``indptr`` / ``indices``).  ``factors``
    holds ``|C(u)| · T(x, u)`` for each slot's ``x``.  ``rows[u]`` is
    ``(indptr[u], |C(u)|)``, so a level reads both for every walk in one
    take.  An isolated node's row is never drawn from: no edge leads to
    it, so a walk is there only at its first level, with weight 1, and
    the stuck check raises first.
    """

    indptr: np.ndarray
    indices: np.ndarray
    factors: np.ndarray
    rows: np.ndarray
    has_isolated: bool


def _build_backward_table(csr: CSRGraph, design: BatchDesign) -> _BackwardTable:
    n = csr.number_of_nodes()
    degrees = csr.degrees
    if design.may_self_loop:
        counts = degrees + 1
        indptr = csr.indptr + np.arange(n + 1)
        indices = np.insert(csr.indices, csr.indptr[1:], np.arange(n))
    else:
        counts, indptr, indices = degrees, csr.indptr, csr.indices
    rows = np.repeat(np.arange(n), counts)
    has_isolated = bool(np.any(degrees == 0))
    # Only an isolated node's self slot sits in a zero-degree row; pricing
    # it would divide 0 by 0, so it keeps a factor of 0 that is never read.
    live = np.repeat(degrees > 0, counts) if has_isolated else slice(None)
    factors = np.zeros(indices.size, dtype=np.float64)
    factors[live] = counts[rows[live]] * _transition_probabilities_batch(
        csr, design, indices[live], rows[live]
    )
    starts_and_counts = np.stack((indptr[:-1], counts), axis=1)
    return _BackwardTable(indptr, indices, factors, starts_and_counts, has_isolated)


def _backward_table(csr: CSRGraph, design: BatchDesign) -> _BackwardTable:
    """*csr*'s table for *design*, built on first use and memoized on *csr*."""
    table = csr._backward_tables.get(design)
    if table is None:
        table = csr._backward_tables[design] = _build_backward_table(csr, design)
    return table


def unbiased_estimate_batch(
    graph: Union[Graph, CSRGraph],
    design: TransitionDesign,
    nodes,
    start,
    t: int,
    seed: RngLike = None,
    repetitions: int = 1,
) -> np.ndarray:
    """Mean of *repetitions* unbiased realizations of ``p_t(·)`` per node.

    The vectorized twin of :func:`unbiased_estimate`: all
    ``len(nodes) × repetitions`` backward walks advance together, one
    predecessor draw per depth level, read from the graph's backward
    candidate table (built on first use, then memoized on the graph).
    Each walk that ends at its start then multiplies its levels'
    factors in level order, as the scalar walk does.  It runs over a
    free in-memory :class:`CSRGraph` — per-query cost accounting (and
    hence the crawl-table shortcut) stays on the scalar path, which is
    the one WALK-ESTIMATE uses against a charged API.  So does a design
    :func:`~repro.walks.kernels.compile_design` does not match, a
    subclass of a batch design included: it is refused before any draw.

    *start* is either one node — all walks share the forward origin, the
    many-short-runs shape — or an array aligned with *nodes* giving each
    backward walk its own origin, which is what the long-run batch front
    end needs (every segment's endpoint is estimated against that
    segment's entry node).

    Returns an array of shape ``(len(nodes),)`` whose entries have
    expectation ``p_t(node)`` — the probability a *t*-step forward walk
    from each node's start ends at that node.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    compiled = compile_design(design)
    if compiled is None:
        raise ConfigurationError(
            f"design {design.name!r} has no vectorized transition probability; "
            "use the scalar unbiased_estimate"
        )
    csr = graph.compile() if isinstance(graph, Graph) else graph
    rng = ensure_rng(seed)
    targets = csr.positions_of(nodes)
    if targets.ndim != 1:
        raise ConfigurationError(f"nodes must be 1-d, got shape {targets.shape}")
    starts = np.asarray(start, dtype=np.int64)
    if starts.ndim == 0:
        start_position = csr.position_of(int(starts))
    elif starts.ndim == 1 and starts.size == targets.size:
        start_position = np.tile(csr.positions_of(starts), repetitions)
    else:
        raise ConfigurationError(
            f"start must be one node or an array aligned with nodes; got "
            f"shape {starts.shape} for {targets.size} nodes"
        )
    current = np.tile(targets, repetitions)
    # Depth 0 prices no transition, so it needs no table.
    table = _backward_table(csr, compiled) if t else None
    if table is not None and table.has_isolated:
        # No edge leads to an isolated node, so a walk can only be on one
        # at its first level; check the targets before any draw.
        stuck = csr.degrees[targets] == 0
        if np.any(stuck):
            node = int(csr.ids_of(targets[stuck][:1])[0])
            raise GraphError(f"backward walk stuck: node {node} has no neighbors")
    # Every walk draws at every level, also one whose weight is already
    # zero: skipping it would change the generator's stream.
    slots = np.empty((t, current.size), dtype=np.int64)
    for level in slots:
        row = np.take(table.rows, current, axis=0)
        # The draw reads its bounds several times; one copy makes them
        # contiguous.
        np.add(row[:, 0], bounded_integers(rng, row[:, 1].copy()), out=level)
        current = np.take(table.indices, level)
        if compiled.code == MAXDEG:
            # The table prices over-bound nodes without checking.
            check_max_degree(csr, compiled, current, csr.degrees[current])
    # Only a walk that ended at its start is worth its weight; the rest
    # are worth 0.  A hit's factors multiply level by level, in the order
    # the scalar walk takes them, so its realization is the same float.
    hits = np.flatnonzero(current == start_position)
    weights = np.ones(hits.size, dtype=np.float64)
    for level in slots[:, hits]:
        weights *= table.factors[level]
    realizations = np.zeros(current.size, dtype=np.float64)
    realizations[hits] = weights
    return realizations.reshape(repetitions, targets.size).mean(axis=0)
