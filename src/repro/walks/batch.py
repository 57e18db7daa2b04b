"""Vectorized batch-walk engine: K independent walks per array operation.

The scalar walker (:mod:`repro.walks.walker`) advances one walk at a time
through Python-level neighbor tuples — the right shape for the charged
:class:`~repro.osn.api.SocialNetworkAPI`, where each step's query cost must
be accounted node by node, but interpreter-bound when the graph is free and
in memory.  This module advances **K walks per step** over a frozen
:class:`~repro.graphs.csr.CSRGraph`: one bounded-integer draw, one gather,
and (for MHRW) one masked uniform draw move every walk simultaneously.

**Seed-stable parity.**  Each kernel consumes the :mod:`repro.rng` stream
*exactly* as its scalar twin does per step — the same draws, in the same
order, conditioned the same way (MHRW's acceptance uniform only when the
proposal has higher degree, LazyWalk's inner draws only when the laziness
coin says move, MaxDegreeWalk's neighbor index only when the virtual-degree
coin says move) — so with the same seed and ``k = 1`` the batch engine
reproduces the scalar trajectory node for node.  The parity tests in
``tests/walks/test_batch.py`` and ``tests/walks/test_batch_parity.py`` pin
this property, and ``tests/walks/test_batch_rng_regression.py`` pins the
exact draw order against committed golden trajectories; together they are
what makes the batch engine a drop-in replacement rather than a
statistical cousin.

**When to use which.**  Scalar ``run_walk`` + ``SocialNetworkAPI`` for
anything that models query cost; ``run_walk_batch`` over a compiled
``CSRGraph`` for throughput work — calibration sweeps, variance studies,
benchmarks, and the batch WALK-ESTIMATE front ends
(:func:`repro.core.walk_estimate.walk_estimate_batch`,
:func:`repro.core.long_run_we.long_run_walk_estimate_batch`).

Supported designs: :class:`~repro.walks.transitions.SimpleRandomWalk`,
:class:`~repro.walks.transitions.MetropolisHastingsWalk`,
:class:`~repro.walks.transitions.MaxDegreeWalk`,
:class:`~repro.walks.transitions.LazyWalk` around any supported inner
design, and the non-backtracking walk (:func:`run_nbrw_walk_batch`).
:func:`repro.walks.kernels.compile_design` decides which designs every
batch path runs, by exact type, and flattens each into the record the
step kernel branches on.  Designs whose step law cannot be expressed as
a fixed per-step array recipe (e.g. the restriction-aware
:class:`~repro.walks.transitions.BidirectionalWalk`, whose mutual-edge
check is a per-candidate query) stay on the scalar path, and so does a
subclass of a supported design, which may override any part of its law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError, GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.rng import RngLike, bounded_integers, ensure_rng
from repro.walks.kernels import (
    MAXDEG,
    MHRW,
    SRW,
    BatchDesign,
    compile_design,
    require_backend,
)
from repro.walks.transitions import MaxDegreeWalk, TransitionDesign

GraphLike = Union[Graph, CSRGraph]


@dataclass(frozen=True)
class BatchWalkResult:
    """Trajectories of K forward walks, as one ``(K, steps + 1)`` array.

    Attributes
    ----------
    paths:
        Original node ids; ``paths[i, 0]`` is walk *i*'s start and
        ``paths[i, t]`` its position after step ``t``.
    """

    paths: np.ndarray

    @property
    def k(self) -> int:
        """Number of walks in the batch."""
        return self.paths.shape[0]

    @property
    def steps(self) -> int:
        """Number of transitions each walk took."""
        return self.paths.shape[1] - 1

    @property
    def starts(self) -> np.ndarray:
        """Starting node of every walk, shape ``(K,)``."""
        return self.paths[:, 0]

    @property
    def ends(self) -> np.ndarray:
        """Final node of every walk — the batch's sample candidates."""
        return self.paths[:, -1]

    def positions_at(self, t: int) -> np.ndarray:
        """Node occupied by every walk after step *t* (0 = start)."""
        return self.paths[:, t]


def as_csr(graph: GraphLike) -> CSRGraph:
    """Coerce to :class:`CSRGraph`, compiling a mutable graph on the fly.

    Call sites that walk repeatedly should compile once and reuse — the
    one-off compile here is a convenience, not a free operation.
    """
    if isinstance(graph, CSRGraph):
        return graph
    if isinstance(graph, Graph):
        return graph.compile()
    raise ConfigurationError(
        f"batch walking needs a Graph or CSRGraph, got {type(graph).__name__}"
    )


def _start_positions(csr: CSRGraph, starts) -> np.ndarray:
    """Validate and map an array of starting node ids to CSR positions."""
    positions = csr.positions_of(starts)
    if positions.ndim != 1:
        raise ConfigurationError(
            f"starts must be 1-d, got shape {tuple(np.shape(starts))}"
        )
    return positions


def _require_alive(degrees: np.ndarray, current: np.ndarray, csr: CSRGraph) -> None:
    # ``all()`` short-circuits in C without materializing a comparison
    # array — this runs every step of every batch, so it is on the
    # narrow-batch critical path.
    if not degrees.all():
        stuck = int(csr.ids_of(current[degrees == 0][:1])[0])
        raise GraphError(f"random walk stuck: node {stuck} has no neighbors")


def check_max_degree(
    csr: CSRGraph,
    design: Union[MaxDegreeWalk, BatchDesign],
    positions: np.ndarray,
    degrees: np.ndarray,
) -> None:
    """Raise if any position's degree exceeds the design's declared bound.

    The vectorized twin of ``MaxDegreeWalk._check_degree`` — one message,
    shared by the step kernel and the batch backward estimator.  Takes a
    :class:`MaxDegreeWalk` or its compiled :class:`BatchDesign`.
    """
    over = degrees > design.max_degree
    if np.any(over):
        raise ConfigurationError(
            f"node {int(csr.ids_of(positions[over][:1])[0])} has degree "
            f"{int(degrees[over][0])} > declared max_degree {design.max_degree}"
        )


def _step(
    csr: CSRGraph,
    design: BatchDesign,
    current: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One vectorized step of every walk in *current*.

    Per walk the stream sees what the scalar ``step`` draws, in the same
    order and on the same conditions: one coin per lazy layer, outermost
    first, while the walk still moves; then the inner design's draws —
    SRW one neighbor index; MHRW a proposal index, then an acceptance
    uniform only where the proposal has strictly higher degree; the
    max-degree walk a virtual-degree coin, then a neighbor index only
    where the coin says move.  Each draw covers the sub-batch still
    moving at once, so a walk parked by a coin never touches its
    neighbor row: on an isolated node it only fails when it tries to move.
    """
    movers = None  # indices into current of the walks still moving; None: all
    sub = current
    for stay in design.laziness:
        keep = rng.random(sub.size) >= stay
        if not keep.all():
            movers = np.flatnonzero(keep) if movers is None else movers[keep]
            sub = current[movers]
    deg = csr.degrees[sub]
    _require_alive(deg, sub, csr)
    if design.code == MAXDEG:
        check_max_degree(csr, design, sub, deg)
        keep = rng.random(sub.size) < deg / design.max_degree
        if not keep.all():
            movers = np.flatnonzero(keep) if movers is None else movers[keep]
            sub, deg = current[movers], deg[keep]
    proposal = csr.indices[csr.indptr[sub] + bounded_integers(rng, deg)]
    if design.code == MHRW:
        dv = csr.degrees[proposal]
        contested = dv > deg
        if contested.any():
            accept = np.ones(sub.size, dtype=bool)
            coins = rng.random(int(contested.sum()))
            accept[contested] = coins < deg[contested] / dv[contested]
            proposal = np.where(accept, proposal, sub)
    if movers is None:
        return proposal
    nxt = current.copy()
    nxt[movers] = proposal
    return nxt


def has_batch_kernel(design: TransitionDesign) -> bool:
    """True if the batch engines run *design* (see ``compile_design``)."""
    return compile_design(design) is not None


def run_walk_batch(
    graph: GraphLike,
    design: TransitionDesign,
    starts,
    steps: int,
    seed: RngLike = None,
    backend: Optional[str] = None,
) -> BatchWalkResult:
    """Run ``len(starts)`` independent *steps*-step walks simultaneously.

    Parameters
    ----------
    graph:
        A :class:`CSRGraph` (preferred) or a :class:`Graph`, compiled on
        the fly.
    design:
        A design the batch engines run (SRW, MHRW, MaxDegreeWalk, or a
        LazyWalk over any of these, by exact type; see
        :func:`has_batch_kernel`).
    starts:
        Array-like of starting node ids, one per walk; repeat a node to
        launch many walks from it (``np.full(k, start)``).
    steps:
        Transitions per walk; 0 returns the starts unchanged.
    backend:
        Kernel backend executing the trajectory loop — ``numpy``,
        ``native`` or ``python`` (see :mod:`repro.walks.kernels`); ``None``
        means ``numpy``.  Every backend consumes the seed stream
        identically, so this changes throughput, never trajectories.

    Returns
    -------
    BatchWalkResult
        All K trajectories; ``result.ends`` are the sample candidates.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    compiled = compile_design(design)
    if compiled is None:
        raise ConfigurationError(
            f"design {design.name!r} has no batch kernel; use the scalar "
            "walker (run_walk) or one of: lazy, maxdeg, mhrw, srw"
        )
    executor = require_backend(backend)
    csr = as_csr(graph)
    rng = ensure_rng(seed)
    current = _start_positions(csr, starts)
    paths = executor.run_walks(csr, compiled, current, steps, rng)
    if not csr.contiguous:
        paths = csr.node_ids[paths]
    return BatchWalkResult(paths=paths)


def run_nbrw_walk_batch(
    graph: GraphLike,
    starts,
    steps: int,
    seed: RngLike = None,
    backend: Optional[str] = None,
) -> BatchWalkResult:
    """K simultaneous non-backtracking walks (vectorized
    :func:`repro.walks.nonbacktracking.run_nbrw_walk`).

    Per step each walk draws uniformly among its current node's neighbors
    minus the one it arrived from (degree-1 nodes may backtrack — the only
    legal move).  The excluded neighbor's slot is skipped by index
    arithmetic over the sorted row, so the draw consumes exactly one
    bounded integer per walk, matching the scalar walker's stream.
    ``backend`` selects the trajectory executor as in
    :func:`run_walk_batch`.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    executor = require_backend(backend)
    csr = as_csr(graph)
    rng = ensure_rng(seed)
    current = _start_positions(csr, starts)
    paths = executor.run_nbrw(csr, current, steps, rng)
    if not csr.contiguous:
        paths = csr.node_ids[paths]
    return BatchWalkResult(paths=paths)


def target_weights_batch(
    graph: GraphLike, design: TransitionDesign, nodes
) -> np.ndarray:
    """Unnormalized stationary weights ``q̃(v)`` for an array of nodes.

    Vectorized counterpart of ``design.target_weight`` for the designs the
    batch engine runs: degree for SRW, 1 for the uniform-target designs
    (MHRW, MaxDegreeWalk); a LazyWalk inherits its inner design's target —
    laziness rescales the transition law without moving the stationary
    distribution.  A subclass, which may weigh its targets otherwise, is
    refused like every design ``compile_design`` does not match.
    """
    compiled = compile_design(design)
    if compiled is None:
        raise ConfigurationError(
            f"design {design.name!r} has no vectorized target weight"
        )
    csr = as_csr(graph)
    positions = csr.positions_of(nodes)
    if compiled.code == SRW:
        return csr.degrees[positions].astype(np.float64)
    return np.ones(positions.size, dtype=np.float64)


def walk_attribute_matrix(
    graph: GraphLike, result: BatchWalkResult, attribute: str | None = None
) -> np.ndarray:
    """Per-step attribute values for every walk, shape ``(K, steps + 1)``.

    The batch twin of
    :func:`repro.walks.walker.walk_attribute_series`; ``attribute=None``
    reads degrees.  One gather replaces K × (steps + 1) Python lookups.
    """
    csr = as_csr(graph)
    positions = csr.positions_of(result.paths.ravel())
    if attribute is None:
        values = csr.degrees.astype(np.float64)[positions]
    else:
        values = csr.attribute_array(attribute)[positions]
    return values.reshape(result.paths.shape)
