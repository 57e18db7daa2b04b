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
Designs whose step law cannot be expressed as a fixed per-step array
recipe (e.g. the restriction-aware
:class:`~repro.walks.transitions.BidirectionalWalk`, whose mutual-edge
check is a per-candidate query) stay on the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError, GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.rng import RngLike, bounded_integers, ensure_rng
from repro.walks.kernels import require_backend
from repro.walks.transitions import (
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
    TransitionDesign,
)

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


def _srw_step(
    csr: CSRGraph,
    design: TransitionDesign,
    current: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One vectorized SRW step: uniform neighbor per walk."""
    deg = csr.degrees[current]
    _require_alive(deg, current, csr)
    idx = bounded_integers(rng, deg)
    return csr.indices[csr.indptr[current] + idx]


def _mhrw_step(
    csr: CSRGraph,
    design: TransitionDesign,
    current: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One vectorized MHRW step: uniform proposal, degree-ratio acceptance.

    The uniform acceptance draw happens only for walks whose proposal has
    strictly higher degree — the same conditional consumption as the
    scalar design, which is what keeps k=1 seed parity exact.
    """
    du = csr.degrees[current]
    _require_alive(du, current, csr)
    idx = bounded_integers(rng, du)
    proposal = csr.indices[csr.indptr[current] + idx]
    dv = csr.degrees[proposal]
    contested = dv > du
    if not contested.any():
        return proposal
    accept = np.ones(current.size, dtype=bool)
    coins = rng.random(int(contested.sum()))
    accept[contested] = coins < du[contested] / dv[contested]
    return np.where(accept, proposal, current)


def _lazy_step(
    csr: CSRGraph,
    design: LazyWalk,
    current: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One vectorized lazy step: laziness coin, inner kernel for the movers.

    The inner kernel runs only on the sub-batch whose coin said "move", so
    per walk the stream sees one uniform plus — conditionally — the inner
    design's draws, exactly the scalar ``LazyWalk.step`` order.  Walks that
    stay put this step never touch their neighbor row, so (like the scalar
    twin) a lazily-parked walk on an isolated node only fails when it
    actually tries to move.
    """
    inner_kernel = _KERNELS[type(design.inner)]
    coins = rng.random(current.size)
    moving = coins >= design.laziness
    if moving.all():
        return inner_kernel(csr, design.inner, current, rng)
    nxt = current.copy()
    if moving.any():
        nxt[moving] = inner_kernel(csr, design.inner, current[moving], rng)
    return nxt


def check_max_degree(
    csr: CSRGraph,
    design: MaxDegreeWalk,
    positions: np.ndarray,
    degrees: np.ndarray,
) -> None:
    """Raise if any position's degree exceeds the design's declared bound.

    The vectorized twin of ``MaxDegreeWalk._check_degree`` — one message,
    shared by the step kernel and the batch backward estimator.
    """
    over = degrees > design.max_degree
    if np.any(over):
        raise ConfigurationError(
            f"node {int(csr.ids_of(positions[over][:1])[0])} has degree "
            f"{int(degrees[over][0])} > declared max_degree {design.max_degree}"
        )


def _maxdeg_step(
    csr: CSRGraph,
    design: MaxDegreeWalk,
    current: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One vectorized max-degree step: virtual-degree coin, masked move.

    Every node behaves as if padded with self-loops up to ``max_degree``:
    the walk moves with probability ``d(u)/d_max`` (one uniform per walk)
    and draws the uniform neighbor index only for the movers — the scalar
    design's exact conditional stream.
    """
    deg = csr.degrees[current]
    _require_alive(deg, current, csr)
    check_max_degree(csr, design, current, deg)
    coins = rng.random(current.size)
    moving = coins < design.move_probability(deg)
    if moving.all():
        idx = bounded_integers(rng, deg)
        return csr.indices[csr.indptr[current] + idx]
    nxt = current.copy()
    if moving.any():
        idx = bounded_integers(rng, deg[moving])
        nxt[moving] = csr.indices[csr.indptr[current[moving]] + idx]
    return nxt


_KERNELS = {
    SimpleRandomWalk: _srw_step,
    MetropolisHastingsWalk: _mhrw_step,
    LazyWalk: _lazy_step,
    MaxDegreeWalk: _maxdeg_step,
}


def _resolve_kernel(design: TransitionDesign):
    """The step kernel for *design*, or ``None`` if it has no batch form.

    A :class:`LazyWalk` is only batchable when its inner design is — the
    lazy kernel delegates the moving sub-batch to the inner kernel, however
    deeply the wrappers nest.
    """
    kernel = _KERNELS.get(type(design))
    if kernel is None:
        return None
    if isinstance(design, LazyWalk) and _resolve_kernel(design.inner) is None:
        return None
    return kernel


def has_batch_kernel(design: TransitionDesign) -> bool:
    """True if *design* has a vectorized step kernel."""
    return _resolve_kernel(design) is not None


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
        A design with a batch kernel (SRW, MHRW, MaxDegreeWalk, or a
        LazyWalk over any of these; see :func:`has_batch_kernel`).
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
    if _resolve_kernel(design) is None:
        raise ConfigurationError(
            f"design {design.name!r} has no batch kernel; use the scalar "
            "walker (run_walk) or one of: "
            + ", ".join(sorted(cls.name for cls in _KERNELS))
        )
    executor = require_backend(backend)
    csr = as_csr(graph)
    rng = ensure_rng(seed)
    current = _start_positions(csr, starts)
    paths = executor.run_walks(csr, design, current, steps, rng)
    if not csr.contiguous:
        paths = csr.node_ids[paths]
    return BatchWalkResult(paths=paths)


def _rows_searchsorted(
    csr: CSRGraph, rows: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Per-row ``searchsorted``: position of ``values[i]`` in row ``rows[i]``.

    A vectorized binary search over the ragged CSR rows — O(log d_max)
    array passes instead of a Python loop over walks.
    """
    lo = np.zeros(rows.size, dtype=np.int64)
    hi = csr.degrees[rows].copy()
    start = csr.indptr[rows]
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) >> 1
        less = np.zeros(rows.size, dtype=bool)
        less[active] = csr.indices[start[active] + mid[active]] < values[active]
        lo = np.where(active & less, mid + 1, lo)
        hi = np.where(active & ~less, mid, hi)


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
    batch engine supports: degree for SRW, 1 for the uniform-target designs
    (MHRW, MaxDegreeWalk); a LazyWalk inherits its inner design's target —
    laziness rescales the transition law without moving the stationary
    distribution.
    """
    if isinstance(design, LazyWalk):
        return target_weights_batch(graph, design.inner, nodes)
    csr = as_csr(graph)
    positions = csr.positions_of(nodes)
    if isinstance(design, SimpleRandomWalk):
        return csr.degrees[positions].astype(np.float64)
    if design.uniform_target():
        return np.ones(positions.size, dtype=np.float64)
    raise ConfigurationError(f"design {design.name!r} has no vectorized target weight")


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
