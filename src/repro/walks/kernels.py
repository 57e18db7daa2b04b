"""Pluggable kernel backends for the batch-walk hot loop.

The NumPy batch engine (:mod:`repro.walks.batch`) advances K walks per
array operation, but still pays Python-level dispatch *per step*: every
transition re-enters the interpreter, re-slices ``degrees``/``indptr``,
and re-branches on the design.  That overhead is what left the K=1 batch
path ~3x behind the scalar engine and caps wide-batch throughput well
below memory bandwidth (ROADMAP open item 2).

This module makes the step executor pluggable:

* ``numpy`` — the reference backend.  Delegates to the per-step kernel
  in :mod:`repro.walks.batch`; always available; the semantics other
  backends are pinned against.
* ``native`` — a Numba ``@njit`` backend that compiles the **whole
  trajectory loop** (CSR neighbor lookup, transition draw, accept/
  reject, laziness chain, path writeback) into one nopython function
  with zero per-step Python dispatch.  Import-gated: without ``numba``
  (``pip install "walk-not-wait-repro[native]"``) the backend reports
  itself unavailable, and selecting it raises.
* ``python`` — the native trajectory loop executed *without* the JIT.
  Orders of magnitude slower than both others; it exists so the native
  loop's arithmetic and draw order stay verifiable bit for bit on hosts
  without numba (the parity suites run it unconditionally).

**Seed-stable parity across backends.**  Numba ≥ 0.57 implements
``np.random.Generator`` (PCG64) inside nopython code with bit-identical
streams, and NumPy's array draws consume the underlying bit stream
exactly as the equivalent sequence of scalar draws (``rng.integers(0,
high_array)`` ≡ one scalar bounded draw per element, in order;
``rng.random(n)`` ≡ n scalar uniforms).  A wide ``numpy`` batch draws
its bounded integers through :func:`repro.rng.bounded_integers`, which
takes the same 32-bit values as one block and applies NumPy's
per-element rejection rule to them as array arithmetic: the same bits,
in the same order.  The trajectory kernels below
therefore draw **phase-major within each step** — all laziness coins,
then the liveness/degree checks, then all proposal indices, then the
conditional acceptance coins — which is precisely the order the NumPy
kernels consume the stream in.  With the same seed every backend
produces the same trajectories *and* leaves the generator in the same
state, so calibration/main-round sequences that share one generator stay
reproducible when the backend changes.  The golden RNG fixtures
(``tests/walks/test_batch_rng_regression.py``) and the cross-backend
hypothesis suite (``tests/walks/test_kernel_backends.py``) pin this.

Backend selection: ``run_walk_batch(..., backend=...)`` per call, and
``WalkEstimateConfig(kernel_backend=...)`` for the WALK-ESTIMATE front
ends and every :func:`repro.core.estimate` job, the service's included.
``None`` means ``numpy``.  The three backends form a fixed table.  A
backend this host cannot run (``native`` without numba) raises an
actionable :class:`~repro.errors.ConfigurationError` wherever it is
selected, so no result is ever labeled with a backend that did not run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.arrays import rows_searchsorted
from repro.errors import ConfigurationError, GraphError
from repro.graphs.csr import CSRGraph
from repro.rng import bounded_integers
from repro.walks.transitions import (
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
    TransitionDesign,
)

try:  # pragma: no cover - exercised only where numba is installed
    import numba
except ImportError:  # pragma: no cover - the default CI matrix
    numba = None

#: How to get the JIT backend; quoted by every unavailability message.
NATIVE_INSTALL_HINT = 'pip install "walk-not-wait-repro[native]" (numba>=0.57)'

#: Inner-design codes of a :class:`BatchDesign`.
SRW, MHRW, MAXDEG = 0, 1, 2

_CODES = {SimpleRandomWalk: SRW, MetropolisHastingsWalk: MHRW, MaxDegreeWalk: MAXDEG}

# Kernel exit codes; the wrapper converts them back into the byte-exact
# errors the NumPy kernels raise.
_OK, _ERR_STUCK, _ERR_OVER_DEGREE = 0, 1, 2


class BatchDesign(NamedTuple):
    """A transition design as the batch engines run it.

    Built by :func:`compile_design`.  The NumPy step function, the
    trajectory loops, the backward candidate table (memoized under this
    record), the charged WS-BW pricing and the target weights all branch
    on it.
    """

    #: The innermost design: :data:`SRW`, :data:`MHRW` or :data:`MAXDEG`.
    code: int
    #: Each enclosing :class:`LazyWalk`'s stay probability, outermost first.
    laziness: Tuple[float, ...]
    #: The :class:`MaxDegreeWalk` bound as declared; 0 for the other codes.
    max_degree: int
    #: Whether ``T(u, u)`` can be positive: any laziness, MHRW or max-degree.
    may_self_loop: bool


def compile_design(design: TransitionDesign) -> Optional[BatchDesign]:
    """*design* as the batch engines run it, or ``None`` if they cannot.

    The one place that decides which designs the batch paths run.  It
    matches exact types: :class:`SimpleRandomWalk`,
    :class:`MetropolisHastingsWalk` and :class:`MaxDegreeWalk`, each
    under any chain of :class:`LazyWalk`.  A subclass may override any
    part of its parent's law, so every batch path refuses it rather than
    price it as the parent.  The ``charged`` engine walks node by node
    and never asks: it runs any design, a subclass and
    :class:`~repro.walks.transitions.BidirectionalWalk` included.
    """
    chain: List[float] = []
    while type(design) is LazyWalk:
        chain.append(float(design.laziness))
        design = design.inner
    code = _CODES.get(type(design))
    if code is None:
        return None
    max_degree = design.max_degree if code == MAXDEG else 0
    return BatchDesign(code, tuple(chain), max_degree, bool(chain) or code != SRW)


# ----------------------------------------------------------------------
# Trajectory kernels: nopython-compatible bodies, shared verbatim by the
# ``python`` backend (as-is) and the ``native`` backend (njit-wrapped).
# ----------------------------------------------------------------------
def _walk_trajectory(
    indptr, indices, degrees, starts, steps, code, laziness, max_degree, rng
):
    """All K trajectories of a (possibly lazy) SRW/MHRW/MaxDeg walk.

    Phase-major within each step, walker-major within each phase — the
    exact stream order of the NumPy step kernels.  Returns ``(paths,
    err, err_node, err_degree)``; on error the paths array is partial
    and the caller raises without reading it.
    """
    k = starts.shape[0]
    paths = np.empty((k, steps + 1), dtype=np.int64)
    current = starts.copy()
    proposal = np.empty(k, dtype=np.int64)
    moving = np.empty(k, dtype=np.bool_)
    for i in range(k):
        paths[i, 0] = current[i]
    for t in range(steps):
        for i in range(k):
            moving[i] = True
        # Laziness chain: one coin per still-moving walker per layer,
        # outermost layer first (LazyWalk.step's order, per walker).
        for layer in range(laziness.shape[0]):
            stay = laziness[layer]
            for i in range(k):
                if moving[i] and rng.random() < stay:
                    moving[i] = False
        # Liveness pass over the movers, before any inner draw: a
        # lazily-parked walk on an isolated node survives until it
        # first tries to move.
        for i in range(k):
            if moving[i] and degrees[current[i]] == 0:
                return paths, _ERR_STUCK, current[i], np.int64(0)
        if code == MAXDEG:
            for i in range(k):
                if moving[i] and degrees[current[i]] > max_degree:
                    node = current[i]
                    return paths, _ERR_OVER_DEGREE, node, degrees[node]
            # Virtual-degree coin for every mover, then the neighbor
            # index only for those whose coin said move.
            for i in range(k):
                if moving[i]:
                    d = degrees[current[i]]
                    if not (rng.random() < d / max_degree):
                        moving[i] = False
            for i in range(k):
                if moving[i]:
                    j = rng.integers(0, degrees[current[i]])
                    current[i] = indices[indptr[current[i]] + j]
        elif code == MHRW:
            # Proposal phase for every mover, then the acceptance coin
            # only where the proposal has strictly higher degree.
            for i in range(k):
                if moving[i]:
                    j = rng.integers(0, degrees[current[i]])
                    proposal[i] = indices[indptr[current[i]] + j]
            for i in range(k):
                if moving[i]:
                    du = degrees[current[i]]
                    dv = degrees[proposal[i]]
                    if dv <= du or rng.random() < du / dv:
                        current[i] = proposal[i]
        else:
            for i in range(k):
                if moving[i]:
                    j = rng.integers(0, degrees[current[i]])
                    current[i] = indices[indptr[current[i]] + j]
        for i in range(k):
            paths[i, t + 1] = current[i]
    return paths, _OK, np.int64(0), np.int64(0)


def _nbrw_trajectory(indptr, indices, degrees, starts, steps, rng):
    """All K non-backtracking trajectories; same contract as above.

    One bounded draw per walker per step over ``degree - 1`` effective
    slots (degree-1 nodes may backtrack), with the arrival edge skipped
    by a binary search over the sorted row — the compiled twin of
    :func:`repro.arrays.rows_searchsorted`.
    """
    k = starts.shape[0]
    paths = np.empty((k, steps + 1), dtype=np.int64)
    current = starts.copy()
    previous = np.full(k, -1, dtype=np.int64)
    for i in range(k):
        paths[i, 0] = current[i]
    for t in range(steps):
        for i in range(k):
            if degrees[current[i]] == 0:
                return paths, _ERR_STUCK, current[i], np.int64(0)
        for i in range(k):
            d = degrees[current[i]]
            excluded = previous[i] >= 0 and d > 1
            j = rng.integers(0, d - 1 if excluded else d)
            if excluded:
                base = indptr[current[i]]
                lo = np.int64(0)
                hi = d
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if indices[base + mid] < previous[i]:
                        lo = mid + 1
                    else:
                        hi = mid
                if j >= lo:
                    j += 1
            previous[i] = current[i]
            current[i] = indices[indptr[current[i]] + j]
            paths[i, t + 1] = current[i]
    return paths, _OK, np.int64(0), np.int64(0)


_TRAJECTORY_BODIES: Dict[str, Callable] = {
    "walk": _walk_trajectory,
    "nbrw": _nbrw_trajectory,
}

# Dispatcher builds (njit wraps, or plain-Python runner adoptions) since
# process start.  ShardedWalkEngine workers probe this across rounds to
# prove that a persistent pool compiles once and then only reuses.
_COMPILE_EVENTS = 0


def compilation_events() -> int:
    """Dispatcher builds in this process (diagnostics / amortization tests)."""
    return _COMPILE_EVENTS


def _shard_compilation_events(csr: CSRGraph) -> int:
    """``map_shards`` probe: dispatcher builds inside this worker."""
    return compilation_events()


def _raise_kernel_error(
    csr: CSRGraph, err: int, node: int, degree: int, max_degree: int
):
    """Convert a kernel exit code into the NumPy backend's exact error."""
    original = int(csr.ids_of(np.asarray([node], dtype=np.int64))[0])
    if err == _ERR_STUCK:
        raise GraphError(f"random walk stuck: node {original} has no neighbors")
    raise ConfigurationError(
        f"node {original} has degree {int(degree)} > declared "
        f"max_degree {max_degree}"
    )


class KernelBackend:
    """One way of executing the batch-walk trajectory loop.

    Subclasses implement :meth:`run_walks` / :meth:`run_nbrw` over CSR
    *positions* (the id round-trip stays in :mod:`repro.walks.batch`),
    the former for a design :func:`compile_design` flattened, and must
    consume the generator stream exactly as the ``numpy`` reference does.
    """

    name: str = "abstract"
    jit: bool = False

    @property
    def available(self) -> bool:
        """Whether this backend can execute on this host."""
        return True

    def run_walks(
        self,
        csr: CSRGraph,
        design: BatchDesign,
        starts: np.ndarray,
        steps: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All K trajectories as a ``(K, steps + 1)`` position array."""
        raise NotImplementedError

    def run_nbrw(
        self,
        csr: CSRGraph,
        starts: np.ndarray,
        steps: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Non-backtracking twin of :meth:`run_walks`."""
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """One capability-report row for this backend."""
        return {
            "available": self.available,
            "jit": self.jit,
            "designs": ["srw", "mhrw", "maxdeg", "lazy-*", "nbrw"],
        }


class NumpyKernelBackend(KernelBackend):
    """The reference backend: per-step vectorized NumPy kernels."""

    name = "numpy"
    jit = False

    def run_walks(self, csr, design, starts, steps, rng):
        from repro.walks import batch

        current = starts
        paths = np.empty((current.size, steps + 1), dtype=np.int64)
        paths[:, 0] = current
        for t in range(steps):
            current = batch._step(csr, design, current, rng)
            paths[:, t + 1] = current
        return paths

    def run_nbrw(self, csr, starts, steps, rng):
        from repro.walks import batch

        current = starts
        paths = np.empty((current.size, steps + 1), dtype=np.int64)
        paths[:, 0] = current
        previous = np.full(current.size, -1, dtype=np.int64)
        for t in range(steps):
            deg = csr.degrees[current]
            batch._require_alive(deg, current, csr)
            excluded = (previous >= 0) & (deg > 1)
            effective = deg - excluded
            idx = bounded_integers(rng, effective)
            if excluded.any():
                rows = current[excluded]
                slot = rows_searchsorted(
                    csr.indices, csr.indptr[rows], deg[excluded], previous[excluded]
                )
                idx[excluded] += idx[excluded] >= slot
            nxt = csr.indices[csr.indptr[current] + idx]
            previous, current = current, nxt
            paths[:, t + 1] = current
        return paths

    def describe(self) -> Dict[str, object]:
        row = super().describe()
        row["note"] = "reference implementation; per-step vectorized kernels"
        return row


class TrajectoryLoopBackend(KernelBackend):
    """The whole-trajectory loop, JIT-compiled (``native``) or not (``python``).

    Both flavors share the kernel bodies above; the only difference is
    whether :mod:`numba` wraps them.  Dispatchers are built once per
    kernel kind and memoized on the instance — a persistent worker
    process (``ShardedWalkEngine``) therefore compiles on its first
    round and only reuses afterwards; ``cache=True`` additionally
    persists the machine code across processes.
    """

    def __init__(self, name: str, jit: bool) -> None:
        self.name = name
        self.jit = jit
        self._dispatchers: Dict[str, Callable] = {}

    @property
    def available(self) -> bool:
        return (not self.jit) or numba is not None

    def _dispatcher(self, kind: str) -> Callable:
        fn = self._dispatchers.get(kind)
        if fn is None:
            global _COMPILE_EVENTS
            body = _TRAJECTORY_BODIES[kind]
            if self.jit:
                if numba is None:  # pragma: no cover - require_backend gates
                    raise ConfigurationError(
                        f"kernel backend 'native' needs numba; {NATIVE_INSTALL_HINT}"
                    )
                fn = numba.njit(cache=True, nogil=True)(body)
            else:
                fn = body
            _COMPILE_EVENTS += 1
            self._dispatchers[kind] = fn
        return fn

    def run_walks(self, csr, design, starts, steps, rng):
        paths, err, node, degree = self._dispatcher("walk")(
            csr.indptr,
            csr.indices,
            csr.degrees,
            starts,
            steps,
            design.code,
            np.asarray(design.laziness, dtype=np.float64),
            design.max_degree,
            rng,
        )
        if err != _OK:
            _raise_kernel_error(csr, err, int(node), int(degree), design.max_degree)
        return paths

    def run_nbrw(self, csr, starts, steps, rng):
        paths, err, node, degree = self._dispatcher("nbrw")(
            csr.indptr, csr.indices, csr.degrees, starts, steps, rng
        )
        if err != _OK:
            _raise_kernel_error(csr, err, int(node), int(degree), 0)
        return paths

    def describe(self) -> Dict[str, object]:
        row = super().describe()
        if self.jit:
            row["requires"] = NATIVE_INSTALL_HINT
            row["numba"] = getattr(numba, "__version__", None)
            row["note"] = "whole-trajectory nopython loop; zero per-step dispatch"
        else:
            row["note"] = (
                "native loop without the JIT — verification only, very slow"
            )
        return row


# ----------------------------------------------------------------------
# The backend table
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, KernelBackend] = {
    "numpy": NumpyKernelBackend(),
    "native": TrajectoryLoopBackend("native", jit=True),
    "python": TrajectoryLoopBackend("python", jit=False),
}


def backend_names() -> Tuple[str, ...]:
    """All backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> KernelBackend:
    """The backend called *name* (available or not)."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; valid: " + ", ".join(backend_names())
        ) from None


def require_backend(name: Optional[str] = None) -> KernelBackend:
    """The backend called *name*; raise unless it exists **and** is available.

    ``None`` means ``numpy``.  Every selection path (the batch front
    ends, :class:`~repro.core.dispatch.EstimationJobSpec`, the pool)
    resolves through here, so an unavailable backend fails where it is
    asked for, with the install hint.
    """
    backend = get_backend(default_backend_name() if name is None else name)
    if not backend.available:
        raise ConfigurationError(
            f"kernel backend {backend.name!r} is not available on this host: "
            f"numba is not installed — {NATIVE_INSTALL_HINT} — or use "
            "kernel_backend='numpy'"
        )
    return backend


def default_backend_name() -> str:
    """The backend a ``None`` request selects: always ``numpy``."""
    return "numpy"


def capability_report() -> Dict[str, object]:
    """What this host can run: default backend plus one row per backend."""
    return {
        "default": default_backend_name(),
        "numba": getattr(numba, "__version__", None),
        "backends": {name: _BACKENDS[name].describe() for name in backend_names()},
    }
