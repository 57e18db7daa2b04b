"""Shard plans and the executors that run them, in process or on a pool.

The batch engine (:mod:`repro.walks.batch`) advances K walks per NumPy
operation in one process.  This module splits a K-walk round into
shards and runs them on an *executor*.  Two executors share one
interface (``graph``, ``n_workers``, ``map_shards(fn, per_shard_args)``):

* :class:`InlineExecutor` runs the shards in process, in order, over a
  plain :class:`CSRGraph`;
* :class:`ShardedWalkEngine` keeps a persistent pool of worker
  processes, each attached to the *same* zero-copy shared-memory
  topology (:mod:`repro.graphs.shm`).

Whether the pool beats one process depends on the host, K, and the
kernel backend; the ROADMAP's "Picking K and worker count" holds the
measured table for whole WE rounds.  Time both executors on your shape
before choosing.

**The shard plan is data.**  :func:`shard_slices` splits K walks into
``min(n_workers, K)`` contiguous shards of near-equal size, and
:func:`shard_rngs` gives each shard its own RNG stream, derived from the
caller's seed via :func:`repro.rng.spawn` — so results are deterministic
for a fixed ``(seed, n_workers)`` and walk *i* of the merged result
always corresponds to ``starts[i]``.  With one shard the caller's stream
is used directly, which makes a one-worker plan reproduce
:func:`repro.walks.batch.run_walk_batch` trajectory for trajectory — the
parity hook the tests pin.  More shards legitimately re-partition the
randomness (each walk's law is unchanged; the joint stream differs),
exactly as the batch engine re-partitions the scalar engine's.  The plan
does not depend on the executor: an :class:`InlineExecutor` with n
shards returns what a pool with n workers does.  A worker advances a
pickled copy of each shard's generator, so the pool writes every
generator's end state back onto the caller's object once its shard
succeeds: a one-shard round leaves the caller's generator where an
in-process round would.

**Lifetime.**  The engine owns one slab (a ``/dev/shm`` segment) and
one process pool; both live until :meth:`ShardedWalkEngine.close` (or
the ``with`` block) releases them — workers detach first, then the owner
unlinks the slab, so no ``/dev/shm`` entry survives a closed engine.
Creating an engine costs one topology copy plus worker startup; amortize
it by running many batches per engine, not one.

**Crash transparency.**  A worker process dying mid-round breaks the
whole :class:`~concurrent.futures.ProcessPoolExecutor`; the engine treats
that as a recoverable event.  Completed shards keep their results (and
their rows, already written at fixed offsets into the output slab);
:meth:`ShardedWalkEngine.map_shards` respawns the pool and re-executes
*only* the failed shards.  Because every shard's RNG is an independent
pickled copy (a parent generator takes its shard's end state only once
that shard succeeds, so a retry re-pickles the original state) and row
writes are idempotent, the recovered round is bit-identical to a
crash-free run — the invariant ``tests/faults/test_crash_recovery.py``
pins, with crashes injected deterministically via
:meth:`ShardedWalkEngine.schedule_worker_crash`.  Recovery is bounded by
``max_shard_retries`` respawn cycles per round, after which
:class:`~repro.errors.WorkerCrashError` surfaces.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Set, Tuple

import multiprocessing
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ConfigurationError, WorkerCrashError
from repro.graphs.csr import CSRGraph
from repro.graphs.shm import CSRSlabSpec, SharedCSR
from repro.rng import RngLike, ensure_rng, spawn
from repro.walks.batch import (
    BatchWalkResult,
    GraphLike,
    as_csr,
    has_batch_kernel,
    run_nbrw_walk_batch,
    run_walk_batch,
)
from repro.walks.kernels import require_backend as require_kernel_backend
from repro.walks.transitions import TransitionDesign

# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------
#: The worker's attached slab; set once per process by :func:`_worker_init`.
_WORKER_SLAB: Optional[SharedCSR] = None


def _worker_close() -> None:
    """Detach the slab at worker exit (owner keeps the unlink duty)."""
    global _WORKER_SLAB
    if _WORKER_SLAB is not None:
        _WORKER_SLAB.close()
        _WORKER_SLAB = None


def _worker_init(spec: CSRSlabSpec) -> None:
    """Pool initializer: attach the engine's slab once, detach at exit."""
    global _WORKER_SLAB
    atexit.register(_worker_close)
    _WORKER_SLAB = SharedCSR.attach(spec)


def _generators(args: tuple) -> List[np.random.Generator]:
    """The generators among a shard's arguments, in order."""
    return [arg for arg in args if isinstance(arg, np.random.Generator)]


def _run_shard(fn: Callable, args: tuple):
    """Trampoline executed in the worker: hand *fn* the attached graph.

    Returns *fn*'s result with the end state of each generator among
    *args*: the worker advanced pickled copies, and the parent writes
    these states back onto its own generators.
    """
    result = fn(_WORKER_SLAB.graph, *args)
    return result, [rng.bit_generator.state for rng in _generators(args)]


def _crash_shard(csr: CSRGraph, *args) -> int:
    """Kill the hosting worker process dead — the scheduled-crash payload.

    ``os._exit`` bypasses every cleanup hook, exactly like a SIGKILL'd or
    OOM'd worker: no rows written, no result returned, the pool breaks.
    Substituted for a shard's real function by
    :meth:`ShardedWalkEngine.schedule_worker_crash`; the retry submits
    the real function, so recovery exercises the genuine path.
    """
    os._exit(1)


def _write_rows(segment: str, rows: np.ndarray, offset: int, total_rows: int) -> int:
    """Write a shard's path rows into the shared output slab.

    Returning the K×(steps+1) trajectory matrix through the executor's
    result pipe would pickle megabytes per round; writing rows straight
    into a caller-owned segment makes the merge a single parent-side
    copy.  Only the row count travels back.
    """
    shm = shared_memory.SharedMemory(name=segment)
    try:
        view = np.frombuffer(shm.buf, dtype=np.int64, count=total_rows * rows.shape[1])
        view.reshape(total_rows, rows.shape[1])[offset : offset + rows.shape[0]] = rows
        del view
    finally:
        shm.close()
    return rows.shape[0]


def _walk_shard(
    csr: CSRGraph,
    design: TransitionDesign,
    starts: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    kernel_backend: Optional[str],
    segment: str,
    offset: int,
    total_rows: int,
) -> int:
    # The backend travels as its *name* (picklable); the worker resolves
    # it against its own process-local backend table, so a JIT backend
    # compiles once per worker and persists across rounds.
    paths = run_walk_batch(
        csr, design, starts, steps, seed=rng, backend=kernel_backend
    ).paths
    return _write_rows(segment, paths, offset, total_rows)


def _nbrw_shard(
    csr: CSRGraph,
    starts: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    kernel_backend: Optional[str],
    segment: str,
    offset: int,
    total_rows: int,
) -> int:
    paths = run_nbrw_walk_batch(
        csr, starts, steps, seed=rng, backend=kernel_backend
    ).paths
    return _write_rows(segment, paths, offset, total_rows)


def default_worker_count() -> int:
    """Worker count when none is given: the visible CPU count.

    Prefers the scheduling affinity (what the container/cgroup actually
    grants) over the raw core count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# The shard plan
# ----------------------------------------------------------------------
def shard_slices(k: int, shards: int) -> List[slice]:
    """Contiguous near-equal slices covering ``0..k-1``.

    ``min(shards, k)`` slices; the first ``k % shards`` take one extra
    walk, exactly like :func:`numpy.array_split`.
    """
    shards = min(shards, k)
    if shards <= 0:
        return []
    base, extra = divmod(k, shards)
    out: List[slice] = []
    cursor = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        out.append(slice(cursor, cursor + size))
        cursor += size
    return out


def shard_rngs(shards: int, seed: RngLike) -> List[np.random.Generator]:
    """One independent generator per shard, deterministic per seed.

    A single shard consumes the caller's stream directly — the
    one-worker parity hook; multiple shards derive children via
    :func:`repro.rng.spawn`.
    """
    rng = ensure_rng(seed)
    if shards <= 1:
        return [rng]
    return spawn(rng, shards)


class InlineExecutor:
    """The executor interface of :class:`ShardedWalkEngine`, in process.

    :meth:`map_shards` calls ``fn(graph, *args)`` for each shard in order,
    so a plan of ``n_workers`` shards runs here exactly as it would on a
    pool of that many workers.
    """

    def __init__(self, graph: GraphLike, n_workers: int = 1) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self.graph = as_csr(graph)
        self.n_workers = n_workers

    def map_shards(self, fn: Callable, per_shard_args: Sequence[tuple]) -> list:
        """Run ``fn(graph, *args)`` once per shard, in order."""
        return [fn(self.graph, *args) for args in per_shard_args]


class ShardedWalkEngine:
    """Persistent multiprocess fan-out for the batch-walk front ends.

    Parameters
    ----------
    graph:
        A :class:`CSRGraph` (preferred) or mutable
        :class:`~repro.graphs.graph.Graph`, compiled on the fly.  The
        topology is copied once into shared memory; later mutations of
        the source are invisible to the engine.
    n_workers:
        Worker processes to keep alive; defaults to the visible CPU
        count (:func:`default_worker_count`).
    mp_context:
        :mod:`multiprocessing` start method.  ``"spawn"`` (default) is
        portable and genuinely exercises the attach path; ``"fork"``
        starts faster on Linux.

    Use as a context manager, or call :meth:`close` — the engine holds a
    slab and live processes until released.
    """

    def __init__(
        self,
        graph: GraphLike,
        n_workers: Optional[int] = None,
        mp_context: str = "spawn",
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers if n_workers is not None else default_worker_count()
        # Resolve everything that can fail *before* allocating the
        # segment — a bad start method must not leave a half-constructed
        # engine holding a /dev/shm entry until GC.
        context = multiprocessing.get_context(mp_context)
        self._shared = SharedCSR.create(as_csr(graph))
        self._context = context
        self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(self._shared.spec,),
        )
        self._rounds_dispatched = 0
        #: Respawn cycles allowed per round before giving up.
        self.max_shard_retries = 2
        #: Pool respawns performed over the engine's lifetime.
        self.worker_respawns = 0
        #: Shard tasks re-executed after a worker death.
        self.shard_retries = 0
        self._scheduled_crashes: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The engine's own zero-copy view of the shared topology."""
        return self._shared.graph

    @property
    def segment_name(self) -> str:
        """Name of the backing shared-memory segment (for diagnostics)."""
        return self._shared.spec.segment

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released pool and segment."""
        return self._pool is None

    @property
    def rounds_dispatched(self) -> int:
        """Fan-out rounds this engine has dispatched over its lifetime."""
        return self._rounds_dispatched

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------
    def schedule_worker_crash(self, round_index: int, shard_index: int) -> None:
        """Arrange for one shard of one future round to kill its worker.

        Deterministic chaos for the recovery path: when round
        *round_index* (1-based, matching :attr:`rounds_dispatched` after
        dispatch) submits shard *shard_index* (0-based), the shard's
        function is replaced by :func:`_crash_shard`, which ``os._exit``\\ s
        the hosting process.  The schedule entry is consumed when that
        task enters the pool, so the post-respawn retry runs the real
        function — the recovered round must be bit-identical to a
        crash-free one.
        """
        if round_index < 1:
            raise ConfigurationError(
                f"round_index must be >= 1, got {round_index}"
            )
        if shard_index < 0:
            raise ConfigurationError(
                f"shard_index must be >= 0, got {shard_index}"
            )
        self._scheduled_crashes.add((round_index, shard_index))

    def _respawn_pool(self) -> None:
        """Replace a broken pool with a fresh one over the engine's slab."""
        assert self._pool is not None
        self._pool.shutdown(wait=True)
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=self._context,
            initializer=_worker_init,
            initargs=(self._shared.spec,),
        )
        self.worker_respawns += 1

    def map_shards(self, fn: Callable, per_shard_args: Sequence[tuple]) -> list:
        """Run ``fn(csr, *args)`` in the pool, one task per shard, in order.

        The generic fan-out the estimator front ends build on: *fn* must
        be a picklable module-level function whose first parameter is the
        worker's attached :class:`CSRGraph`; results come back in
        submission order.

        A worker death mid-round (detected as the executor's broken-pool
        failure, from a shard's future or from a submit the broken pool
        refuses) is recovered transparently: shards whose futures already
        settled keep their results, the pool is respawned, and only the
        failed and never-submitted shards are resubmitted — with the
        *same* pickled arguments, so the retry consumes the same RNG
        stream and writes the same rows.  After :attr:`max_shard_retries`
        respawn cycles the round surfaces
        :class:`~repro.errors.WorkerCrashError`.

        Each generator among a shard's arguments takes the end state of
        the worker's copy once that shard succeeds, so the caller's
        generators advance exactly as :class:`InlineExecutor` advances
        them.  A failed shard's generators are left as they were.
        """
        if self._pool is None:
            raise ConfigurationError("engine is closed")
        self._rounds_dispatched += 1
        round_index = self._rounds_dispatched
        results: list = [None] * len(per_shard_args)
        pending = list(range(len(per_shard_args)))
        cycles = 0
        while pending:
            submitted = []
            failed: List[int] = []
            for position, index in enumerate(pending):
                crash = (round_index, index)
                task_fn = _crash_shard if crash in self._scheduled_crashes else fn
                try:
                    future = self._pool.submit(
                        _run_shard, task_fn, per_shard_args[index]
                    )
                except BrokenProcessPool:
                    # An earlier shard's crash broke the pool before this
                    # one went in: it and every shard after it retry on
                    # the respawned pool.
                    failed.extend(pending[position:])
                    break
                self._scheduled_crashes.discard(crash)
                submitted.append((index, future))
            for index, future in submitted:
                try:
                    results[index], states = future.result()
                except BrokenProcessPool:
                    failed.append(index)
                    continue
                for rng, state in zip(_generators(per_shard_args[index]), states):
                    rng.bit_generator.state = state
            if not failed:
                break
            cycles += 1
            if cycles > self.max_shard_retries:
                raise WorkerCrashError(
                    f"round {round_index}: {len(failed)} shard(s) still failing "
                    f"after {self.max_shard_retries} pool respawn(s)"
                )
            self._respawn_pool()
            self.shard_retries += len(failed)
            pending = sorted(failed)
        return results

    def _walk_round(
        self,
        shard_fn: Callable,
        head: tuple,
        starts,
        steps: int,
        seed: RngLike,
        kernel_backend: Optional[str],
    ) -> BatchWalkResult:
        """Plan one walk round, fan it out, and collect the paths.

        *head* leads every shard's arguments (the design, for kernels
        that take one).  Workers write their contiguous row ranges
        straight into one transient output segment (see
        :func:`_write_rows`), so the merged ``(K, steps + 1)`` matrix
        costs one parent-side copy instead of pickling every trajectory
        through the result pipe.  The segment is unlinked before
        returning — worker failures included.
        """
        if self.closed:
            raise ConfigurationError("engine is closed")
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        require_kernel_backend(kernel_backend)
        starts = np.asarray(starts, dtype=np.int64)
        # Validate starts once, parent-side, so workers never see bad ids.
        self.graph.positions_of(starts)
        k, rows = starts.size, steps + 1
        if k == 0:
            return BatchWalkResult(paths=np.empty((0, rows), dtype=np.int64))
        slices = shard_slices(k, self.n_workers)
        rngs = shard_rngs(len(slices), seed)
        out = shared_memory.SharedMemory(create=True, size=k * rows * 8)
        try:
            written = self.map_shards(
                shard_fn,
                [
                    head + (starts[s], steps, rng, kernel_backend, out.name, s.start, k)
                    for s, rng in zip(slices, rngs)
                ],
            )
            assert sum(written) == k, "shards wrote an unexpected row count"
            carpet = np.frombuffer(out.buf, dtype=np.int64, count=k * rows)
            paths = carpet.reshape(k, rows).copy()
            del carpet
        finally:
            out.close()
            out.unlink()
        return BatchWalkResult(paths=paths)

    # ------------------------------------------------------------------
    # Walk front ends
    # ------------------------------------------------------------------
    def run_walk_batch(
        self,
        design: TransitionDesign,
        starts,
        steps: int,
        seed: RngLike = None,
        kernel_backend: Optional[str] = None,
    ) -> BatchWalkResult:
        """Sharded :func:`repro.walks.batch.run_walk_batch`.

        Same contract and result type; walk *i* of the merged result
        started at ``starts[i]``.  ``kernel_backend`` names the kernel
        backend each worker executes its shard with (``None`` means
        ``numpy``); it is validated parent-side before any task is
        submitted, and a JIT backend compiles once per persistent
        worker — later rounds reuse the dispatcher.
        """
        if not has_batch_kernel(design):
            raise ConfigurationError(
                f"design {design.name!r} has no batch kernel; the sharded "
                "engine fans out the batch kernels only"
            )
        return self._walk_round(
            _walk_shard, (design,), starts, steps, seed, kernel_backend
        )

    def run_nbrw_walk_batch(
        self,
        starts,
        steps: int,
        seed: RngLike = None,
        kernel_backend: Optional[str] = None,
    ) -> BatchWalkResult:
        """Sharded :func:`repro.walks.batch.run_nbrw_walk_batch`."""
        return self._walk_round(_nbrw_shard, (), starts, steps, seed, kernel_backend)

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down, then unlink the engine's segment.  Idempotent.

        Order matters: workers must detach before the owner unlinks, or
        their mappings would pin a nameless segment until process exit.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._shared.close()

    def __enter__(self) -> "ShardedWalkEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"workers={self.n_workers}"
        return f"ShardedWalkEngine(segment={self._shared.spec.segment!r}, {state})"
