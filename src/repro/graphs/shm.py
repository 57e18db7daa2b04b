"""Shared CSR slabs: one topology, any number of processes.

A frozen :class:`~repro.graphs.csr.CSRGraph` is four int64 arrays — which
makes it mmap-friendly by construction.  This module packs those arrays
back-to-back into a single POSIX shared-memory segment
(``/dev/shm/psm_…``), the *slab*, so that N worker processes can *attach*
the same topology with zero per-worker copies: every attached graph's
``indptr`` / ``indices`` / ``degrees`` / ``node_ids`` are NumPy views
straight into one kernel mapping.  This is the substrate
:class:`repro.walks.parallel.ShardedWalkEngine` fans its walk batches over.

Round trip::

    shared = SharedCSR.create(csr)          # owner process
    spec = shared.spec                      # picklable, ships to workers
    attached = SharedCSR.attach(spec)       # worker process
    attached.graph                          # zero-copy CSRGraph
    ...
    attached.close()                        # worker: drop the mapping
    shared.close()                          # owner: drop mapping AND unlink

The round trip is lossless: the attached graph has the same nodes, edges,
name, and per-node attributes as the original (attributes ride along in
the picklable spec as plain dicts — they are metadata-sized and are
*copied*, not shared; only the four topology arrays are zero-copy).

**Lifetime and cleanup.**  A segment is a kernel object with a
filesystem name that outlives every process mapping it until someone
unlinks it:

* The **creating** process owns the slab.  Its :meth:`SharedCSR.close`
  both closes the local mapping and unlinks the name — after that no new
  attach can succeed, and the memory is freed once the last extant
  mapping closes.  ``SharedCSR`` is a context manager, and a garbage
  collection finalizer backstops ``close`` so an abandoned handle does
  not leak ``/dev/shm`` entries for the life of the machine.
* **Attaching** processes must not unlink; their :meth:`close` only drops
  the local mapping.  (Workers share the owner's ``resource_tracker``
  process, whose cache is a set — the attach-side auto-registration that
  Python 3.11 performs is therefore an idempotent no-op, and crash
  cleanup stays the owner's tracker's job.)
* After ``close``, :attr:`SharedCSR.graph` raises instead of handing out
  a new view.  Array views handed out *before* close stay readable —
  they pin the kernel mapping until the last of them is garbage
  collected — but the slab name is gone, so the memory is reclaimed the
  moment they die.

Names never collide: the stdlib randomizes segment names.  Tests assert
no ``/dev/shm`` entry survives an engine's close.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import CSRGraph, Node

#: Names of every segment created by this process and not yet unlinked.
#: Tests read this to assert engines clean up after themselves.
_LIVE_SEGMENTS: Set[str] = set()

_FIELDS = ("indptr", "indices", "degrees", "node_ids")

_ITEMSIZE = np.dtype(np.int64).itemsize


@dataclass(frozen=True)
class CSRSlabSpec:
    """Picklable recipe for attaching one shared CSR slab.

    Everything a worker needs to rebuild the graph: the segment name, the
    per-array element offsets/lengths inside the slab's one int64 carpet,
    and the (copied) graph metadata.
    """

    segment: str
    lengths: Tuple[int, int, int, int]
    name: str
    attributes: Dict[str, Dict[Node, float]]

    @property
    def offsets(self) -> Tuple[int, ...]:
        """Element offset of each field, in declaration order."""
        out = [0]
        for length in self.lengths[:-1]:
            out.append(out[-1] + length)
        return tuple(out)

    @property
    def total_elements(self) -> int:
        """Total int64 elements across all four arrays."""
        return sum(self.lengths)

    @property
    def total_bytes(self) -> int:
        """Size of the carpet in bytes (always positive: indptr >= 1)."""
        return self.total_elements * _ITEMSIZE


def _views(spec: CSRSlabSpec, buf) -> Dict[str, np.ndarray]:
    """The four field views over one slab buffer, zero-copy."""
    carpet = np.frombuffer(buf, dtype=np.int64, count=spec.total_elements)
    views: Dict[str, np.ndarray] = {}
    for field_name, offset, length in zip(_FIELDS, spec.offsets, spec.lengths):
        views[field_name] = carpet[offset : offset + length]
    return views


def _defuse_shared_memory(shm: shared_memory.SharedMemory) -> None:
    """Neutralize a ``SharedMemory`` handle whose ``close()`` raised
    ``BufferError`` (outstanding numpy views still pin the mapping).

    The handle's buffer attributes are CPython internals, not API — they
    have already shifted across versions (3.13 grew ``track=``), so every
    poke is guarded per attribute: whatever exists is dropped, whatever
    doesn't is skipped.  The views keep the mmap alive until they die,
    then the OS reclaims it; ``SharedMemory.__del__`` is left with
    nothing to retry.
    """
    for attr in ("_buf", "_mmap"):
        if getattr(shm, attr, None) is not None:
            try:
                setattr(shm, attr, None)
            except AttributeError:  # pragma: no cover - slotted/readonly attr
                pass
    fd = getattr(shm, "_fd", None)
    if isinstance(fd, int) and fd >= 0:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed elsewhere
            pass
        try:
            shm._fd = -1
        except AttributeError:  # pragma: no cover - slotted/readonly attr
            pass


def _unregister_tracker(shm: shared_memory.SharedMemory) -> None:
    """Best-effort ``resource_tracker.unregister`` for *shm*'s name.

    CPython's ``unlink()`` unregisters only after a successful
    ``shm_unlink``; when the segment name is already gone the tracker
    still holds it and warns about a "leaked shared_memory" object at
    interpreter exit.  Guarded throughout: tracker layout is not API.
    """
    name = getattr(shm, "_name", None)
    if not name:
        return
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals shifted
        pass


class SharedCSR:
    """Handle on one shared CSR slab (owner or attached).

    Build with :meth:`create` in the owning process or :meth:`attach` in
    a worker; never construct directly.  See the module docstring for the
    lifetime rules.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        spec: CSRSlabSpec,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._spec = spec
        self._owner = owner
        self._graph: Optional[CSRGraph] = None
        self._closed = False
        # Finalizer (not __del__): runs the cleanup even if this handle
        # dies in a reference cycle, and never resurrects the object.
        self._finalizer = weakref.finalize(
            self, SharedCSR._cleanup, shm, owner, spec.segment
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, csr: CSRGraph) -> "SharedCSR":
        """Copy *csr*'s arrays into a fresh segment (the one-time cost).

        The returned handle owns the slab; its :attr:`graph` is a
        zero-copy view usable in this process, and :attr:`spec` ships to
        workers.
        """
        arrays = {
            "indptr": csr.indptr,
            "indices": csr.indices,
            "degrees": csr.degrees,
            "node_ids": csr.node_ids,
        }
        for field_name, array in arrays.items():
            if array.dtype != np.int64:  # pragma: no cover - CSRGraph invariant
                raise GraphError(f"{field_name} must be int64, got {array.dtype}")
        lengths = tuple(int(arrays[f].size) for f in _FIELDS)
        # A zero-length segment is illegal; an empty graph still shares
        # its one-element indptr, so size is always positive.
        nbytes = max(1, sum(lengths) * _ITEMSIZE)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        spec = CSRSlabSpec(
            segment=shm.name,
            lengths=lengths,
            name=csr.name,
            attributes={
                attr: csr.attribute_values(attr) for attr in csr.attribute_names()
            },
        )
        for field_name, view in _views(spec, shm.buf).items():
            view[...] = arrays[field_name]
        _LIVE_SEGMENTS.add(spec.segment)
        return cls(shm, spec, owner=True)

    @classmethod
    def attach(cls, spec: CSRSlabSpec) -> "SharedCSR":
        """Map an existing slab (worker side); never unlinks on close."""
        shm = shared_memory.SharedMemory(name=spec.segment, create=False)
        # Python 3.11 registers the segment with the resource tracker on
        # attach as well as create.  Workers share the owner's tracker
        # process (its fd travels through spawn's preparation data), and
        # the tracker's cache is a set — so the attach-side registration
        # is an idempotent no-op, and the owner's unlink unregisters the
        # name exactly once.  Unregistering here instead would strip the
        # owner's crash-cleanup guarantee.
        return cls(shm, spec, owner=False)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def spec(self) -> CSRSlabSpec:
        """The picklable attach recipe for this slab."""
        return self._spec

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; the graph is then unusable."""
        return self._closed

    @property
    def graph(self) -> CSRGraph:
        """Zero-copy :class:`CSRGraph` over the shared mapping (cached)."""
        if self._closed:
            raise GraphError(
                f"shared CSR slab {self._spec.segment!r} is closed; "
                "its arrays would view freed memory"
            )
        if self._graph is None:
            views = _views(self._spec, self._shm.buf)
            self._graph = CSRGraph.from_validated_parts(
                views["indptr"],
                views["indices"],
                views["degrees"],
                views["node_ids"],
                name=self._spec.name,
                attributes=self._spec.attributes,
            )
        return self._graph

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    @staticmethod
    def _cleanup(shm: shared_memory.SharedMemory, owner: bool, segment: str) -> None:
        # Leaked views make close() raise BufferError; defusing drops the
        # handle's references instead, and the owner's unlink below still
        # frees the segment *name* immediately.
        try:
            shm.close()
        except BufferError:
            _defuse_shared_memory(shm)
        if owner:
            try:
                shm.unlink()
            except FileNotFoundError:
                _unregister_tracker(shm)
            _LIVE_SEGMENTS.discard(segment)

    def close(self) -> None:
        """Drop the mapping; the owner also unlinks the slab name.

        Idempotent.  Every view handed out via :attr:`graph` becomes
        invalid — call only once nothing references the arrays.
        """
        if self._closed:
            return
        self._closed = True
        self._graph = None
        self._finalizer()

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("owner" if self._owner else "attached")
        return f"SharedCSR(segment={self._spec.segment!r}, {state})"
