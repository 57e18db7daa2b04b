"""Topology publication: compact the discovered graph into swappable slabs.

The crawler appends rows to a :class:`~repro.graphs.discovered.DiscoveredGraph`;
walk rounds want a frozen graph that no append can move under them.
:class:`TopologyPublisher` is the hand-off between them: each
:meth:`~TopologyPublisher.publish` call ``compact()``s the discovered
region into a fresh shared-memory slab (one *epoch*) and atomically swaps
it in as the current topology, while readers pinned to the previous epoch
keep a consistent view until they let go.

**Epoch/lease retirement.**  Readers never touch :attr:`current` bare —
they :meth:`~TopologyPublisher.acquire` a :class:`TopologyLease` (a
refcount on that epoch) and release it when their round ends.  A publish
marks the previous epoch *superseded*; its segment is closed-and-unlinked
the moment its lease count hits zero (immediately, if nobody held it).
That yields the two guarantees the swap tests pin:

* a walk round that acquired epoch N before a swap completes against
  epoch N's slab — bit-identical to a round over a frozen copy, never a
  torn mix of epochs;
* no slab — ``/dev/shm`` segment or file-backed ``*.slab`` alike —
  outlives its last lease: superseded epochs unlink on final release,
  the current epoch on :meth:`~TopologyPublisher.close`, and a publish
  that fails mid-swap closes the slab it had created before re-raising.

By default the published graph is the **fetched-induced** subgraph
(:meth:`DiscoveredSlab.fetched_csr`): only nodes whose rows have been paid
for, with edges between them.  Walkers therefore never strand on a
frontier placeholder row, and as the crawl completes the published
topology converges to the hidden graph itself.  ``fetched_only=False``
publishes the full member slab (frontier nodes as empty rows) for callers
that want membership, not walkability.

The publisher is thread-safe: publish/acquire/release serialize on one
lock, and the discovered graph's own locking discipline (see
:mod:`repro.graphs.discovered`) makes ``compact()`` safe against a crawler
appending from another thread.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import ConfigurationError
from repro.graphs.csr import CSRGraph
from repro.graphs.discovered import DiscoveredGraph, DiscoveredSlab
from repro.graphs.shm import STORAGES, CSRSlabSpec, SharedCSR


class PublishedTopology:
    """One published epoch: a frozen shared-memory slab plus its provenance.

    Created by :meth:`TopologyPublisher.publish`; retired by the publisher
    once superseded and lease-free.  Hold it through a
    :class:`TopologyLease`, not bare.
    """

    def __init__(
        self,
        epoch: int,
        shared: SharedCSR,
        slab: Optional[DiscoveredSlab],
        rows: int,
    ) -> None:
        self.epoch = epoch
        self.shared = shared
        #: The compaction this epoch froze (fetched mask, full member CSR).
        #: ``None`` for an epoch adopted from a persisted slab on resume —
        #: no compaction produced it.
        self.slab = slab
        #: Discovered rows at publish time (the growth watermark).
        self.rows = rows
        self._leases = 0
        self._superseded = False

    @property
    def graph(self) -> CSRGraph:
        """Zero-copy view of the published topology."""
        return self.shared.graph

    @property
    def spec(self) -> CSRSlabSpec:
        """Attach recipe of the epoch's slab (a checkpoint records it)."""
        return self.shared.spec

    @property
    def retired(self) -> bool:
        """True once the backing segment has been closed and unlinked."""
        return self.shared.closed

    @property
    def leases(self) -> int:
        """Outstanding reader leases on this epoch."""
        return self._leases

    def __repr__(self) -> str:
        state = "retired" if self.retired else f"leases={self._leases}"
        return f"PublishedTopology(epoch={self.epoch}, rows={self.rows}, {state})"


class TopologyLease:
    """A reader's refcount on one published epoch (context manager).

    Walk rounds acquire a lease before fanning out and release it after
    the merge — the segment they attached cannot be unlinked underneath
    them, no matter how many publishes happen mid-round.
    """

    def __init__(self, publisher: "TopologyPublisher", topology: PublishedTopology):
        self._publisher = publisher
        self._topology: Optional[PublishedTopology] = topology

    @property
    def topology(self) -> PublishedTopology:
        if self._topology is None:
            raise ConfigurationError("lease already released")
        return self._topology

    @property
    def graph(self) -> CSRGraph:
        """The leased epoch's graph."""
        return self.topology.graph

    @property
    def epoch(self) -> int:
        return self.topology.epoch

    def release(self) -> None:
        """Drop the refcount (idempotent); may unlink a superseded epoch."""
        if self._topology is not None:
            topology, self._topology = self._topology, None
            self._publisher._release(topology)

    def __enter__(self) -> "TopologyLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        if self._topology is None:
            return "TopologyLease(released)"
        return f"TopologyLease(epoch={self._topology.epoch})"


class TopologyPublisher:
    """Periodic ``compact()`` → :class:`SharedCSR` swap with epoch retirement.

    Parameters
    ----------
    discovered:
        The store the crawler feeds (normally ``api.discovered``).
    fetched_only:
        Publish the fetched-induced subgraph (default) rather than the
        full member slab — see the module docstring.
    min_new_rows:
        Growth gate: :meth:`publish` is a no-op (returns ``None``) unless
        at least this many rows arrived since the last publish.  Keeps a
        periodic publisher from churning segments while the crawler
        stalls on a slow network.
    storage:
        Slab backend for published epochs — ``"shm"`` (default) or
        ``"file"`` (see :mod:`repro.graphs.shm`).  Lease retirement and
        owner-unlink rules are identical for both.
    slab_dir:
        Directory for ``storage="file"`` slabs (required then, ignored
        otherwise).
    """

    def __init__(
        self,
        discovered: DiscoveredGraph,
        *,
        fetched_only: bool = True,
        min_new_rows: int = 1,
        storage: str = "shm",
        slab_dir: Optional[str] = None,
    ) -> None:
        if min_new_rows < 1:
            raise ConfigurationError(f"min_new_rows must be >= 1, got {min_new_rows}")
        if storage not in STORAGES:
            raise ConfigurationError(
                f"unknown slab storage {storage!r}; expected one of {STORAGES}"
            )
        if storage == "file" and slab_dir is None:
            raise ConfigurationError("storage='file' requires a slab_dir")
        self._discovered = discovered
        self._fetched_only = fetched_only
        self._min_new_rows = min_new_rows
        self._storage = storage
        self._slab_dir = slab_dir
        self._lock = threading.RLock()
        self._current: Optional[PublishedTopology] = None
        self._epoch = 0
        self._closed = False
        #: Compactions actually performed by :meth:`publish` and
        #: :meth:`rebuild` — gated no-ops and :meth:`adopt` don't count.
        #: The resume tests pin this at zero when a persisted slab is
        #: re-attached.
        self.compactions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[PublishedTopology]:
        """The live epoch (None before the first publish / after close)."""
        with self._lock:
            return self._current

    @property
    def current_epoch(self) -> int:
        """Epoch counter: 0 before the first publish, then monotone."""
        with self._lock:
            return self._epoch

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def storage(self) -> str:
        """Slab backend published epochs use (``"shm"`` or ``"file"``)."""
        return self._storage

    @property
    def slab_dir(self) -> Optional[str]:
        """Where file-backed slabs land (``None`` for shm storage)."""
        return self._slab_dir

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, force: bool = False) -> Optional[PublishedTopology]:
        """Compact the discovered region and swap it in as a new epoch.

        Returns the new :class:`PublishedTopology`, or ``None`` when the
        growth gate says nothing meaningful changed (*force* overrides).
        On any failure after the slab was allocated, the slab is closed
        before the error propagates — a failed swap never leaks a
        ``/dev/shm`` segment, and the previous epoch stays current.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError("publisher is closed")
            # Pre-gate on the store's own fetched counter before paying
            # for a compaction: in a fresh process (resume onto an
            # adopted slab) the compact cache is cold, and a gated no-op
            # must stay a no-op — zero re-compactions, not merely zero
            # slabs.  ``fetched_count`` only grows, so this can never
            # block a publish the slab-derived gate below would allow.
            if (
                self._current is not None
                and not force
                and self._discovered.fetched_count - self._current.rows
                < self._min_new_rows
            ):
                return None
            # Compact, then derive the growth watermark from the slab
            # itself: rows a concurrent producer appends between the two
            # statements belong to the *next* epoch, so the watermark
            # never claims rows the slab does not contain (compaction is
            # cached per store generation, so a gated no-op stays cheap).
            slab = self._discovered.compact()
            rows = int(slab.fetched.sum())
            if (
                self._current is not None
                and not force
                and rows - self._current.rows < self._min_new_rows
            ):
                return None
            return self._publish_slab(slab, rows, self._epoch + 1)

    def rebuild(self, *, rows: int, epoch: int) -> PublishedTopology:
        """Re-publish a lost epoch from the store's rows under its number.

        The resume path for a slab that died with its process (every
        ``/dev/shm`` slab; a file slab that went missing): compact the
        restored rows exactly as :meth:`publish` would and install the
        slab as epoch *epoch*, so the next publish is ``epoch + 1``,
        gated on growth past *rows* — the numbering an uninterrupted
        publisher continues with.  The store must hold exactly *rows*
        fetched rows, or the rebuilt slab would not be that epoch's
        graph.  Only valid while nothing has been published yet.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError("publisher is closed")
            if self._current is not None or self._epoch:
                raise ConfigurationError(
                    "rebuild() requires a publisher that has not published yet"
                )
            slab = self._discovered.compact()
            fetched = int(slab.fetched.sum())
            if fetched != rows:
                raise ConfigurationError(
                    f"epoch {epoch} was published at {rows} fetched rows, "
                    f"but the store holds {fetched}"
                )
            return self._publish_slab(slab, rows, int(epoch))

    def _publish_slab(
        self, slab: DiscoveredSlab, rows: int, epoch: int
    ) -> PublishedTopology:
        """Copy one compaction into a fresh slab and install it as *epoch*."""
        self.compactions += 1
        csr = slab.fetched_csr() if self._fetched_only else slab.csr
        shared = SharedCSR.create(csr, storage=self._storage, slab_dir=self._slab_dir)
        try:
            topology = PublishedTopology(epoch, shared, slab, rows)
            self._install(topology)
        except BaseException:
            shared.close()
            raise
        return topology

    def adopt(
        self, shared: SharedCSR, *, rows: int, epoch: Optional[int] = None
    ) -> PublishedTopology:
        """Install an externally attached slab as the current epoch.

        The resume path: a checkpoint recorded a persisted file slab,
        :meth:`SharedCSR.adopt` re-attached it, and this publisher takes
        ownership without compacting anything — the adopted epoch retires
        through the normal supersede/lease rules.  *rows* is the growth
        watermark the slab was published at; *epoch* restores the epoch
        counter (defaults to the next epoch).  Only valid while nothing
        has been published yet.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError("publisher is closed")
            if self._current is not None or self._epoch:
                raise ConfigurationError(
                    "adopt() requires a publisher that has not published yet"
                )
            if shared.closed:
                raise ConfigurationError("cannot adopt a closed slab")
            topology = PublishedTopology(
                self._epoch + 1 if epoch is None else int(epoch),
                shared,
                slab=None,
                rows=int(rows),
            )
            self._install(topology)
            return topology

    def _install(self, topology: PublishedTopology) -> None:
        """Swap *topology* in as current and retire the superseded epoch."""
        previous, self._current = self._current, topology
        self._epoch = topology.epoch
        if previous is not None:
            previous._superseded = True
            if previous._leases == 0:
                previous.shared.close()

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    def acquire(self) -> TopologyLease:
        """Lease the current epoch; its segment outlives any later swap
        until :meth:`TopologyLease.release`."""
        with self._lock:
            if self._current is None:
                raise ConfigurationError(
                    "nothing published yet; call publish() before acquire()"
                )
            self._current._leases += 1
            return TopologyLease(self, self._current)

    def _release(self, topology: PublishedTopology) -> None:
        with self._lock:
            topology._leases -= 1
            assert topology._leases >= 0, "lease over-released"
            if topology._superseded and topology._leases == 0:
                topology.shared.close()

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Retire the current epoch (waiting, via refcount, on open leases).

        Idempotent.  With no leases outstanding the segment unlinks here;
        otherwise it unlinks when the last reader releases.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._current is not None:
                self._current._superseded = True
                if self._current._leases == 0:
                    self._current.shared.close()
                self._current = None

    def __enter__(self) -> "TopologyPublisher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            state = "closed" if self._closed else f"epoch={self._epoch}"
        return f"TopologyPublisher({self._discovered.name!r}, {state})"
