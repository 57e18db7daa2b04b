"""Topology publication: compact the discovered graph into frozen epochs.

The crawler appends rows to a :class:`~repro.graphs.discovered.DiscoveredGraph`;
walk rounds want a frozen graph that no append can move under them.
:class:`TopologyPublisher` is the hand-off between them: each
:meth:`~TopologyPublisher.publish` call ``compact()``s the discovered
region and installs its fetched-induced subgraph
(:meth:`DiscoveredSlab.fetched_csr`) as the current topology — one
*epoch*, numbered from 1.

**Epochs are plain graphs.**  A published :class:`CSRGraph` owns its
arrays, and no later append or compaction writes to them, so a reader
that took epoch N keeps a consistent view of it for as long as it holds
the reference, however many publishes happen meanwhile — a walk round
over epoch N is bit-identical to a round over a frozen copy, never a
torn mix of epochs.  A superseded epoch is freed by the garbage
collector once its last reader lets go; the publisher holds no other
resource, and so has nothing to close.

Only fetched nodes are published, with the edges between them: walkers
never strand on a frontier placeholder row, and as the crawl completes
the published topology converges to the hidden graph itself.

The publisher is thread-safe: publish and acquire serialize on one lock,
and the discovered graph's own locking discipline (see
:mod:`repro.graphs.discovered`) makes ``compact()`` safe against a crawler
appending from another thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.graphs.csr import CSRGraph
from repro.graphs.discovered import DiscoveredGraph, DiscoveredSlab


@dataclass(frozen=True)
class PublishedTopology:
    """One published epoch: its number, its graph and its row watermark."""

    epoch: int
    graph: CSRGraph = field(repr=False)
    #: Fetched rows at publish time (the growth watermark).
    rows: int


class TopologyPublisher:
    """Periodic ``compact()`` → current-epoch swap over one discovered store.

    Parameters
    ----------
    discovered:
        The store the crawler feeds (normally ``api.discovered``).

    :meth:`publish` is a no-op (returns ``None``) unless at least one
    fetched row arrived since the last publish, so a periodic publisher
    re-publishes nothing while the crawler stalls on a slow network.
    """

    def __init__(self, discovered: DiscoveredGraph) -> None:
        self._discovered = discovered
        self._lock = threading.Lock()
        self._current: Optional[PublishedTopology] = None
        #: Compactions actually performed by :meth:`publish` and
        #: :meth:`rebuild` — gated no-ops don't count.
        self.compactions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[PublishedTopology]:
        """The live epoch (None before the first publish)."""
        with self._lock:
            return self._current

    @property
    def current_epoch(self) -> int:
        """Epoch counter: 0 before the first publish, then monotone."""
        with self._lock:
            return 0 if self._current is None else self._current.epoch

    def acquire(self) -> PublishedTopology:
        """The current epoch; raises before the first publish."""
        with self._lock:
            if self._current is None:
                raise ConfigurationError(
                    "nothing published yet; call publish() before acquire()"
                )
            return self._current

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, force: bool = False) -> Optional[PublishedTopology]:
        """Compact the discovered region and swap it in as a new epoch.

        Returns the new :class:`PublishedTopology`, or ``None`` when no
        fetched row arrived since the last publish (*force* overrides).
        """
        with self._lock:
            # Pre-gate on the store's own fetched counter before paying
            # for a compaction: in a fresh process (resume onto a rebuilt
            # epoch) the compact cache is cold, and a gated no-op must
            # stay a no-op — zero re-compactions.  ``fetched_count`` only
            # grows, so this can never block a publish the slab-derived
            # gate below would allow.
            current = self._current
            if (
                current is not None
                and not force
                and self._discovered.fetched_count <= current.rows
            ):
                return None
            # Compact, then derive the growth watermark from the slab
            # itself: rows a concurrent producer appends between the two
            # statements belong to the *next* epoch, so the watermark
            # never claims rows the slab does not contain (compaction is
            # cached per store generation, so a gated no-op stays cheap).
            slab = self._discovered.compact()
            rows = int(slab.fetched.sum())
            if current is not None and not force and rows <= current.rows:
                return None
            epoch = 1 if current is None else current.epoch + 1
            return self._install(slab, rows, epoch)

    def rebuild(self, *, rows: int, epoch: int) -> PublishedTopology:
        """Re-publish a lost epoch from the store's rows under its number.

        The resume path: compact the restored rows exactly as
        :meth:`publish` would and install the result as epoch *epoch*, so
        the next publish is ``epoch + 1``, gated on growth past *rows* —
        the numbering an uninterrupted publisher continues with.  The
        store must hold exactly *rows* fetched rows, or the rebuilt graph
        would not be that epoch's graph.  Only valid while nothing has
        been published yet.
        """
        with self._lock:
            if self._current is not None:
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
            return self._install(slab, rows, int(epoch))

    def _install(
        self, slab: DiscoveredSlab, rows: int, epoch: int
    ) -> PublishedTopology:
        """Install one compaction's fetched-induced graph as *epoch*."""
        self.compactions += 1
        self._current = PublishedTopology(epoch, slab.fetched_csr(), rows)
        return self._current

    def __repr__(self) -> str:
        return (
            f"TopologyPublisher({self._discovered.name!r}, "
            f"epoch={self.current_epoch})"
        )
