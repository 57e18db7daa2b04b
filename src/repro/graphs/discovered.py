"""The discovered graph: an incremental cache of everything a crawl paid for.

Under the paper's cost model (§2.4) a sampler pays one query for the *first*
access to a node; every repeat access is free because the response can be
cached client-side.  :class:`DiscoveredGraph` is that client-side cache made
explicit and shared: it accumulates every neighbor list a charged
:class:`~repro.osn.api.SocialNetworkAPI` has returned, so

* repeat lookups are served from the store without touching the API —
  the "free" half of the cost model is an O(1) dict hit or one vectorized
  gather, never a second charge;
* *membership* (every node id the crawler has ever seen — fetched nodes,
  their listed neighbors, and profile-only fetches) is available as a
  sorted array, and "already paid for?" is one id → slot table gather
  for K nodes (a sorted-array search once an id leaves the table's dense
  range) instead of K set probes;
* the fetched region re-compacts cheaply into a frozen
  :class:`~repro.graphs.csr.CSRGraph` slab (:meth:`compact`): the cached
  edges are renumbered to member positions through a rank table (one
  scatter, one gather) whenever every member id is dense, so any
  vectorized machinery built for free in-memory graphs can run over the
  part of the network that has already been paid for.

The store is deliberately append-only (plus :meth:`clear` for new
measurement epochs): it is the state the asynchronous crawler
(:mod:`repro.crawl`) feeds incrementally while a
:class:`~repro.crawl.publisher.TopologyPublisher` periodically
re-compacts it for the walkers.

**Locking discipline.**  The async pipeline puts a *producer* (the
crawler appending rows) and a *consumer* (the publisher compacting) on
the same store, potentially from different threads.  Rather than leaning
on CPython's per-opcode atomicity — an implementation detail, and false
for the multi-step array paths here — every mutator (:meth:`record`,
:meth:`mark`, :meth:`clear`) and every reader of the arrays or the
membership (the array lookups, :meth:`compact`, :meth:`member`) serializes
on one reentrant lock.  :meth:`record` only queues a row, and the first
such reader writes every queued row into the arrays and the membership,
so a compaction always sees a row-complete store and an append never
tears a half-refreshed id array.  The single-dict scalar reads
(:meth:`row`, :meth:`has_row`, :attr:`fetched_count`) stay lock-free on
purpose: each is one dict operation returning an immutable value, atomic
under the GIL by construction, and they sit on the scalar walkers' hot
path.  The lock is reentrant so a locked reader may call another locked
reader (``compact`` → ``fetched_mask``) without deadlock; hold times are
bounded by one compaction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.arrays import rows_searchsorted, sorted_lookup
from repro.errors import CheckpointError, NodeNotFoundError
from repro.graphs.csr import CSRGraph

Node = int

#: Ceiling for the dense id → slot table (ids above it switch the store to
#: sorted-array lookups; 2^22 ids cap the table at 32 MB of int64).
_DENSE_ID_LIMIT = 1 << 22


@dataclass(frozen=True)
class DiscoveredSlab:
    """One compaction of a :class:`DiscoveredGraph` into CSR form.

    Attributes
    ----------
    csr:
        Frozen CSR adjacency over *all* member nodes (sorted id order).
        Unfetched members — nodes seen only as someone's neighbor — get an
        empty row, so ``csr.degrees`` is only meaningful where
        :attr:`fetched` is True.
    fetched:
        Boolean mask aligned to CSR positions: True where the row is a
        genuinely fetched neighbor list rather than a placeholder.
    """

    csr: CSRGraph
    fetched: np.ndarray

    @property
    def fetched_ids(self) -> np.ndarray:
        """Original ids of the nodes whose rows are real, sorted."""
        return self.csr.node_ids[self.fetched]

    def fetched_csr(self) -> CSRGraph:
        """The fetched-induced subgraph: paid-for nodes, edges between them.

        Frontier members (seen but never fetched) are dropped entirely —
        including as targets — so every row is a complete, walkable
        neighbor list and no walk strands on a placeholder.  The result is
        symmetric whenever the hidden graph is (an edge survives iff both
        endpoints were fetched), and it converges to the hidden graph as
        the crawl completes.  This is the graph the
        :class:`~repro.crawl.publisher.TopologyPublisher` publishes as
        each epoch.
        """
        csr, fetched = self.csr, self.fetched
        fetched_positions = np.flatnonzero(fetched)
        # Unfetched rows are empty by construction, so masking targets is
        # the whole filter: every surviving edge starts at a fetched row.
        keep = fetched[csr.indices]
        cumulative = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(keep, dtype=np.int64))
        )
        kept_per_row = cumulative[csr.indptr[1:]] - cumulative[csr.indptr[:-1]]
        indptr = np.zeros(fetched_positions.size + 1, dtype=np.int64)
        np.cumsum(kept_per_row[fetched_positions], out=indptr[1:])
        # Renumber surviving targets from member positions to fetched
        # positions; row order (sorted ids) is preserved by the mask.
        new_position = np.cumsum(fetched, dtype=np.int64) - 1
        indices = new_position[csr.indices[keep]]
        return CSRGraph(
            indptr,
            indices,
            node_ids=csr.node_ids[fetched_positions].copy(),
            name=f"{csr.name}-fetched",
        )


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    """*array* if it has *needed* entries, else a copy at least twice its
    size, padded with -1 (the slot table's "no row")."""
    if needed <= array.size:
        return array
    grown = np.full(max(2 * array.size, needed), -1, dtype=array.dtype)
    grown[: array.size] = array
    return grown


class DiscoveredGraph:
    """Grow-only store of fetched neighbor rows with array-backed lookups.

    The scalar interface (:meth:`record` / :meth:`row` / :meth:`neighbors`)
    is plain dict work; the array interface (:meth:`fetched_mask` /
    :meth:`degrees_of` / :meth:`member_ids`) writes the rows recorded since
    its last read in one pass and rebuilds sorted id arrays at most once per
    growth generation, so batch callers pay no per-node Python.
    """

    def __init__(self, name: str = "discovered") -> None:
        self.name = name
        # One reentrant lock covers every mutator and every multi-step
        # array reader — see the module docstring for the discipline.
        self._lock = threading.RLock()
        self._rows: Dict[Node, Tuple[Node, ...]] = {}
        self._members: set[Node] = set()
        self._generation = 0
        self._fetched_ids: Optional[np.ndarray] = None
        self._fetched_slots: Optional[np.ndarray] = None
        self._member_ids: Optional[np.ndarray] = None
        self._arrays_generation = -1
        self._slab: Optional[DiscoveredSlab] = None
        self._slab_generation = -1
        # (node, row) pairs recorded since the last read, in record order.
        self._pending: list[Tuple[Node, Tuple[Node, ...]]] = []
        # Incremental row pool: _catch_up gives every recorded row one flat
        # int64 segment, so batch callers gather K ragged rows with pure
        # array arithmetic instead of K tuple conversions per level.
        self._pool = np.empty(1024, dtype=np.int64)
        self._pool_used = 0
        self._slot_starts = np.empty(256, dtype=np.int64)
        self._slot_lengths = np.empty(256, dtype=np.int64)
        self._slot_by_id: Dict[Node, int] = {}
        # Dense id → slot table: one gather instead of a binary search per
        # lookup (~10x on the hot path) whenever node ids are small
        # non-negative ints — true for every surrogate dataset.  Falls
        # back to sorted-array search the moment an id outside the dense
        # range shows up.
        self._dense = True
        self._slot_table = np.full(1024, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Recording (the charged API writes here)
    # ------------------------------------------------------------------
    def record(self, node: Node, neighbors: Tuple[Node, ...]) -> None:
        """Store the fetched neighbor row of *node* (idempotent); dict work
        only, until a read of the array form or membership catches up."""
        with self._lock:
            if self._rows.get(node) == neighbors:
                return
            self._rows[node] = neighbors
            self._pending.append((node, neighbors))
            self._generation += 1

    def _catch_up(self) -> None:
        """Write the queued rows into the array form and the membership.

        One pass for all of them, leaving what appending them one by one
        would: each row a pool segment in record order, each new node the
        next slot (and its dense-table entry), each slot pointing at its
        row's latest segment, so a row recorded again leaves its earlier
        segment unused.  Call with the lock held.
        """
        pending = self._pending
        if not pending:
            return
        nodes, rows = zip(*pending)
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        used, needed = self._pool_used, self._pool_used + int(lengths.sum())
        self._pool = _grown(self._pool, needed)
        self._pool[used:needed] = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=needed - used
        )
        by_id = self._slot_by_id
        before = len(by_id)
        slots = np.array([by_id.setdefault(n, len(by_id)) for n in nodes], np.int64)
        self._slot_starts = _grown(self._slot_starts, len(by_id))
        self._slot_lengths = _grown(self._slot_lengths, len(by_id))
        # Each slot's last row only: NumPy leaves repeated indices unordered.
        _, last = np.unique(slots[::-1], return_index=True)
        last = slots.size - 1 - last
        starts = used + np.cumsum(lengths) - lengths
        self._slot_starts[slots[last]] = starts[last]
        self._slot_lengths[slots[last]] = lengths[last]
        fresh = slots >= before
        if self._dense and fresh.any():
            new_ids = np.fromiter(nodes, dtype=np.int64, count=len(nodes))[fresh]
            if new_ids.min() < 0 or new_ids.max() >= _DENSE_ID_LIMIT:
                self._dense = False
            else:
                self._slot_table = _grown(self._slot_table, int(new_ids.max()) + 1)
                self._slot_table[new_ids] = slots[fresh]
        self._members.update(nodes, *rows)
        self._pool_used = needed
        self._pending = []

    def mark(self, node: Node, neighbors: Iterable[Node] = ()) -> None:
        """Add *node* (and optionally ids it exposed) to membership only.

        Used for accesses that pay for a node without yielding a cacheable
        row: profile/attribute fetches, and type-1-restricted neighbor
        calls whose response changes per invocation.
        """
        with self._lock:
            self._catch_up()
            before = len(self._members)
            self._members.add(node)
            self._members.update(neighbors)
            if len(self._members) != before:
                self._generation += 1

    def clear(self) -> None:
        """Forget everything (new measurement epoch)."""
        with self._lock:
            self._rows.clear()
            self._pending = []
            self._members.clear()
            self._pool_used = 0
            self._slot_by_id.clear()
            self._dense = True
            self._slot_table = np.full(1024, -1, dtype=np.int64)
            self._generation += 1

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_rows(self) -> Dict[str, np.ndarray]:
        """Every cached row as int64 arrays, in first-record order.

        ``ids[i]`` is the i-th node :meth:`record` first stored,
        ``lengths[i]`` its row's length, and ``flat`` the rows' current
        contents concatenated — one gather over the row pool, no
        per-row Python.  ``marked`` holds, sorted, the members that
        arrived via :meth:`mark` only (never fetched, never listed),
        which the rows alone could not recover.

        :meth:`restore_rows` replays the snapshot into a fresh store
        with the same rows, row order, slot assignment and members, so
        every lookup and every compaction of the restored store equals
        the source's.  The pool layout may differ: a row recorded twice
        leaves its first segment unused in the source pool, and the
        replay writes only the row's current contents.
        """
        with self._lock:
            self._refresh_arrays()
            count = len(self._slot_by_id)
            ids = np.fromiter(self._slot_by_id, dtype=np.int64, count=count)
            flat, lengths = self._gather(np.arange(count, dtype=np.int64))
            listed = np.union1d(ids, flat)
            marked = np.setdiff1d(self._member_ids, listed, assume_unique=True)
            return {"ids": ids, "lengths": lengths, "flat": flat, "marked": marked}

    def restore_rows(self, state: Mapping[str, object]) -> None:
        """Replay a :meth:`snapshot_rows` snapshot into this (empty) store.

        Records the rows in snapshot order, then marks the mark-only
        members.  Refuses to merge into a non-empty store — a
        half-restored cache would silently desynchronize the §2.4
        accounting that trusts it — and refuses a snapshot whose
        ``lengths`` do not tile ``flat``.
        """
        ids = np.asarray(state["ids"], dtype=np.int64)
        lengths = np.asarray(state["lengths"], dtype=np.int64)
        flat = np.asarray(state["flat"], dtype=np.int64)
        marked = np.asarray(state["marked"], dtype=np.int64)
        if (
            ids.shape != lengths.shape
            or np.any(lengths < 0)
            or int(lengths.sum()) != flat.size
        ):
            raise CheckpointError(
                f"row snapshot is inconsistent: {ids.size} ids, "
                f"{lengths.size} lengths summing to {int(lengths.sum())}, "
                f"{flat.size} row entries"
            )
        with self._lock:
            if self._rows or self._members:
                raise CheckpointError(
                    f"cannot restore rows into a non-empty store "
                    f"({self.fetched_count} rows, {self.membership_size} members); "
                    "restore targets must be freshly constructed"
                )
            entries = flat.tolist()
            end = 0
            for node, length in zip(ids.tolist(), lengths.tolist()):
                self.record(node, tuple(entries[end : end + length]))
                end += length
            if marked.size:
                self.mark(int(marked[0]), marked.tolist())

    # ------------------------------------------------------------------
    # Scalar lookups (NeighborView over the paid-for region)
    # ------------------------------------------------------------------
    def has_row(self, node: Node) -> bool:
        """True if *node*'s neighbor list is cached."""
        return node in self._rows

    def row(self, node: Node) -> Optional[Tuple[Node, ...]]:
        """The cached neighbor row of *node*, or None if never fetched."""
        return self._rows.get(node)

    def neighbors(self, node: Node) -> Tuple[Node, ...]:
        """Cached neighbors of *node*; raises if the row was never paid for."""
        row = self._rows.get(node)
        if row is None:
            raise NodeNotFoundError(node)
        return row

    def degree(self, node: Node) -> int:
        """Cached visible degree of *node*."""
        return len(self.neighbors(node))

    def member(self, node: Node) -> bool:
        """True if the crawler has ever seen this node id."""
        with self._lock:
            self._catch_up()
            return node in self._members

    def __contains__(self, node: Node) -> bool:
        return self.member(node)

    @property
    def fetched_count(self) -> int:
        """Number of nodes with a cached neighbor row."""
        return len(self._rows)

    @property
    def membership_size(self) -> int:
        """Number of distinct node ids ever seen (fetched ∪ listed ∪ marked)."""
        with self._lock:
            self._catch_up()
            return len(self._members)

    # ------------------------------------------------------------------
    # Array lookups (the batch accounting layer reads here)
    # ------------------------------------------------------------------
    def _refresh_arrays(self) -> None:
        self._catch_up()
        if self._arrays_generation == self._generation:
            return
        ids = np.fromiter(self._slot_by_id, dtype=np.int64, count=len(self._slot_by_id))
        slots = np.fromiter(
            self._slot_by_id.values(), dtype=np.int64, count=ids.size
        )
        order = np.argsort(ids)
        self._fetched_ids = ids[order]
        self._fetched_slots = slots[order]
        self._member_ids = np.fromiter(
            self._members, dtype=np.int64, count=len(self._members)
        )
        self._member_ids.sort()
        self._arrays_generation = self._generation

    def _slots_lookup(self, nodes: np.ndarray) -> np.ndarray:
        """Pool slots for an array of node ids; -1 where no row is cached."""
        self._catch_up()
        if self._dense:
            table = self._slot_table
            inside = (nodes >= 0) & (nodes < table.size)
            slots = np.full(nodes.shape, -1, dtype=np.int64)
            slots[inside] = table[nodes[inside]]
            return slots
        self._refresh_arrays()
        pos, ok = sorted_lookup(self._fetched_ids, nodes)
        slots = np.full(nodes.shape, -1, dtype=np.int64)
        slots[ok] = self._fetched_slots[pos[ok]]
        return slots

    def _slots_of(self, nodes: np.ndarray) -> np.ndarray:
        """Pool slots for an array of fetched node ids (raises on misses)."""
        slots = self._slots_lookup(nodes)
        if slots.size == 0 or np.all(slots >= 0):
            return slots
        raise NodeNotFoundError(int(nodes[slots < 0][0]))

    def fetched_ids(self) -> np.ndarray:
        """Sorted ids of all nodes with cached rows (do not mutate).

        The returned array is a frozen snapshot: a concurrent append
        rebuilds (never mutates) the internal arrays, so a handed-out
        reference stays internally consistent even if it goes stale.
        """
        with self._lock:
            self._refresh_arrays()
            return self._fetched_ids

    def member_ids(self) -> np.ndarray:
        """Sorted ids of all members (do not mutate; snapshot semantics)."""
        with self._lock:
            self._refresh_arrays()
            return self._member_ids

    def fetched_mask(self, nodes) -> np.ndarray:
        """Boolean mask: which of *nodes* have a cached neighbor row.

        One table gather (or sorted-array search) for the whole batch —
        the set-free membership test the vectorized accounting layer
        charges by.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        with self._lock:
            return self._slots_lookup(nodes) >= 0

    def try_degrees(self, nodes) -> Tuple[np.ndarray, np.ndarray]:
        """``(degrees, known)`` in one lookup: degrees valid where known.

        The fused form of :meth:`fetched_mask` + :meth:`degrees_of` the
        batch accounting layer uses — one table gather decides both what
        is already paid for and what it answers.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        with self._lock:
            slots = self._slots_lookup(nodes)
            known = slots >= 0
            degrees = np.zeros(nodes.shape, dtype=np.int64)
            degrees[known] = self._slot_lengths[slots[known]]
            return degrees, known

    def degrees_of(self, nodes) -> np.ndarray:
        """Cached degrees for an array of fetched nodes (one gather).

        Raises
        ------
        NodeNotFoundError
            If any node's row was never fetched (its degree is unknown —
            serving a guess would corrupt transition probabilities).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return np.zeros(0, dtype=np.int64)
        with self._lock:
            slots = self._slots_of(nodes)  # catches up: may grow the arrays
            return self._slot_lengths[slots]

    def rows_flat(self, nodes) -> Tuple[np.ndarray, np.ndarray]:
        """Cached rows of *nodes* as ``(concatenated ids, lengths)`` arrays.

        The ragged-batch form of :meth:`rows_of`: one gather over the
        incremental row pool, no per-node Python.  All nodes must have
        fetched rows.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        with self._lock:
            return self._gather(self._slots_of(nodes))

    def _gather(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The pool rows at *slots*, concatenated, and their lengths.

        Each entry's pool index is its row's start, shifted back by the
        row's offset in the output, plus its output position: one repeat
        and one gather for the whole batch.  Call with the lock held.
        """
        lengths = self._slot_lengths[slots]
        ends = np.cumsum(lengths)
        shift = np.repeat(self._slot_starts[slots] - (ends - lengths), lengths)
        total = int(ends[-1]) if ends.size else 0
        return self._pool[shift + np.arange(total)], lengths

    def rows_contain(self, nodes, values) -> np.ndarray:
        """Per-row membership: is ``values[i]`` in *nodes[i]*'s cached row.

        One :func:`~repro.arrays.rows_searchsorted` over the (sorted)
        cached rows for the whole batch.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if nodes.size == 0:
            return np.zeros(0, dtype=bool)
        with self._lock:
            slots = self._slots_of(nodes)
            starts = self._slot_starts[slots]
            lengths = self._slot_lengths[slots]
            lo = rows_searchsorted(self._pool, starts, lengths, values)
            found = lo < lengths
            found[found] = self._pool[starts[found] + lo[found]] == values[found]
            return found

    # ------------------------------------------------------------------
    # Re-compaction
    # ------------------------------------------------------------------
    def compact(self) -> DiscoveredSlab:
        """Freeze the discovered region into a CSR slab (cached per growth).

        Every member becomes a CSR row — fetched nodes carry their cached
        neighbor list, frontier nodes (seen but never fetched) an empty
        row, with :attr:`DiscoveredSlab.fetched` telling them apart.  All
        listed neighbors are members by construction, so every index
        resolves.  Compaction is array work only, O(members + cached
        edges): one membership lookup, one :meth:`rows_flat` gather over
        the row pool for the edge array, and one renumbering of it: a
        gather through a rank table (member positions scattered by id)
        when every member id lies in the slot table's dense range
        ``[0, 2^22)``, one :func:`numpy.searchsorted` otherwise.  The slab
        is reused until the store grows.

        Safe against a concurrent producer: the whole compaction holds the
        store lock, so the slab reflects one well-defined generation —
        rows appended while it runs land in the *next* compaction.
        """
        with self._lock:
            if self._slab is not None and self._slab_generation == self._generation:
                return self._slab
            self._refresh_arrays()
            members = self._member_ids
            fetched = self.fetched_mask(members)
            # Members are sorted, so the fetched rows gathered in member
            # order are the CSR edge array, row after row.
            flat, lengths = self.rows_flat(members[fetched])
            degrees = np.zeros(members.size, dtype=np.int64)
            degrees[fetched] = lengths
            indptr = np.zeros(members.size + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            if members.size and members[0] >= 0 and members[-1] < _DENSE_ID_LIMIT:
                # Only member slots are written, and only they are read:
                # every listed id is a member.
                rank = np.empty(int(members[-1]) + 1, dtype=np.int64)
                rank[members] = np.arange(members.size, dtype=np.int64)
                indices = rank[flat]
            else:
                indices = np.searchsorted(members, flat)
            csr = CSRGraph(indptr, indices, node_ids=members.copy(), name=self.name)
            self._slab = DiscoveredSlab(csr=csr, fetched=fetched)
            self._slab_generation = self._generation
            return self._slab

    def __repr__(self) -> str:
        return (
            f"DiscoveredGraph(name={self.name!r}, fetched={self.fetched_count}, "
            f"members={self.membership_size})"
        )
