"""Query accounting: counters, budgets, and logs.

The paper's efficiency measure is *query cost* — "the number of nodes it has
to access in order to obtain a predetermined number of samples" (§2.4).
Re-querying a node a crawler has already seen is free in this model (the
response can be cached locally), so :class:`QueryCounter` counts **unique**
nodes by default while still tracking raw calls for diagnostics.

Two access grains coexist.  The scalar grain (:meth:`QueryCounter.seen` /
:meth:`QueryCounter.charge`) serves the per-step walkers; the batch grain
(:meth:`QueryCounter.seen_many` / :meth:`QueryCounter.charge_batch`) lets K
simultaneous walks settle their whole step in one call.  Both grains read
and update the one set of charged ids, so a batch costs K set probes and
no sorted mirror has to be kept in step with the scalar grain; only
:meth:`QueryCounter.state` sorts, on demand.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import ConfigurationError, QueryBudgetExceededError, check_field


@dataclass
class QueryLog:
    """Append-only record of issued queries (node id per call)."""

    entries: List[int] = field(default_factory=list)
    enabled: bool = False

    def record(self, node: int) -> None:
        """Append *node* if logging is enabled."""
        if self.enabled:
            self.entries.append(node)

    def record_many(self, nodes) -> None:
        """Append every id in *nodes* if logging is enabled."""
        if self.enabled:
            self.entries.extend(int(n) for n in nodes)

    def clear(self) -> None:
        """Drop all recorded entries."""
        self.entries.clear()


class QueryCounter:
    """Counts unique-node accesses and raw API calls."""

    def __init__(self) -> None:
        self._seen: set[int] = set()
        self._raw_calls = 0

    @property
    def unique_nodes(self) -> int:
        """Number of distinct nodes accessed — the paper's query cost."""
        return len(self._seen)

    @property
    def raw_calls(self) -> int:
        """Total API invocations including repeats."""
        return self._raw_calls

    def seen(self, node: int) -> bool:
        """True if *node* was already accessed (its result is cached)."""
        return node in self._seen

    def seen_many(self, nodes) -> np.ndarray:
        """Vectorized :meth:`seen`: boolean mask for an array of node ids.

        One set probe per id — for the few-node batches of a backward
        level this beats any array search, and it needs no sorted copy of
        the set.
        """
        ids = np.asarray(nodes, dtype=np.int64).tolist()
        seen = self._seen
        return np.fromiter((node in seen for node in ids), dtype=bool, count=len(ids))

    def charge(self, node: int) -> bool:
        """Record an access to *node*; returns True if it was a new node."""
        self._raw_calls += 1
        if node in self._seen:
            return False
        self._seen.add(node)
        return True

    def charge_batch(self, nodes) -> np.ndarray:
        """Record one access per entry of *nodes* in a single operation.

        Returns the mask of entries that charged a *new* unique node
        (duplicates within the batch charge on their first occurrence
        only, exactly as the equivalent sequence of :meth:`charge` calls
        would: each entry probes the set, then joins it).  Raw calls grow
        by ``len(nodes)``.
        """
        ids = np.asarray(nodes, dtype=np.int64).tolist()
        self._raw_calls += len(ids)
        seen = self._seen
        new = []
        for node in ids:
            new.append(node not in seen)
            seen.add(node)
        return np.array(new, dtype=bool)

    def record_raw(self, count: int) -> None:
        """Count *count* extra raw invocations that charged nothing new."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._raw_calls += count

    def state(self) -> tuple[tuple[int, ...], int]:
        """Canonical full state: ``(sorted seen ids, raw_calls)``.

        Two counters that report equal states have charged exactly the
        same node set and made the same number of raw invocations — the
        equality the async-vs-serial crawl parity tests pin, stronger
        than comparing the two scalar totals.
        """
        return tuple(sorted(int(node) for node in self._seen)), self._raw_calls

    def snapshot(self) -> "QueryCounterSnapshot":
        """Immutable view of the current counts (cheap, for deltas)."""
        return QueryCounterSnapshot(self.unique_nodes, self._raw_calls)

    def delta(self, since: "QueryCounterSnapshot") -> "QueryCostDelta":
        """Cost accrued since an earlier :meth:`snapshot` (phase attribution).

        The standard way to price one phase of a campaign (crawl vs walk
        vs backward estimation): snapshot before, ``delta`` after — no
        ad-hoc arithmetic at call sites.
        """
        return QueryCostDelta(
            unique_nodes=self.unique_nodes - since.unique_nodes,
            raw_calls=self._raw_calls - since.raw_calls,
        )

    def restore(self, seen, raw_calls: int) -> None:
        """Adopt a checkpointed state: the seen-id set and raw-call count.

        The inverse of :meth:`state` for the crash-recovery path — a
        restored counter reports exactly the state the snapshot captured,
        so repeat lookups of already-paid-for nodes stay free (§2.4)
        across a service restart.  Replaces whatever the counter held with
        the values as given: integer ids and an integer *raw_calls* >= 0.
        """
        seen = list(seen)
        check_field("QueryCounter", "seen", seen, [Integral])
        check_field("QueryCounter", "raw_calls", raw_calls, Integral, 0)
        self._seen = set(seen)
        self._raw_calls = raw_calls

    def reset(self) -> None:
        """Forget everything (new measurement epoch)."""
        self._seen.clear()
        self._raw_calls = 0


@dataclass(frozen=True)
class QueryCounterSnapshot:
    """Point-in-time counter values, used to compute per-phase costs."""

    unique_nodes: int
    raw_calls: int

    def cost_since(self, later: "QueryCounterSnapshot") -> int:
        """Unique-node cost accrued between this snapshot and *later*."""
        return later.unique_nodes - self.unique_nodes


@dataclass(frozen=True)
class QueryCostDelta:
    """Cost attributed to one phase: unique-node and raw-call increments."""

    unique_nodes: int
    raw_calls: int


class TenantLedger:
    """Per-tenant attribution of one global :class:`QueryCounter`'s charge.

    The serving layer multiplexes many tenants over a single charged API,
    so §2.4's cost model needs a second axis: *who* caused each unique-node
    charge.  The ledger does not intercept queries — the counter stays the
    single source of truth — it brackets each phase of work with
    :meth:`attribute`, measuring the counter's ``unique_nodes`` before and
    after and booking the difference to the phase's tenant.  Because the
    charged API is cacheable, a unique-node charge happens exactly once,
    at the moment the first tenant touches the node: rows one tenant paid
    for are free for every later tenant (the whole point of the shared
    :class:`~repro.graphs.discovered.DiscoveredGraph`), and the ledger's
    books reflect that automatically.

    **Balance invariant.**  Per-tenant charges are accumulated
    independently of the counter's own total, so
    ``sum(charges().values()) + unattributed() == counter.unique_nodes -
    baseline`` is a real cross-check, not an identity;
    :meth:`assert_balanced` additionally demands that *nothing* escaped
    attribution — the property the service bench pins ("per-tenant budgets
    sum exactly to the global ``QueryCounter`` charge").

    Attribution phases cannot nest or overlap: with one shared counter
    there is no way to split a concurrent delta between two tenants, and
    the serving layer's cooperative scheduler never needs to — exactly one
    tenant's work charges the API at a time.
    """

    def __init__(self, counter: QueryCounter) -> None:
        self.counter = counter
        #: Counter charge present before the ledger started watching; never
        #: attributed to anyone.
        self.baseline = counter.unique_nodes
        self._charges: Dict[str, int] = {}
        self._open_phase: Optional[str] = None

    @contextmanager
    def attribute(self, tenant: str) -> Iterator[None]:
        """Book every unique-node charge inside the ``with`` to *tenant*.

        Attribution is exception-safe: if the phase raises (typically
        :class:`~repro.errors.QueryBudgetExceededError` after the API
        charged the affordable prefix of a batch), the prefix that *was*
        charged is still booked before the exception propagates.
        """
        if not tenant:
            raise ConfigurationError("tenant must be a non-empty string")
        if self._open_phase is not None:
            raise ConfigurationError(
                f"attribution phase for tenant {self._open_phase!r} is still "
                f"open; phases cannot nest or overlap"
            )
        self._open_phase = tenant
        before = self.counter.unique_nodes
        try:
            yield
        finally:
            self._open_phase = None
            delta = self.counter.unique_nodes - before
            if delta:
                self._charges[tenant] = self._charges.get(tenant, 0) + delta

    def charged(self, tenant: str) -> int:
        """Unique-node charge booked to *tenant* so far."""
        return self._charges.get(tenant, 0)

    def charges(self) -> Dict[str, int]:
        """Copy of the per-tenant charge map (tenants with charge > 0)."""
        return dict(self._charges)

    def total_attributed(self) -> int:
        """Sum of all per-tenant charges."""
        return sum(self._charges.values())

    def unattributed(self) -> int:
        """Charge accrued outside any :meth:`attribute` phase."""
        return self.counter.unique_nodes - self.baseline - self.total_attributed()

    def restore(self, baseline: int, charges: Dict[str, int]) -> None:
        """Adopt a checkpointed ledger state (baseline + per-tenant books).

        The counter must already hold its restored state — the balance
        invariant is checked against it immediately, so a mismatched pair
        of snapshots fails loudly at restore time instead of at the next
        :meth:`assert_balanced`.  Stores string tenants and integer
        baseline and charges (>= 0) as given.
        """
        if self._open_phase is not None:
            raise ConfigurationError(
                "cannot restore a ledger while an attribution phase is open"
            )
        check_field("TenantLedger", "baseline", baseline, Integral, 0)
        check_field("TenantLedger", "tenants", [*charges], [str])
        check_field("TenantLedger", "charges", [*charges.values()], [Integral], 0)
        self.baseline = baseline
        self._charges = dict(charges)
        self.assert_balanced()

    def assert_balanced(self) -> None:
        """Raise unless every post-baseline charge is booked to a tenant.

        This is the provable-sum property the multi-tenant bench asserts:
        ``sum(charges().values()) == counter.unique_nodes - baseline``.
        """
        leak = self.unattributed()
        if leak:
            raise ConfigurationError(
                f"{leak} unique-node charges escaped tenant attribution "
                f"(attributed {self.total_attributed()}, counter at "
                f"{self.counter.unique_nodes}, baseline {self.baseline})"
            )

    def __repr__(self) -> str:
        return (
            f"TenantLedger(tenants={len(self._charges)}, "
            f"attributed={self.total_attributed()}, "
            f"unattributed={self.unattributed()})"
        )


class QueryBudget:
    """A hard cap on unique-node query cost.

    ``None`` means unlimited.  The API consults :meth:`check` *before*
    executing a charging query so a run never silently overshoots.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"budget limit must be >= 0, got {limit}")
        self.limit = limit

    def check(self, counter: QueryCounter, node: int) -> None:
        """Raise if charging *node* would exceed the budget.

        Cached (already-seen) nodes never raise: they cost nothing.
        """
        if self.limit is None or counter.seen(node):
            return
        if counter.unique_nodes + 1 > self.limit:
            raise QueryBudgetExceededError(self.limit, counter.unique_nodes)

    def remaining(self, counter: QueryCounter) -> Optional[int]:
        """Unique-node queries left, or None when unlimited."""
        if self.limit is None:
            return None
        return max(0, self.limit - counter.unique_nodes)

    def affordable(self, counter: QueryCounter, requested: int) -> int:
        """How many of *requested* new unique nodes the budget still covers.

        The batch API uses this to enforce the budget per batch: it
        charges the affordable prefix, then raises — so exhaustion
        surfaces *before* the first over-budget API call, never after.
        """
        left = self.remaining(counter)
        if left is None:
            return requested
        return min(requested, left)

    def __repr__(self) -> str:
        return f"QueryBudget(limit={self.limit})"
