"""The restricted OSN web interface: local-neighborhood queries only.

:class:`SocialNetworkAPI` wraps a hidden :class:`~repro.graphs.Graph` and
exposes exactly what the paper's third party sees (§2.1):

* ``neighbors(v)`` — the neighbor list of ``v`` (possibly restricted);
* ``degree(v)`` — ``len(neighbors(v))`` under the same restriction;
* ``attribute(v, name)`` — node-profile attributes (star ratings,
  self-description length, …), charged like a neighbor query since both
  come from the same profile fetch.

Every access to a *new* node costs one query against the counter/budget
(§2.4's cost model); results accumulate in a shared
:class:`~repro.graphs.discovered.DiscoveredGraph`, so repeat accesses are
served from the discovered store for free — except under the type-1
restriction (fresh random neighbor subset per call, §6.3.1), where each
``neighbors`` call re-invokes the API (the queried node still joins the
discovered membership: it has been paid for, even if its row cannot be
cached).

Two access grains share one accounting state.  The scalar grain
(``neighbors``/``degree``/``attribute``) is what the per-step walkers use.
The batch grain (:meth:`SocialNetworkAPI.neighbors_batch` /
:meth:`SocialNetworkAPI.degrees_batch`) settles a whole array of lookups
in one operation: the batch is looked up in the discovered graph once,
and only its misses reach the API.  For them the budget is enforced as a
whole (the affordable prefix is charged, then exhaustion raises *before*
the first over-budget invocation), the rate limiter is drained in one
closed-form acquisition, and the counter is charged once — this is the
charged-API counterpart of the free-graph batch walk engine.

The API satisfies the :class:`~repro.walks.transitions.NeighborView`
protocol, so transition designs and backward estimators run against it
unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, NodeNotFoundError, QueryBudgetExceededError
from repro.graphs.discovered import DiscoveredGraph
from repro.graphs.graph import Graph, Node
from repro.osn.accounting import (
    QueryBudget,
    QueryCounter,
    QueryCounterSnapshot,
    QueryLog,
)
from repro.osn.ratelimit import TokenBucketRateLimiter
from repro.osn.restrictions import NeighborRestriction, RandomKRestriction


class SocialNetworkAPI:
    """Query interface over a hidden graph with cost accounting.

    Parameters
    ----------
    graph:
        The hidden social graph.  Samplers must only touch it through this
        API; experiments may read it directly to compute ground truth.
    budget:
        Optional hard cap on unique-node queries.
    restriction:
        Optional neighbor-access restriction (paper §6.3.1 types 1–3).
    rate_limiter:
        Optional token bucket; when present, each API invocation consumes a
        token, waiting on the virtual clock as needed.
    log_queries:
        Record every API invocation's node id (diagnostics; off by default).
    """

    def __init__(
        self,
        graph: Graph,
        budget: Optional[QueryBudget] = None,
        restriction: Optional[NeighborRestriction] = None,
        rate_limiter: Optional[TokenBucketRateLimiter] = None,
        log_queries: bool = False,
    ) -> None:
        self._graph = graph
        self.budget = budget if budget is not None else QueryBudget(None)
        self.restriction = restriction
        self.rate_limiter = rate_limiter
        self.counter = QueryCounter()
        self.log = QueryLog(enabled=log_queries)
        #: Everything this API has returned so far — the client-side cache
        #: of §2.4's cost model, shared with any batch machinery that wants
        #: to walk the already-paid-for region for free.
        self.discovered = DiscoveredGraph(name=f"discovered-{graph.name}")

    @property
    def cacheable(self) -> bool:
        """Whether neighbor responses are call-stable (cacheable)."""
        # Type-1 responses change per call and must not be cached; everything
        # else (most often no restriction, tested first) is cacheable.
        restriction = self.restriction
        return restriction is None or not isinstance(restriction, RandomKRestriction)

    # ------------------------------------------------------------------
    # Charged queries (scalar grain)
    # ------------------------------------------------------------------
    def neighbors(self, node: Node) -> Tuple[Node, ...]:
        """Visible neighbors of *node* (charged on first access).

        Raises
        ------
        NodeNotFoundError
            If *node* does not exist on the network.
        QueryBudgetExceededError
            If this access would exceed the query budget.
        """
        cached = self.discovered.row(node)
        if cached is not None:
            return cached
        visible = self._invoke(node)
        if self.cacheable:
            self.discovered.record(node, visible)
        else:
            self.discovered.mark(node, visible)
        return visible

    def degree(self, node: Node) -> int:
        """Visible degree: size of the (restricted) neighbor list."""
        return len(self.neighbors(node))

    def attribute(self, node: Node, name: str) -> float:
        """Profile attribute of *node*; charged like a neighbor query.

        A node whose profile was already fetched (by ``neighbors`` or a
        previous ``attribute`` call) is served from cache at no cost.
        """
        if not self._graph.has_node(node):
            raise NodeNotFoundError(node)
        if not self.counter.seen(node):
            self.budget.check(self.counter, node)
            if self.rate_limiter is not None:
                self.rate_limiter.acquire_or_wait()
            self.counter.charge(node)
            self.log.record(node)
            self.discovered.mark(node)
        return self._graph.get_attribute(name, node)

    def _invoke(self, node: Node) -> Tuple[Node, ...]:
        """One real API invocation: validate, rate-limit, charge, restrict."""
        if not self._graph.has_node(node):
            raise NodeNotFoundError(node)
        self.budget.check(self.counter, node)
        if self.rate_limiter is not None:
            self.rate_limiter.acquire_or_wait()
        self.counter.charge(node)
        self.log.record(node)
        true_neighbors = self._graph.neighbors(node)
        if self.restriction is not None:
            return self.restriction.apply(node, true_neighbors)
        return true_neighbors

    # ------------------------------------------------------------------
    # Charged queries (batch grain)
    # ------------------------------------------------------------------
    def neighbors_batch(self, nodes) -> List[Tuple[Node, ...]]:
        """Visible neighbor rows for an array of nodes, settled as one batch.

        Semantically equivalent to ``[self.neighbors(v) for v in nodes]``
        — same unique-node charges, same raw-call count, same cache
        contents afterwards — but the batch is looked up in the
        discovered graph once, and only its misses reach the API, settled
        together by :meth:`_settle`: one counter charge, one rate-limiter
        acquisition, one budget decision.  An unknown id raises before
        anything is charged (a failed lookup is free, §2.4).

        Under the type-1 restriction each *occurrence* is its own fresh
        invocation, exactly as in the scalar path; otherwise duplicate
        ids in one batch share a single fetch.

        Raises
        ------
        NodeNotFoundError
            If any requested node does not exist (checked before charging).
        QueryBudgetExceededError
            After charging the affordable prefix, if the batch needs more
            new unique nodes than the budget allows — the over-budget
            invocation itself never happens.
        """
        order = _node_array(nodes)
        if order.size == 0:
            return []
        if not self.cacheable:
            # Type-1: every occurrence got its own fresh subset, in input order.
            return self._settle(order)
        fetched = self.discovered.fetched_mask(order)
        if not fetched.all():
            self._settle(order[~fetched])
        return [self.discovered.neighbors(node) for node in order.tolist()]

    def degrees_batch(self, nodes) -> np.ndarray:
        """Visible degrees for an array of nodes, settled as one batch.

        Nodes whose rows are already in the discovered graph are answered
        by one array gather without touching the API; the misses are
        settled exactly as :meth:`neighbors_batch` settles them, and their
        degrees are then read from the store.
        """
        order = _node_array(nodes)
        if not self.cacheable:
            return np.array([len(row) for row in self._settle(order)], dtype=np.int64)
        degrees, known = self.discovered.try_degrees(order)
        if not known.all():
            misses = order[~known]
            self._settle(misses)
            degrees[~known] = self.discovered.degrees_of(misses)
        return degrees

    def _settle(self, misses: np.ndarray) -> List[Tuple[Node, ...]]:
        """Invoke the API for a batch's misses, in one accounting operation.

        *misses* are the requested ids the discovered graph cannot answer,
        in input order.  Their distinct ids, in first-appearance order,
        are validated, then split into new ids and ids already paid for
        (by a profile fetch).  The invocations a scalar sequence would
        complete before its first over-budget charge are rate-limited,
        charged, logged, fetched and stored; then exhaustion raises.  On
        the cacheable path each distinct id is one invocation whose row
        is recorded.  Under type-1 every occurrence is one, and the fresh
        rows come back in input order.
        """
        cacheable = self.cacheable
        order = misses.tolist()
        distinct = list(dict.fromkeys(order))
        for node in distinct:
            if not self._graph.has_node(node):
                raise NodeNotFoundError(node)
        new = ~self.counter.seen_many(distinct)
        requested = int(new.sum())
        affordable = self.budget.affordable(self.counter, requested)
        exhausted = affordable < requested
        if exhausted:
            cutoff = int(np.flatnonzero(new)[affordable])
            if not cacheable:
                order = order[: order.index(distinct[cutoff])]
            distinct = distinct[:cutoff]
        calls = distinct if cacheable else order
        if self.rate_limiter is not None and calls:
            self.rate_limiter.acquire_or_wait_many(len(calls))
        self.counter.charge_batch(distinct)
        self.counter.record_raw(len(calls) - len(distinct))
        self.log.record_many(calls)
        rows: List[Tuple[Node, ...]] = []
        for node in calls:
            row = self._graph.neighbors(node)
            if self.restriction is not None:
                row = self.restriction.apply(node, row)
            if cacheable:
                self.discovered.record(node, row)
            else:
                self.discovered.mark(node, row)
                rows.append(row)
        if exhausted:
            raise QueryBudgetExceededError(self.budget.limit, self.counter.unique_nodes)
        return rows

    # ------------------------------------------------------------------
    # Free metadata
    # ------------------------------------------------------------------
    def has_node(self, node: Node) -> bool:
        """Existence check (id validity is free: a failed fetch costs nothing)."""
        return self._graph.has_node(node)

    @property
    def query_cost(self) -> int:
        """Unique-node query cost so far (the paper's measure)."""
        return self.counter.unique_nodes

    @property
    def raw_calls(self) -> int:
        """Number of real API invocations (cache hits excluded)."""
        return self.counter.raw_calls

    def snapshot(self) -> QueryCounterSnapshot:
        """Counter snapshot for per-phase attribution (see
        :meth:`~repro.osn.accounting.QueryCounter.delta`)."""
        return self.counter.snapshot()

    def reset_accounting(self) -> None:
        """Zero the counters and cache (new measurement epoch)."""
        self.counter.reset()
        self.log.clear()
        self.discovered.clear()
        if self.restriction is not None:
            self.restriction.reset()

    def __repr__(self) -> str:
        return (
            f"SocialNetworkAPI(graph={self._graph.name!r}, "
            f"cost={self.query_cost}, raw={self.raw_calls})"
        )


class APIWrapper:
    """Base for wrappers that sit in front of a charged API's surface.

    Everything but the two batch calls passes straight through to
    :attr:`api`, so a wrapper is invisible to the §2.4 cost model: the
    accounting, cache, budget and rate limiter stay the inner API's.
    ``neighbors_batch`` and ``degrees_batch`` go through :meth:`_batch`,
    the one hook a subclass overrides
    (:class:`~repro.osn.resilience.ResilientAPI` retries there,
    :class:`~repro.faults.api.FaultyAPI` injects faults there).
    """

    def __init__(self, api) -> None:
        self.api = api

    def _batch(self, op: str, call, nodes):
        """Run one batch *call*; *op* is ``"neighbors"`` or ``"degrees"``."""
        return call(nodes)

    def neighbors_batch(self, nodes):
        """:meth:`SocialNetworkAPI.neighbors_batch` through :meth:`_batch`."""
        return self._batch("neighbors", self.api.neighbors_batch, nodes)

    def degrees_batch(self, nodes):
        """:meth:`SocialNetworkAPI.degrees_batch` through :meth:`_batch`."""
        return self._batch("degrees", self.api.degrees_batch, nodes)

    def neighbors(self, node):
        """Scalar pass-through (wrappers act on the batch grain only)."""
        return self.api.neighbors(node)

    def degree(self, node) -> int:
        """Scalar pass-through."""
        return self.api.degree(node)

    def attribute(self, node, name: str):
        """Scalar pass-through."""
        return self.api.attribute(node, name)

    def has_node(self, node) -> bool:
        """Free existence check, delegated."""
        return self.api.has_node(node)

    @property
    def discovered(self):
        """The inner API's shared discovered graph."""
        return self.api.discovered

    @property
    def counter(self):
        """The inner API's query counter."""
        return self.api.counter

    @property
    def budget(self):
        """The inner API's query budget."""
        return self.api.budget

    @property
    def rate_limiter(self):
        """The inner API's token bucket (or None)."""
        return self.api.rate_limiter

    @property
    def cacheable(self) -> bool:
        """Whether the inner API's responses are call-stable."""
        return self.api.cacheable

    @property
    def restriction(self):
        """The inner API's neighbor restriction (or None)."""
        return self.api.restriction

    @property
    def query_cost(self) -> int:
        """The inner API's unique-node cost."""
        return self.api.query_cost

    @property
    def raw_calls(self) -> int:
        """The inner API's raw invocation count."""
        return self.api.raw_calls

    def snapshot(self):
        """The inner counter's snapshot (phase attribution)."""
        return self.api.snapshot()


def _node_array(nodes) -> np.ndarray:
    """*nodes* as a 1-d int64 array (the batch grain's one input shape)."""
    order = np.asarray(nodes, dtype=np.int64)
    if order.ndim != 1:
        raise ConfigurationError(f"nodes must be 1-d, got shape {tuple(order.shape)}")
    return order
