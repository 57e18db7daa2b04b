"""The batch grain pinned to its previous implementation, kept as a reference.

``ReferenceCounter`` and ``ReferenceAPI`` below hold the previous
``QueryCounter.seen_many`` / ``charge_batch`` (a binary search over a
sorted mirror of the charged ids, rebuilt after every scalar charge and
grown by ``np.insert`` on every batch) and the previous
``SocialNetworkAPI.neighbors_batch`` / ``_invoke_batch`` /
``degrees_batch`` (validate and sort the whole batch, and answer degree
misses through a nested ``neighbors_batch``) verbatim.  The current grain
looks a batch up once and settles only its misses against the counter's
set.  Every test here demands the same answers, charges, raw calls, log,
clock, cache contents and exceptions from both, one call at a time and
over whole WALK-ESTIMATE campaigns.
"""

from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.arrays import sorted_lookup
from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig
from repro.errors import ConfigurationError, NodeNotFoundError, QueryBudgetExceededError
from repro.faults import FaultPlan, FaultRule, FaultyAPI
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.graph import Node
from repro.osn import ResilientAPI, RetryPolicy
from repro.osn.accounting import QueryBudget, QueryCounter
from repro.osn.api import SocialNetworkAPI
from repro.osn.ratelimit import TokenBucketRateLimiter, VirtualClock
from repro.osn.restrictions import (
    FixedRandomKRestriction,
    RandomKRestriction,
    TruncatedKRestriction,
)


class ReferenceCounter(QueryCounter):
    """The previous batch grain of :class:`QueryCounter`."""

    def __init__(self) -> None:
        super().__init__()
        self._seen_ids: Optional[np.ndarray] = None

    def seen_ids(self) -> np.ndarray:
        """Sorted array of every charged node id (rebuilt lazily on growth)."""
        if self._seen_ids is None:
            self._seen_ids = np.fromiter(
                self._seen, dtype=np.int64, count=len(self._seen)
            )
            self._seen_ids.sort()
        return self._seen_ids

    def seen_many(self, nodes) -> np.ndarray:
        """Vectorized :meth:`seen`: boolean mask for an array of node ids."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return sorted_lookup(self.seen_ids(), nodes)[1]

    def charge(self, node: int) -> bool:
        """Record an access to *node*; returns True if it was a new node."""
        self._raw_calls += 1
        if node in self._seen:
            return False
        self._seen.add(node)
        self._seen_ids = None
        return True

    def charge_batch(self, nodes) -> np.ndarray:
        """Record one access per entry of *nodes* in a single operation.

        Returns the mask of entries that charged a *new* unique node
        (duplicates within the batch charge on their first occurrence
        only, exactly as the equivalent sequence of :meth:`charge` calls
        would).  Raw calls grow by ``len(nodes)``.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        self._raw_calls += int(nodes.size)
        if nodes.size == 0:
            return np.zeros(0, dtype=bool)
        new = ~self.seen_many(nodes)
        if np.any(new):
            first = np.zeros(nodes.size, dtype=bool)
            first[np.unique(nodes, return_index=True)[1]] = True
            new &= first
            fresh = nodes[new]
            self._seen.update(fresh.tolist())
            if self._seen_ids is not None:
                # Linear merge instead of invalidate-and-resort: keeps a
                # long campaign's per-batch accounting at O(S + k log S)
                # rather than O(S log S) per level.
                fresh = np.sort(fresh)
                self._seen_ids = np.insert(
                    self._seen_ids, np.searchsorted(self._seen_ids, fresh), fresh
                )
        return new


class ReferenceAPI(SocialNetworkAPI):
    """The previous batch grain of :class:`SocialNetworkAPI`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.counter = ReferenceCounter()

    def neighbors_batch(self, nodes) -> List[Tuple[Node, ...]]:
        """Visible neighbor rows for an array of nodes, settled as one batch.

        Semantically equivalent to ``[self.neighbors(v) for v in nodes]``
        — same unique-node charges, same raw-call count, same cache
        contents afterwards — but the accounting happens once for the
        whole batch: one vectorized membership test against the
        discovered graph, one counter charge, one rate-limiter
        acquisition, one budget decision.  Node-id validity is checked up
        front for the entire batch (a failed lookup is free, §2.4), so an
        unknown id raises before anything is charged.

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
        order = np.asarray(nodes, dtype=np.int64)
        if order.ndim != 1:
            raise ConfigurationError(
                f"nodes must be 1-d, got shape {tuple(order.shape)}"
            )
        if order.size == 0:
            return []
        for node in order.tolist():
            if not self._graph.has_node(node):
                raise NodeNotFoundError(node)
        unique_sorted, first_index = np.unique(order, return_index=True)
        appearance = np.argsort(first_index, kind="stable")
        unique = unique_sorted[appearance]
        firsts = first_index[appearance]
        if self.cacheable:
            uncached = ~self.discovered.fetched_mask(unique)
            to_invoke, firsts = unique[uncached], firsts[uncached]
        else:
            to_invoke = unique
        new_mask = ~self.counter.seen_many(to_invoke)
        requested = int(new_mask.sum())
        affordable = self.budget.affordable(self.counter, requested)
        exhausted = affordable < requested
        occurrences = None if self.cacheable else order
        if exhausted:
            # Process exactly the invocations a scalar sequence would have
            # completed before the first over-budget charge.
            cutoff = int(np.flatnonzero(np.cumsum(new_mask) > affordable)[0])
            if occurrences is not None:
                occurrences = order[: int(firsts[cutoff])]
            to_invoke = to_invoke[:cutoff]
        rows = self._invoke_batch(to_invoke, occurrences)
        if exhausted:
            raise QueryBudgetExceededError(self.budget.limit, self.counter.unique_nodes)
        if self.cacheable:
            lookup = {int(n): self.discovered.neighbors(int(n)) for n in unique}
            return [lookup[int(n)] for n in order.tolist()]
        # Type-1: every occurrence got its own fresh subset, in input order.
        return rows

    def _invoke_batch(
        self, to_invoke: np.ndarray, occurrences: Optional[np.ndarray]
    ) -> List[Tuple[Node, ...]]:
        """Rate-limit, charge, log, fetch, and cache one batch of invocations.

        *occurrences* is None on the cacheable path (one invocation per
        unique node); under type-1 it is the occurrence array and every
        entry is invoked separately.  Returns the per-invocation rows of
        the type-1 path (empty list otherwise — cacheable callers read
        the discovered graph instead).
        """
        calls = int(to_invoke.size if occurrences is None else occurrences.size)
        if self.rate_limiter is not None and calls:
            self.rate_limiter.acquire_or_wait_many(calls)
        self.counter.charge_batch(to_invoke)
        self.counter.record_raw(calls - int(to_invoke.size))
        rows: List[Tuple[Node, ...]] = []
        if occurrences is None:
            self.log.record_many(to_invoke)
            for node in to_invoke.tolist():
                row = self._graph.neighbors(node)
                if self.restriction is not None:
                    row = self.restriction.apply(node, row)
                self.discovered.record(node, row)
        else:
            self.log.record_many(occurrences)
            for node in occurrences.tolist():
                row = self.restriction.apply(node, self._graph.neighbors(node))
                self.discovered.mark(node, row)
                rows.append(row)
        return rows

    def degrees_batch(self, nodes) -> np.ndarray:
        """Visible degrees for an array of nodes, settled as one batch.

        Nodes whose rows are already in the discovered graph are answered
        by one array gather without touching the API; only genuinely new
        nodes are fetched (and charged) via :meth:`neighbors_batch`.
        """
        arr = np.asarray(nodes, dtype=np.int64)
        if arr.ndim != 1:
            raise ConfigurationError(f"nodes must be 1-d, got shape {tuple(arr.shape)}")
        if not self.cacheable:
            rows = self.neighbors_batch(arr)
            return np.fromiter((len(r) for r in rows), dtype=np.int64, count=arr.size)
        out, known = self.discovered.try_degrees(arr)
        if not np.all(known):
            rows = self.neighbors_batch(arr[~known])
            out[~known] = np.fromiter(
                (len(r) for r in rows), dtype=np.int64, count=int((~known).sum())
            )
        return out


# ----------------------------------------------------------------------
# One call at a time
# ----------------------------------------------------------------------
HIDDEN = barabasi_albert_graph(40, 3, seed=11).relabeled()
HIDDEN.set_attribute("x", {node: float(node) for node in HIDDEN.nodes()})
UNKNOWN = (-1, 40, 1 << 40)
#: Mostly ids the network has, now and then one it does not.
IDS = st.integers(0, 42).map(lambda i: i if i < 40 else UNKNOWN[i - 40])
OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["neighbors", "attribute"]), IDS),
        st.tuples(
            st.sampled_from(["neighbors_batch", "degrees_batch"]),
            st.lists(IDS, max_size=10),
        ),
    ),
    max_size=20,
)
RESTRICTIONS = {
    "none": lambda seed: None,
    "type-1": lambda seed: RandomKRestriction(2, seed=seed),
    "type-2": lambda seed: FixedRandomKRestriction(2, seed=seed),
    "type-3": lambda seed: TruncatedKRestriction(2),
}


def make_pair(restriction="none", budget=None, rate_limited=False, log_queries=False):
    """The current API and the reference, configured alike."""

    def build(cls):
        limiter = None
        if rate_limited:
            limiter = TokenBucketRateLimiter(3, 10.0, clock=VirtualClock())
        return cls(
            HIDDEN,
            budget=QueryBudget(budget),
            restriction=RESTRICTIONS[restriction](5),
            rate_limiter=limiter,
            log_queries=log_queries,
        )

    return build(SocialNetworkAPI), build(ReferenceAPI)


def outcome(api, op, arg):
    """What one call returned or raised, in comparable form."""
    try:
        if op == "neighbors":
            result = api.neighbors(arg)
        elif op == "attribute":
            result = api.attribute(arg, "x")
        else:
            result = getattr(api, op)(np.asarray(arg, dtype=np.int64))
    except Exception as error:  # the reference decides what is right
        return "raised", type(error), error.args
    if isinstance(result, np.ndarray):
        return "array", result.dtype, result.tolist()
    return "value", result


def observed(api):
    """Everything the accounting and the cache expose."""
    rows = api.discovered.snapshot_rows()
    clock = None if api.rate_limiter is None else api.rate_limiter.clock.now
    return (
        api.counter.state(),
        api.raw_calls,
        list(api.log.entries),
        clock,
        {key: value.tolist() for key, value in rows.items()},
        api.discovered.member_ids().tolist(),
    )


@settings(max_examples=150, deadline=None)
@given(
    ops=OPS,
    restriction=st.sampled_from(sorted(RESTRICTIONS)),
    budget=st.one_of(st.none(), st.integers(0, 30)),
    rate_limited=st.booleans(),
    log_queries=st.booleans(),
)
def test_interleaved_calls_match_reference(
    ops, restriction, budget, rate_limited, log_queries
):
    api, reference = make_pair(restriction, budget, rate_limited, log_queries)
    for op, arg in ops:
        assert outcome(api, op, arg) == outcome(reference, op, arg), (op, arg)
        assert observed(api) == observed(reference), (op, arg)


@pytest.mark.parametrize("restriction", sorted(RESTRICTIONS))
def test_budget_runs_out_mid_batch(restriction):
    # 5 is paid for by a profile fetch, 7 repeats, and the budget covers
    # two of the four new ids: both APIs invoke 7, 5 and 9 (under type-1
    # every occurrence, so 7 twice), then raise.
    api, reference = make_pair(restriction, budget=3, rate_limited=True)
    batch = [7, 5, 7, 9, 11, 12]
    for view in (api, reference):
        view.attribute(5, "x")
        with pytest.raises(QueryBudgetExceededError):
            view.neighbors_batch(np.asarray(batch))
    assert observed(api) == observed(reference)
    assert api.counter.state()[0] == (5, 7, 9)
    assert api.raw_calls == 1 + (3 if api.cacheable else 4)


@pytest.mark.parametrize("op", ["neighbors_batch", "degrees_batch"])
def test_unknown_id_raises_before_any_charge(op):
    api, reference = make_pair(budget=10, rate_limited=True, log_queries=True)
    for view in (api, reference):
        view.neighbors_batch(np.asarray([3]))
    before = observed(api)
    batch = [3, 8, 1 << 40, 9]
    assert outcome(api, op, batch) == outcome(reference, op, batch)
    assert outcome(api, op, batch)[1] is NodeNotFoundError
    assert observed(api) == observed(reference) == before


@pytest.mark.parametrize("op", ["neighbors_batch", "degrees_batch"])
def test_bad_shape_matches_reference(op):
    api, reference = make_pair()
    batch = [[1, 2], [3, 4]]
    assert outcome(api, op, batch) == outcome(reference, op, batch)
    assert outcome(api, op, batch)[1] is ConfigurationError


def test_degrees_batch_settles_misses_without_a_nested_call():
    api, reference = make_pair()
    calls = []
    for view in (api, reference):
        view.neighbors_batch = counted(view, calls)
        view.degrees_batch(np.asarray([4, 6, 4, 2]))
    assert calls == [reference]
    assert observed(api) == observed(reference)


def counted(view, calls):
    """*view*'s ``neighbors_batch``, appending *view* to *calls* per call."""
    inner = view.neighbors_batch

    def neighbors_batch(nodes):
        calls.append(view)
        return inner(nodes)

    return neighbors_batch


# ----------------------------------------------------------------------
# Whole campaigns
# ----------------------------------------------------------------------
CAMPAIGN_GRAPH = barabasi_albert_graph(300, 3, seed=5).relabeled()
#: The charged benchmark workload's walk settings.
WALK = WalkEstimateConfig(
    crawl_hops=1, diameter_hint=4, backward_repetitions=6, calibration_walks=10
)
DESIGNS = {
    "srw": "srw",
    "mhrw": "mhrw",
    "maxdeg": {
        "name": "maxdeg",
        "max_degree": max(CAMPAIGN_GRAPH.degree(n) for n in CAMPAIGN_GRAPH.nodes()),
    },
    "lazy-srw": {"name": "lazy", "laziness": 0.5, "inner": "srw"},
}
#: Before- and after-phase failures, a timeout, a rate limit and slow
#: responses, each short enough for the retry policy to ride out.
PLAN = FaultPlan(
    rules=(
        FaultRule(kind="error", first_call=2, last_call=3),
        FaultRule(kind="timeout", phase="after", first_call=7, last_call=7),
        FaultRule(kind="rate_limit", delay=3.0, first_call=12, last_call=12),
        FaultRule(kind="slow", delay=1.0, jitter=0.5, first_call=15, last_call=40),
        FaultRule(
            kind="error", phase="after", op="degrees", first_call=60, last_call=61
        ),
    ),
    seed=9,
)
POLICY = RetryPolicy(max_attempts=3, base_backoff=0.25, jitter=0.1)


def campaign(api, design):
    spec = EstimationJobSpec(
        design=DESIGNS[design],
        samples=6,
        walk=WALK,
        engine=EngineConfig(backend="charged"),
    )
    rng = np.random.default_rng(3)
    return repro.estimate(spec, api=api, seed=rng), rng


_BUDGETS = {}


def mid_level_budget(design):
    """A budget that runs out inside a backward level charging ≥ 2 nodes."""
    if design not in _BUDGETS:
        api = SocialNetworkAPI(CAMPAIGN_GRAPH)
        degrees_batch = api.degrees_batch
        levels = []

        def recording(nodes):
            before = api.counter.unique_nodes
            degrees = degrees_batch(nodes)
            if api.counter.unique_nodes - before >= 2:
                levels.append(before)
            return degrees

        api.degrees_batch = recording
        campaign(api, design)
        _BUDGETS[design] = levels[len(levels) // 2] + 1
    return _BUDGETS[design]


@pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "faulty-resilient"])
@pytest.mark.parametrize("budgeted", [False, True], ids=["unbudgeted", "mid-level"])
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_campaign_matches_reference(design, budgeted, wrapped):
    budget = mid_level_budget(design) if budgeted else None
    runs, kinds = [], set()
    for cls in (SocialNetworkAPI, ReferenceAPI):
        api = cls(CAMPAIGN_GRAPH, budget=QueryBudget(budget))
        view, faulty = api, None
        if wrapped:
            faulty = FaultyAPI(api, PLAN)
            view = ResilientAPI(faulty, POLICY, seed=4)
        result, rng = campaign(view, design)
        if faulty is not None:
            kinds.update(fault.kind for _, _, fault in faulty.history)
        runs.append(
            (
                result.nodes.tolist(),
                result.weights.tolist(),
                result.query_cost,
                result.attempts,
                result.walk_steps,
                api.counter.state(),
                api.raw_calls,
                rng.bit_generator.state,
                None if faulty is None else (faulty.calls, faulty.history),
                None if faulty is None else (view.retries, view.clock.now),
            )
        )
    assert runs[0] == runs[1]
    if budgeted:
        assert runs[0][2] == budget
    assert kinds == ({"error", "timeout", "rate_limit", "slow"} if wrapped else set())
