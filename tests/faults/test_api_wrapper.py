"""Both charged-API wrappers pass their whole non-batch surface through.

:class:`~repro.faults.api.FaultyAPI` and
:class:`~repro.osn.resilience.ResilientAPI` share one delegation base
(:class:`~repro.osn.api.APIWrapper`).  Every member below must return
what the inner API returns, so neither wrapper can change the §2.4 cost
model's view of the network.
"""

import pytest

from repro.faults import FaultPlan, FaultyAPI
from repro.graphs.generators import barabasi_albert_graph
from repro.osn import ResilientAPI
from repro.osn.accounting import QueryBudget
from repro.osn.api import SocialNetworkAPI
from repro.osn.ratelimit import TokenBucketRateLimiter
from repro.osn.restrictions import TruncatedKRestriction

WRAPPERS = {
    "faulty": lambda api: FaultyAPI(api, FaultPlan(rules=())),
    "resilient": lambda api: ResilientAPI(api),
}

#: Every delegated member, read the same way off the wrapper and the
#: inner API.  Charged reads go first on the wrapper, so the inner read
#: is the cache hit of the same answer.
MEMBERS = {
    "neighbors": lambda api: api.neighbors(3),
    "degree": lambda api: api.degree(5),
    "attribute": lambda api: api.attribute(7, "score"),
    "has_node": lambda api: api.has_node(9),
    "snapshot": lambda api: api.snapshot(),
    "discovered": lambda api: api.discovered,
    "counter": lambda api: api.counter,
    "budget": lambda api: api.budget,
    "rate_limiter": lambda api: api.rate_limiter,
    "cacheable": lambda api: api.cacheable,
    "restriction": lambda api: api.restriction,
    "query_cost": lambda api: api.query_cost,
    "raw_calls": lambda api: api.raw_calls,
}

#: Members whose value is a live object of the inner API, not a copy.
SHARED_OBJECTS = {"discovered", "counter", "budget", "rate_limiter", "restriction"}


@pytest.fixture(scope="module")
def hidden():
    graph = barabasi_albert_graph(40, 3, seed=4).relabeled()
    graph.set_attribute("score", {node: float(node) / 8 for node in graph.nodes()})
    return graph


def inner_api(hidden):
    # Non-default budget, limiter and restriction, so an identity check
    # cannot pass on two Nones.
    api = SocialNetworkAPI(
        hidden,
        budget=QueryBudget(30),
        restriction=TruncatedKRestriction(2),
        rate_limiter=TokenBucketRateLimiter(100, 60.0),
    )
    api.neighbors_batch([0, 1, 2])  # some charges, rows and raw calls to read
    return api


@pytest.mark.parametrize("member", list(MEMBERS))
@pytest.mark.parametrize("wrapper", list(WRAPPERS))
def test_member_returns_the_inner_apis_value(hidden, wrapper, member):
    api = inner_api(hidden)
    wrapped = WRAPPERS[wrapper](api)
    read = MEMBERS[member]
    through_wrapper = read(wrapped)
    direct = read(api)
    if member in SHARED_OBJECTS:
        assert through_wrapper is direct
    else:
        assert through_wrapper == direct
