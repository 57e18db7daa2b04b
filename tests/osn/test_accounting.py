"""Query counters, budgets, and logs."""

import re

import pytest

from repro.errors import ConfigurationError, QueryBudgetExceededError
from repro.osn.accounting import QueryBudget, QueryCounter, QueryLog, TenantLedger


def test_counter_unique_vs_raw():
    counter = QueryCounter()
    assert counter.charge(1) is True
    assert counter.charge(1) is False
    assert counter.charge(2) is True
    assert counter.unique_nodes == 2
    assert counter.raw_calls == 3


def test_counter_seen_and_reset():
    counter = QueryCounter()
    counter.charge(5)
    assert counter.seen(5) and not counter.seen(6)
    counter.reset()
    assert counter.unique_nodes == 0 and counter.raw_calls == 0


def test_snapshot_cost_delta():
    counter = QueryCounter()
    counter.charge(1)
    before = counter.snapshot()
    counter.charge(2)
    counter.charge(3)
    counter.charge(2)  # repeat, free
    after = counter.snapshot()
    assert before.cost_since(after) == 2


def test_budget_allows_cached_nodes():
    counter = QueryCounter()
    budget = QueryBudget(1)
    budget.check(counter, 7)
    counter.charge(7)
    # Re-touching node 7 must not raise even though the budget is spent.
    budget.check(counter, 7)
    with pytest.raises(QueryBudgetExceededError):
        budget.check(counter, 8)


def test_budget_unlimited():
    counter = QueryCounter()
    budget = QueryBudget(None)
    for node in range(1000):
        budget.check(counter, node)
        counter.charge(node)
    assert budget.remaining(counter) is None


def test_budget_remaining():
    counter = QueryCounter()
    budget = QueryBudget(3)
    assert budget.remaining(counter) == 3
    counter.charge(0)
    assert budget.remaining(counter) == 2


def test_budget_rejects_negative_limit():
    with pytest.raises(ValueError):
        QueryBudget(-1)


def test_query_log_enabled_and_disabled():
    enabled = QueryLog(enabled=True)
    enabled.record(4)
    enabled.record(4)
    assert enabled.entries == [4, 4]
    enabled.clear()
    assert enabled.entries == []

    disabled = QueryLog(enabled=False)
    disabled.record(4)
    assert disabled.entries == []


def test_counter_state_is_canonical_and_order_free():
    a, b = QueryCounter(), QueryCounter()
    for node in (5, 1, 9):
        a.charge(node)
    for node in (9, 5, 1):
        b.charge(node)
    assert a.state() == b.state() == ((1, 5, 9), 3)
    # Raw calls distinguish otherwise-equal charge sets.
    b.charge(1)
    assert a.state() != b.state()


def test_counter_state_matches_batch_equivalent():
    import numpy as np

    scalar, batched = QueryCounter(), QueryCounter()
    for node in (3, 3, 7, 2):
        scalar.charge(node)
    batched.charge_batch(np.array([3, 3, 7, 2]))
    assert scalar.state() == batched.state()


def test_counter_restore_adopts_a_state_as_given():
    source = QueryCounter()
    for node in (9, -1, 4, 9):
        source.charge(node)
    restored = QueryCounter()
    restored.restore(*source.state())
    assert restored.state() == source.state() == ((-1, 4, 9), 4)
    assert restored.seen(-1) and not restored.seen(5)


@pytest.mark.parametrize(
    "seen, raw_calls, field",
    [
        ([1.5], 2, "seen[0]"),
        ([1, "7"], 2, "seen[1]"),
        ([True], 1, "seen[0]"),
        ([1], 2.9, "raw_calls"),
        ([1], False, "raw_calls"),
        ([1], "3", "raw_calls"),
    ],
    ids=["float-id", "str-id", "bool-id", "float-calls", "bool-calls", "str-calls"],
)
def test_counter_restore_refuses_what_it_would_cast(seen, raw_calls, field):
    counter = QueryCounter()
    counter.charge(5)
    with pytest.raises(ConfigurationError, match=re.escape(repr(field))):
        counter.restore(seen, raw_calls)
    assert counter.state() == ((5,), 1)  # a refusal leaves the state alone


def test_ledger_restore_adopts_books_as_given():
    counter = QueryCounter()
    counter.restore([1, 2, 3], 3)
    ledger = TenantLedger(counter)
    ledger.restore(1, {"alice": 2})
    assert ledger.baseline == 1 and ledger.charges() == {"alice": 2}
    ledger.assert_balanced()


@pytest.mark.parametrize(
    "baseline, charges, field",
    [
        (0, {7: 1}, "tenants[0]"),
        (0, {"alice": 1.0}, "charges[0]"),
        (0, {"alice": True}, "charges[0]"),
        (1, {"alice": -1}, "charges[0]"),
        (1.0, {}, "baseline"),
        (True, {}, "baseline"),
    ],
    ids=[
        "int-tenant",
        "float-charge",
        "bool-charge",
        "negative-charge",
        "float-baseline",
        "bool-baseline",
    ],
)
def test_ledger_restore_refuses_what_it_would_cast(baseline, charges, field):
    counter = QueryCounter()
    counter.restore([4], 1)
    ledger = TenantLedger(counter)
    with pytest.raises(ConfigurationError, match=re.escape(repr(field))):
        ledger.restore(baseline, charges)
    assert ledger.baseline == 1 and ledger.charges() == {}
