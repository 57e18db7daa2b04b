"""ResilientAPI: retry/backoff/circuit-breaking with exactly-once charging.

The headline invariant of the resilience layer: a failed-then-retried
batch charges :class:`QueryCounter` / :class:`TenantLedger` exactly once,
and ``assert_balanced`` holds through any scripted storm.
"""

import numpy as np
import pytest

from repro.errors import (
    APITimeoutError,
    CircuitOpenError,
    ConfigurationError,
    TransientAPIError,
)
from repro.faults import FaultPlan, FaultRule, FaultyAPI
from repro.graphs.generators import barabasi_albert_graph
from repro.osn import CircuitBreaker, ResilientAPI, RetryPolicy
from repro.osn.accounting import TenantLedger
from repro.osn.api import SocialNetworkAPI

#: Deterministic waits for most scenarios: no jitter, tight schedule.
POLICY = RetryPolicy(max_attempts=5, base_backoff=0.5, jitter=0.0)


@pytest.fixture(scope="module")
def hidden():
    return barabasi_albert_graph(60, 3, seed=17).relabeled()


def storm(hidden, *rules, policy=POLICY, seed=0, plan_seed=0, **kwargs):
    api = SocialNetworkAPI(hidden)
    faulty = FaultyAPI(api, FaultPlan(rules=tuple(rules), seed=plan_seed))
    return ResilientAPI(faulty, policy, seed=seed, **kwargs)


class TestPolicyValue:
    def test_validation(self):
        cases = [
            dict(max_attempts=0),
            dict(base_backoff=-1.0),
            dict(backoff_factor=0.5),
            dict(max_backoff=0.1, base_backoff=1.0),
            dict(jitter=1.0),
            dict(call_timeout=0.0),
            dict(circuit_threshold=0),
            dict(circuit_reset_seconds=0.0),
        ]
        for bad in cases:
            with pytest.raises(ConfigurationError):
                RetryPolicy(**bad)

    def test_dict_round_trip_and_unknown_keys(self):
        policy = RetryPolicy(max_attempts=7, call_timeout=12.0, jitter=0.2)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(ConfigurationError, match="unknown RetryPolicy keys"):
            RetryPolicy.from_dict({"max_retries": 3})
        assert policy.with_overrides(jitter=0.0).jitter == 0.0

    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(
            base_backoff=1.0, backoff_factor=2.0, max_backoff=5.0, jitter=0.0
        )
        rng = np.random.default_rng(0)
        assert [policy.backoff_for(n, rng) for n in range(1, 6)] == [
            1.0,
            2.0,
            4.0,
            5.0,
            5.0,
        ]

    def test_jittered_backoff_stays_in_band_and_replays(self):
        policy = RetryPolicy(base_backoff=2.0, jitter=0.5)

        def series(seed):
            rng = np.random.default_rng(seed)
            return [policy.backoff_for(1, rng) for _ in range(10)]

        first = series(4)
        assert series(4) == first
        assert all(1.0 <= w <= 3.0 for w in first)


class TestExactlyOnceCharging:
    def test_retried_batch_charges_counter_exactly_once(self, hidden):
        for phase in ("before", "after"):
            api = storm(
                hidden,
                FaultRule(kind="error", phase=phase, first_call=0, last_call=2),
            )
            rows = api.neighbors_batch([0, 1, 2])
            assert len(rows) == 3
            assert api.query_cost == 3
            assert api.retries == 3
            assert api.failed_attempts == 3

    def test_ledger_stays_balanced_through_a_storm(self, hidden):
        api = storm(
            hidden,
            FaultRule(kind="error", phase="after", first_call=1, last_call=2),
        )
        ledger = TenantLedger(api.counter)
        with ledger.attribute("alice"):
            api.neighbors_batch([0, 1])
        with ledger.attribute("bob"):
            api.neighbors_batch([2, 3])  # faulted twice, retried, settled
        ledger.assert_balanced()
        assert ledger.charges() == {"alice": 2, "bob": 2}
        assert sum(ledger.charges().values()) == api.query_cost

    def test_exhausted_attempts_reraise_without_double_charge(self, hidden):
        api = storm(
            hidden,
            FaultRule(kind="error", phase="after"),
            policy=POLICY.with_overrides(max_attempts=2, circuit_threshold=99),
        )
        with pytest.raises(TransientAPIError):
            api.neighbors_batch([0, 1])
        # Both attempts settled backend-side; the cache absorbed the second.
        assert api.query_cost == 2
        assert api.failed_attempts == 2
        assert api.retries == 1


class TestWaiting:
    def test_backoff_accumulates_in_the_mirror_channel(self, hidden):
        api = storm(
            hidden, FaultRule(kind="error", first_call=0, last_call=1)
        )
        api.neighbors_batch([0])
        # Two retries: 0.5 then 1.0 simulated seconds of backoff.
        assert api.consume_mirror_wait() == pytest.approx(1.5)
        assert api.clock.now == pytest.approx(1.5)
        assert api.consume_mirror_wait() == 0.0

    def test_rate_limit_storm_honors_retry_after(self, hidden):
        api = storm(
            hidden,
            FaultRule(kind="rate_limit", delay=30.0, first_call=0, last_call=0),
        )
        api.neighbors_batch([0])
        assert api.consume_mirror_wait() == pytest.approx(30.0)

    def test_slow_inner_wait_is_mirrored_through(self, hidden):
        api = storm(hidden, FaultRule(kind="slow", delay=4.0, last_call=0))
        api.neighbors_batch([0])
        assert api.consume_mirror_wait() == pytest.approx(4.0)

    def test_call_timeout_abandons_listening_and_retries_free(self, hidden):
        api = storm(
            hidden,
            FaultRule(kind="slow", delay=10.0, first_call=0, last_call=0),
            policy=POLICY.with_overrides(call_timeout=3.0),
        )
        rows = api.neighbors_batch([0, 1])
        assert len(rows) == 2
        assert api.timeouts == 1
        assert api.query_cost == 2  # the late response was cached; retry free
        # Mirrors the timeout (3.0) + backoff (0.5), not the full 10s.
        assert api.consume_mirror_wait() == pytest.approx(3.5)

    def test_call_timeout_exhaustion_raises_timeout(self, hidden):
        api = storm(
            hidden,
            FaultRule(kind="slow", delay=10.0),
            policy=POLICY.with_overrides(call_timeout=3.0, max_attempts=2),
        )
        with pytest.raises(APITimeoutError):
            api.neighbors_batch([0])


class TestCircuitBreaker:
    def test_opens_at_threshold_and_fails_fast(self, hidden):
        api = storm(
            hidden,
            FaultRule(kind="error"),
            policy=POLICY.with_overrides(
                max_attempts=2, circuit_threshold=2, circuit_reset_seconds=60.0
            ),
        )
        with pytest.raises(TransientAPIError):
            api.neighbors_batch([0])
        assert api.circuit_opens == 1
        # While open, calls fail fast without touching the network.
        calls_before = api.api.calls
        with pytest.raises(CircuitOpenError) as excinfo:
            api.neighbors_batch([0])
        assert api.api.calls == calls_before
        assert excinfo.value.retry_after == pytest.approx(60.0)

    def test_half_open_trial_closes_on_success(self, hidden):
        api = storm(
            hidden,
            FaultRule(kind="error", first_call=0, last_call=1),
            policy=POLICY.with_overrides(
                max_attempts=2, circuit_threshold=2, circuit_reset_seconds=60.0
            ),
        )
        with pytest.raises(TransientAPIError):
            api.neighbors_batch([0])
        api.clock.advance(60.0)
        # The trial call passes through (the storm has cleared) and closes
        # the breaker.
        assert api.neighbors_batch([0]) is not None
        breaker = api.breaker("default")
        assert breaker.open_until is None
        assert breaker.consecutive_failures == 0

    def test_breakers_are_per_tenant(self, hidden):
        api = storm(
            hidden,
            FaultRule(kind="error", op="degrees"),
            policy=POLICY.with_overrides(max_attempts=2, circuit_threshold=2),
        )
        api.set_tenant("alice")
        with pytest.raises(TransientAPIError):
            api.degrees_batch([0])
        with pytest.raises(CircuitOpenError):
            api.degrees_batch([0])
        # Bob's breaker is untouched; his neighbors calls go through.
        api.set_tenant("bob")
        assert api.neighbors_batch([0]) is not None
        assert api.breaker("alice").opens == 1
        assert api.breaker("bob").opens == 0

    def test_breaker_unit_state_machine(self):
        policy = RetryPolicy(circuit_threshold=2, circuit_reset_seconds=10.0)
        breaker = CircuitBreaker("t", policy)
        breaker.record_failure(0.0)
        breaker.check(0.0)  # one failure: still closed
        breaker.record_failure(0.0)
        with pytest.raises(CircuitOpenError):
            breaker.check(5.0)
        breaker.check(10.0)  # half-open trial allowed
        breaker.record_success()
        assert breaker.open_until is None

    def test_tenant_must_be_non_empty(self, hidden):
        api = storm(hidden)
        with pytest.raises(ConfigurationError):
            api.set_tenant("")
        with pytest.raises(ConfigurationError):
            ResilientAPI(api.api, tenant="")


class TestDelegation:
    def test_pass_through_surface(self, hidden):
        api = storm(hidden)
        assert api.degree(0) == len(list(api.neighbors(0)))
        assert api.has_node(0)
        assert api.cacheable
        assert api.counter is api.api.counter
        assert api.budget is api.api.budget
        assert api.rate_limiter is api.api.rate_limiter
        assert api.raw_calls == api.api.raw_calls
        assert "ResilientAPI" in repr(api)
