"""Retry, backoff, and circuit breaking for the charged API surface.

A live OSN client that gives up on the first timeout wastes everything it
already paid for; one that retries naively can double-charge or hammer a
failing backend.  :class:`ResilientAPI` threads the needle around
``neighbors_batch``/``degrees_batch``:

* **Exactly-once accounting.**  The wrapper never touches the counters —
  it re-invokes the wrapped API, whose §2.4 cache makes retries naturally
  idempotent.  A failed attempt either charged nothing (the fault fired
  before the invocation) or charged-and-cached (the response was lost
  after settling, so the retry is a free cache hit).  Either way a
  failed-then-retried batch charges :class:`~repro.osn.accounting.QueryCounter`
  / :class:`~repro.osn.accounting.TenantLedger` exactly once, and
  ``assert_balanced`` still holds — pinned in ``tests/faults/``.
* **Deterministic waiting.**  Backoff (exponential with seeded jitter)
  advances a virtual clock and accumulates in the *mirror-wait* channel
  (:meth:`ResilientAPI.consume_mirror_wait`), which the async crawler
  drains onto its own :class:`~repro.crawl.clock.FakeClock` — retries
  cost simulated time, never wall time, and every chaos interleaving
  replays bit for bit.
* **Per-tenant circuit breaking.**  After ``circuit_threshold``
  consecutive failures for one tenant, further calls fail fast with
  :class:`~repro.errors.CircuitOpenError` until ``circuit_reset_seconds``
  of clock time pass (half-open trial afterwards) — one tenant's broken
  corner of the network cannot burn every tenant's retry budget.

The policy itself (:class:`RetryPolicy`) is a frozen, JSON-round-trippable
value object, same discipline as :class:`~repro.core.dispatch.EngineConfig`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Mapping, Optional

from repro.errors import (
    APITimeoutError,
    CircuitOpenError,
    ConfigurationError,
    RateLimitExceededError,
    TransientAPIError,
    checked_fields,
)
from repro.osn.api import APIWrapper
from repro.osn.ratelimit import VirtualClock
from repro.rng import RngLike, ensure_rng

#: Exceptions a retry can fix: the transient family (5xx-style errors and
#: timeouts) plus rate-limit rejections, which carry their own wait.
RETRYABLE_ERRORS = (TransientAPIError, RateLimitExceededError)


@dataclass(frozen=True)
class RetryPolicy:
    """How :class:`ResilientAPI` waits, retries, and gives up.

    Attributes
    ----------
    max_attempts:
        Total tries per batch (first attempt included); the last failure
        re-raises the underlying error.
    base_backoff / backoff_factor / max_backoff:
        Exponential schedule in simulated seconds: retry *n* waits
        ``min(base_backoff * backoff_factor**(n-1), max_backoff)``.
    jitter:
        Fractional perturbation of each backoff, drawn from the wrapper's
        seeded stream — deterministic per ``(policy, seed, call order)``.
    call_timeout:
        Give up listening after this many simulated seconds of injected
        slowness per call; the attempt counts as a timeout and is
        retried (the late response was still cached, so the retry is
        free).  ``None`` waits out any slowness.
    circuit_threshold:
        Consecutive failures (per tenant) that open the circuit.
    circuit_reset_seconds:
        Clock seconds an open circuit stays closed to traffic before one
        half-open trial call is allowed through.
    """

    max_attempts: int = 4
    base_backoff: float = 1.0
    backoff_factor: float = 2.0
    max_backoff: float = 60.0
    jitter: float = 0.1
    call_timeout: Optional[float] = None
    circuit_threshold: int = 5
    circuit_reset_seconds: float = 300.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff < 0:
            raise ConfigurationError(
                f"base_backoff must be >= 0, got {self.base_backoff}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_backoff < self.base_backoff:
            raise ConfigurationError(
                f"max_backoff ({self.max_backoff}) must be >= base_backoff "
                f"({self.base_backoff})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.call_timeout is not None and self.call_timeout <= 0:
            raise ConfigurationError(
                f"call_timeout must be > 0 or None, got {self.call_timeout}"
            )
        if self.circuit_threshold < 1:
            raise ConfigurationError(
                f"circuit_threshold must be >= 1, got {self.circuit_threshold}"
            )
        if self.circuit_reset_seconds <= 0:
            raise ConfigurationError(
                f"circuit_reset_seconds must be > 0, got "
                f"{self.circuit_reset_seconds}"
            )

    def backoff_for(self, retry_index: int, rng) -> float:
        """Simulated seconds to wait before retry *retry_index* (1-based)."""
        wait = min(
            self.base_backoff * self.backoff_factor ** (retry_index - 1),
            self.max_backoff,
        )
        if self.jitter > 0.0 and wait > 0.0:
            wait *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return wait

    def with_overrides(self, **changes) -> "RetryPolicy":
        """Copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RetryPolicy":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        return cls(**checked_fields(cls, data))


class CircuitBreaker:
    """Consecutive-failure breaker for one tenant, timed on a shared clock.

    Closed → (``threshold`` consecutive failures) → open for
    ``reset_seconds`` → half-open (one trial call) → closed on success,
    re-open on failure.  Success in any state resets the failure run.
    """

    def __init__(self, tenant: str, policy: RetryPolicy) -> None:
        self.tenant = tenant
        self.policy = policy
        self.consecutive_failures = 0
        self.open_until: Optional[float] = None
        self.opens = 0

    def check(self, now: float) -> None:
        """Raise :class:`~repro.errors.CircuitOpenError` while open.

        A call arriving after ``open_until`` passes through as the
        half-open trial; its outcome decides the breaker's next state.
        """
        if self.open_until is not None and now < self.open_until:
            raise CircuitOpenError(self.tenant, self.open_until - now)

    def record_success(self) -> None:
        """A call settled: close the breaker, reset the failure run."""
        self.consecutive_failures = 0
        self.open_until = None

    def record_failure(self, now: float) -> None:
        """A call (or half-open trial) failed; open at the threshold."""
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.policy.circuit_threshold:
            self.open_until = now + self.policy.circuit_reset_seconds
            self.opens += 1


class ResilientAPI(APIWrapper):
    """Retry/backoff/circuit-breaker wrapper over a charged batch API.

    Parameters
    ----------
    api:
        The wrapped API — a raw :class:`~repro.osn.api.SocialNetworkAPI`
        or a :class:`~repro.faults.api.FaultyAPI` injecting a chaos plan.
    policy:
        The :class:`RetryPolicy`; defaults are sane for the simulated
        stack.
    clock:
        Timebase for circuit-breaker windows.  ``None`` uses a private
        :class:`~repro.osn.ratelimit.VirtualClock` advanced only by this
        wrapper's own backoffs; passing the campaign's clock (the crawl
        :class:`~repro.crawl.clock.FakeClock`) makes reset windows follow
        campaign time, which is what the serving layer wants.
    seed:
        Root of the backoff-jitter stream (deterministic per call order).
    tenant:
        Initial accounting principal for circuit breaking; the serving
        layer re-points it per crawl driver via :meth:`set_tenant`.
    """

    def __init__(
        self,
        api,
        policy: Optional[RetryPolicy] = None,
        *,
        clock=None,
        seed: RngLike = 0,
        tenant: str = "default",
    ) -> None:
        if not tenant:
            raise ConfigurationError("tenant must be a non-empty string")
        super().__init__(api)
        self.policy = policy if policy is not None else RetryPolicy()
        self.clock = clock if clock is not None else VirtualClock()
        self._rng = ensure_rng(seed)
        self.current_tenant = tenant
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._mirror_wait = 0.0
        #: Attempts that failed with a retryable error (retried or not).
        self.failed_attempts = 0
        #: Retries actually issued after a backoff wait.
        self.retries = 0
        #: Attempts abandoned for exceeding ``call_timeout``.
        self.timeouts = 0

    # ------------------------------------------------------------------
    # Tenancy + breakers
    # ------------------------------------------------------------------
    def set_tenant(self, tenant: str) -> None:
        """Point subsequent calls at *tenant*'s circuit breaker."""
        if not tenant:
            raise ConfigurationError("tenant must be a non-empty string")
        self.current_tenant = tenant

    def breaker(self, tenant: str) -> CircuitBreaker:
        """The (lazily created) breaker guarding *tenant*'s calls."""
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = self._breakers[tenant] = CircuitBreaker(tenant, self.policy)
        return breaker

    @property
    def circuit_opens(self) -> int:
        """Times any tenant's breaker opened over the wrapper's lifetime."""
        return sum(b.opens for b in self._breakers.values())

    # ------------------------------------------------------------------
    # Waiting plumbing
    # ------------------------------------------------------------------
    def _sleep(self, seconds: float) -> None:
        """Spend *seconds* of simulated time (backoff / timeout listening)."""
        if seconds > 0:
            if hasattr(self.clock, "advance") and not hasattr(
                self.clock, "pending_timers"
            ):
                # A VirtualClock advances synchronously; a FakeClock is
                # advanced by whoever mirrors the accumulated wait.
                self.clock.advance(seconds)
            self._mirror_wait += seconds

    def _drain_inner_wait(self) -> float:
        """Injected slowness the inner wrapper accrued during one attempt."""
        drain = getattr(self.api, "consume_mirror_wait", None)
        return float(drain()) if drain is not None else 0.0

    def consume_mirror_wait(self) -> float:
        """Simulated seconds of waiting accrued since the last drain.

        Includes backoff sleeps, rate-limit ``retry_after`` waits, and
        any slow-response latency the inner wrapper reported.  The async
        crawler drains this after each settled batch and sleeps the
        amount on its own clock — retries slow the campaign down instead
        of happening for free.
        """
        waited, self._mirror_wait = self._mirror_wait, 0.0
        return waited

    # ------------------------------------------------------------------
    # The resilient batch surface
    # ------------------------------------------------------------------
    def _batch(self, op: str, fn, nodes):
        """Run one batch call under the retry policy and the breaker."""
        breaker = self.breaker(self.current_tenant)
        breaker.check(self.clock.now)
        attempt = 1
        while True:
            try:
                result = fn(nodes)
            except RETRYABLE_ERRORS as error:
                self._mirror_wait += self._drain_inner_wait()
                self.failed_attempts += 1
                breaker.record_failure(self.clock.now)
                if attempt >= self.policy.max_attempts:
                    raise
                if breaker.open_until is not None:
                    # The run of failures just opened the circuit: stop
                    # retrying now; callers see the underlying error and
                    # subsequent calls fail fast until the reset window.
                    raise
                if isinstance(error, RateLimitExceededError) and error.retry_after > 0:
                    wait = error.retry_after
                else:
                    wait = self.policy.backoff_for(attempt, self._rng)
                self._sleep(wait)
                self.retries += 1
                attempt += 1
                continue
            waited = self._drain_inner_wait()
            timeout = self.policy.call_timeout
            if timeout is not None and waited > timeout:
                # We stopped listening at the timeout; the response that
                # eventually arrived is already cached, so the retry is a
                # free lookup — time was lost, money was not.
                self._sleep(timeout)
                self.failed_attempts += 1
                self.timeouts += 1
                breaker.record_failure(self.clock.now)
                if (
                    attempt >= self.policy.max_attempts
                    or breaker.open_until is not None
                ):
                    raise APITimeoutError(
                        f"call exceeded per-call timeout of {timeout} simulated "
                        f"seconds (injected slowness {waited:.2f}s)"
                    )
                self._sleep(self.policy.backoff_for(attempt, self._rng))
                self.retries += 1
                attempt += 1
                continue
            self._mirror_wait += waited
            breaker.record_success()
            return result

    def __repr__(self) -> str:
        return (
            f"ResilientAPI(tenant={self.current_tenant!r}, "
            f"retries={self.retries}, failed_attempts={self.failed_attempts}, "
            f"circuit_opens={self.circuit_opens})"
        )
