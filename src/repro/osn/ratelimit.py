"""Rate limiting on a virtual clock.

The paper motivates query cost with Twitter's limit of 15 follower-list
requests per 15 minutes (§1.1).  A :class:`TokenBucketRateLimiter` over a
:class:`VirtualClock` reproduces the *time* cost of a sampling campaign
(how long a budget of queries takes to spend) without real sleeping, so
experiments can report wall-clock-equivalent durations deterministically.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, RateLimitExceededError


class VirtualClock:
    """Monotonically advancing simulated time in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward; negative advances are rejected."""
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds}")
        self._now += seconds


class TokenBucketRateLimiter:
    """Classic token bucket: *capacity* tokens refilled over *period* seconds.

    ``TokenBucketRateLimiter(15, 900)`` models Twitter's 15 requests per 15
    minutes.  Two usage modes:

    * :meth:`acquire` — raise :class:`RateLimitExceededError` when empty
      (callers that implement their own waiting policy);
    * :meth:`acquire_or_wait` — advance the virtual clock to the next token
      and return the simulated seconds waited (the common mode; this is what
      "sampling is slow because of rate limits" means in practice).
    """

    def __init__(
        self,
        capacity: int,
        period_seconds: float,
        clock: VirtualClock | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if period_seconds <= 0:
            raise ConfigurationError(f"period must be positive, got {period_seconds}")
        self.capacity = capacity
        self.period_seconds = float(period_seconds)
        self.clock = clock if clock is not None else VirtualClock()
        self._tokens = float(capacity)
        self._last_refill = self.clock.now

    @property
    def refill_rate(self) -> float:
        """Tokens per simulated second."""
        return self.capacity / self.period_seconds

    def _refill(self) -> None:
        elapsed = self.clock.now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.refill_rate)
            self._last_refill = self.clock.now

    @property
    def tokens(self) -> float:
        """Tokens available right now."""
        self._refill()
        return self._tokens

    def acquire(self) -> None:
        """Consume one token or raise :class:`RateLimitExceededError`."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return
        deficit = 1.0 - self._tokens
        raise RateLimitExceededError(retry_after=deficit / self.refill_rate)

    def acquire_or_wait(self) -> float:
        """Consume one token, advancing the clock if needed; returns wait time."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        wait = (1.0 - self._tokens) / self.refill_rate
        self.clock.advance(wait)
        self._refill()
        self._tokens -= 1.0
        return wait

    def acquire_or_wait_many(self, count: int) -> float:
        """Consume *count* tokens as one batch; returns total simulated wait.

        Equal in exact arithmetic to *count* successive
        :meth:`acquire_or_wait` calls (the bucket refills linearly while
        draining, so the waits telescope into one closed-form advance),
        and within rounding in floats, but O(1) — the batch API settles a
        whole step's invocations without a per-call loop.
        """
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        if count == 0:
            return 0.0
        self._refill()
        if self._tokens >= count:
            self._tokens -= count
            return 0.0
        wait = (count - self._tokens) / self.refill_rate
        self.clock.advance(wait)
        self._last_refill = self.clock.now
        self._tokens = 0.0
        return wait
