"""The fault-injecting API wrapper: a scripted unreliable network.

:class:`FaultyAPI` sits between a caller (crawler, resilient layer,
service) and a real charged :class:`~repro.osn.api.SocialNetworkAPI`,
consulting a :class:`~repro.faults.plan.FaultPlan` on every batch call.
Matched calls fail or slow down exactly as scripted; unmatched calls
delegate untouched.  Everything else — accounting, cache, budget, rate
limiter, metadata — is pure delegation, so the wrapper is invisible to
the §2.4 cost model:

* a ``before``-phase fault raises *before* the inner call, so the failed
  attempt charges nothing — the retry pays, once;
* an ``after``-phase fault lets the inner call settle (rows cached,
  counter charged) and then "loses" the response — the retry is a free
  cache hit, so the batch still charges exactly once;
* a ``slow`` fault completes the call and accumulates its extra latency
  in the mirror-wait channel (:meth:`FaultyAPI.consume_mirror_wait`),
  which the async crawler drains onto its simulated clock — slow
  responses cost time, never money.

Per-run execution state (the call counter and the seeded jitter stream)
lives here, not in the plan, so one plan document drives any number of
bit-identical replays through fresh wrappers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import (
    APITimeoutError,
    ConfigurationError,
    RateLimitExceededError,
    TransientAPIError,
)
from repro.faults.plan import FaultPlan, InjectedFault
from repro.osn.api import APIWrapper
from repro.rng import ensure_rng


class FaultyAPI(APIWrapper):
    """Inject a :class:`FaultPlan` into a charged API's batch calls.

    Parameters
    ----------
    api:
        The wrapped :class:`~repro.osn.api.SocialNetworkAPI` (or any
        object with its batch surface).
    plan:
        The fault script.
    clock:
        Optional object with a ``now`` attribute (a
        :class:`~repro.crawl.clock.FakeClock` or
        :class:`~repro.osn.ratelimit.VirtualClock`) the plan's
        virtual-time windows read; rules without time windows never need
        one.
    """

    def __init__(self, api, plan: FaultPlan, clock=None) -> None:
        if not isinstance(plan, FaultPlan):
            raise ConfigurationError(
                f"plan must be a FaultPlan, got {type(plan).__name__}"
            )
        super().__init__(api)
        self.plan = plan
        self.clock = clock
        self._rng = ensure_rng(plan.seed)
        #: Wrapper-level batch calls made so far (every attempt counts).
        self.calls = 0
        #: Injection counts by fault kind (diagnostics / assertions).
        self.injected: Dict[str, int] = {}
        #: Full injection history: ``(call_index, op, fault)`` per event.
        self.history: List[Tuple[int, str, InjectedFault]] = []
        self._mirror_wait = 0.0

    # ------------------------------------------------------------------
    # Injection machinery
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return float(self.clock.now) if self.clock is not None else 0.0

    def _batch(self, op: str, fn, nodes):
        """Run one batch call through the fault script."""
        index = self.calls
        self.calls += 1
        fault = self.plan.resolve(index, op, self._now(), self._rng)
        if fault is None:
            return fn(nodes)
        self.injected[fault.kind] = self.injected.get(fault.kind, 0) + 1
        self.history.append((index, op, fault))
        if fault.kind == "slow":
            result = fn(nodes)
            self._mirror_wait += fault.delay
            return result
        if fault.phase == "after":
            # The backend processed the batch — rows cached, charges
            # booked — and the response was lost on the way back.
            fn(nodes)
        if fault.kind == "timeout":
            raise APITimeoutError(
                f"injected timeout on {op} call {index} "
                f"(rule {fault.rule_index}, phase {fault.phase})"
            )
        if fault.kind == "rate_limit":
            raise RateLimitExceededError(retry_after=fault.delay)
        raise TransientAPIError(
            f"injected transient error on {op} call {index} "
            f"(rule {fault.rule_index}, phase {fault.phase})"
        )

    def consume_mirror_wait(self) -> float:
        """Simulated seconds of injected slowness accrued since last drain.

        The async crawler's mirror hook: after each settled batch it
        drains this and sleeps the amount on its own clock, so scripted
        slow responses stretch the campaign exactly like scripted latency.
        """
        waited, self._mirror_wait = self._mirror_wait, 0.0
        return waited

    def __repr__(self) -> str:
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.injected.items()))
        return (
            f"FaultyAPI(calls={self.calls}, injected=[{kinds}], "
            f"rules={len(self.plan.rules)})"
        )
