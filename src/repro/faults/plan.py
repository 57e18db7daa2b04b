"""Scripted fault plans: chaos as data, replayable bit for bit.

A live OSN fails in ways the rest of this repository never had to model:
requests time out, the service returns transient 5xx-style errors, rate
limiters go into storm mode, responses arrive late.  Testing recovery
machinery against *real* nondeterministic failures would forfeit the
bit-for-bit replay discipline PR 5–6 established for latency — so this
module makes failures part of the script instead.

A :class:`FaultPlan` is a pure value object: an ordered tuple of
:class:`FaultRule` entries plus a seed, JSON-round-trippable exactly like
:class:`~repro.core.dispatch.EstimationJobSpec` (``to_dict``/``from_dict``
with unknown keys rejected).  Rules match on the *wrapper call index* —
the 0-based count of batch calls made through the injecting wrapper — and
optionally on a virtual-time window read from whatever clock the wrapper
is bound to (:class:`~repro.crawl.clock.FakeClock` in the crawl stack).
Both coordinates are deterministic functions of the campaign, so the same
``(plan, campaign)`` pair injects the same faults at the same points,
run after run, machine after machine.

The plan itself never mutates during execution: per-run state (the call
counter, the seeded jitter stream) lives in the executing wrapper
(:class:`~repro.faults.api.FaultyAPI`), which is why one plan document can
drive the chaos run and its replay-determinism twin from the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from numbers import Integral, Real
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, check_field, check_fields, checked
from repro.errors import checked_fields

#: Failure modes a rule can inject.  ``timeout``/``error``/``rate_limit``
#: raise (the retry layer's food); ``slow`` lets the call succeed but adds
#: simulated seconds the caller must mirror onto its clock.
FAULT_KINDS = ("timeout", "error", "rate_limit", "slow")

#: When a raising fault fires relative to the real invocation.  ``before``
#: models a request that never reached the network (nothing charged);
#: ``after`` models a response lost on the wire — the backend processed
#: and cached the batch, then the caller saw a failure.  Either way a
#: retried batch settles its accounting exactly once (§2.4: the ``after``
#: retry is a free cache hit; the ``before`` attempt charged nothing).
FAULT_PHASES = ("before", "after")

#: Which wrapper entry points a rule covers.
FAULT_OPS = ("any", "neighbors", "degrees")


@dataclass(frozen=True)
class InjectedFault:
    """One resolved injection: what a matched rule does to one call."""

    kind: str
    phase: str
    #: Simulated seconds attached to the fault — the added latency of a
    #: ``slow`` response, or the ``retry_after`` of a rate-limit rejection.
    delay: float
    #: Index of the matched rule in the plan (diagnostics / assertions).
    rule_index: int


@dataclass(frozen=True)
class FaultRule:
    """One scripted failure window.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    first_call / last_call:
        Inclusive window of wrapper call indices the rule covers
        (``last_call=None`` leaves it open-ended).  Every attempt counts —
        a retried batch re-enters the wrapper under a fresh index, which
        is how a finite window models a storm that eventually clears.
    op:
        Restrict the rule to ``neighbors`` or ``degrees`` calls
        (``any`` covers both).
    phase:
        ``before`` or ``after`` (see :data:`FAULT_PHASES`); meaningless
        for ``slow``, which always completes the call.
    after_time / before_time:
        Optional virtual-time window ``[after_time, before_time)`` on the
        wrapper's bound clock; a rule with both ``None`` matches at any
        time.
    delay:
        Base simulated seconds (slow-response latency / rate-limit
        ``retry_after``).
    jitter:
        Fractional perturbation of *delay*, drawn per injection from the
        wrapper's seeded stream — scripted chaos can still have texture
        without giving up replay.

    Each number field declares its kind and floor (:func:`~repro.errors.checked`);
    a field of the wrong kind, NaN or below its floor is refused with a
    :class:`~repro.errors.ConfigurationError` naming it, as are an unknown
    kind, phase or op, ``jitter >= 1`` and an empty call or time window.
    """

    kind: str
    first_call: int = checked(Integral, 0, default=0)
    last_call: Optional[int] = checked(Integral, optional=True, default=None)
    op: str = "any"
    phase: str = "before"
    after_time: Optional[float] = checked(Real, optional=True, default=None)
    before_time: Optional[float] = checked(Real, optional=True, default=None)
    delay: float = checked(Real, 0, default=0.0)
    jitter: float = checked(Real, 0, default=0.0)

    def __post_init__(self) -> None:
        check_field("FaultRule", "fault kind", self.kind, FAULT_KINDS)
        check_field("FaultRule", "fault phase", self.phase, FAULT_PHASES)
        check_field("FaultRule", "fault op", self.op, FAULT_OPS)
        check_fields("FaultRule", vars(self), FaultRule)
        if self.last_call is not None and not self.last_call >= self.first_call:
            raise ConfigurationError(
                f"last_call ({self.last_call}) must be >= first_call "
                f"({self.first_call})"
            )
        if not self.jitter < 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.after_time is not None and self.before_time is not None:
            if not self.before_time > self.after_time:
                raise ConfigurationError(
                    f"before_time ({self.before_time}) must be > after_time "
                    f"({self.after_time})"
                )

    def matches(self, call_index: int, op: str, now: float) -> bool:
        """Whether this rule covers one wrapper call."""
        if call_index < self.first_call:
            return False
        if self.last_call is not None and call_index > self.last_call:
            return False
        if self.op != "any" and self.op != op:
            return False
        if self.after_time is not None and now < self.after_time:
            return False
        if self.before_time is not None and now >= self.before_time:
            return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        return cls(**checked_fields(cls, data))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered script of failure windows.

    First matching rule wins per call; no rule means the call proceeds
    untouched.  The plan is immutable — execution state (call counter,
    jitter stream) belongs to :class:`~repro.faults.api.FaultyAPI` — so
    the same plan object can drive any number of identical replays.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = checked(Integral, 0, default=0)

    def __post_init__(self) -> None:
        check_fields("FaultPlan", vars(self), FaultPlan)
        object.__setattr__(self, "rules", tuple(self.rules))
        check_field("FaultPlan", "rules", list(self.rules), [FaultRule])

    def resolve(
        self,
        call_index: int,
        op: str,
        now: float,
        rng: Optional[np.random.Generator] = None,
    ) -> Optional[InjectedFault]:
        """The fault (if any) the plan injects into one wrapper call.

        *rng* supplies the jitter stream — the executing wrapper passes
        its own seeded generator so successive injections draw in call
        order.  A rule with zero jitter never touches the stream, so
        plans without jitter resolve identically with or without one.
        """
        for index, rule in enumerate(self.rules):
            if not rule.matches(call_index, op, now):
                continue
            delay = rule.delay
            if rule.jitter > 0.0:
                if rng is None:
                    raise ConfigurationError(
                        "a jittered rule needs the executing wrapper's rng"
                    )
                delay *= 1.0 + rule.jitter * float(rng.uniform(-1.0, 1.0))
            return InjectedFault(
                kind=rule.kind, phase=rule.phase, delay=delay, rule_index=index
            )
        return None

    def with_overrides(self, **changes) -> "FaultPlan":
        """Copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form — the chaos-scenario file format."""
        return {"rules": [rule.to_dict() for rule in self.rules], "seed": self.seed}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; nested rules rebuild and re-validate."""
        fields = checked_fields(cls, data)
        rules = fields.get("rules", ())
        if not isinstance(rules, Sequence) or isinstance(rules, (str, bytes)):
            raise ConfigurationError(
                f"rules must be a list of rule mappings, got {type(rules).__name__}"
            )
        fields["rules"] = tuple(
            rule if isinstance(rule, FaultRule) else FaultRule.from_dict(rule)
            for rule in rules
        )
        return cls(**fields)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to JSON (one plan per document)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a :meth:`to_json` document."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"fault plan JSON must be an object, got {type(data).__name__}"
            )
        return cls.from_dict(data)
