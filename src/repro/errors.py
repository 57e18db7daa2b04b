"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the common operational cases (budget exhaustion, bad
graph input, configuration mistakes).
"""

from __future__ import annotations

import numbers
from typing import Any, Dict, Mapping


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Raised for structurally invalid graph operations.

    Examples: querying a node that does not exist, adding a self-loop to a
    simple graph, or loading a malformed edge list.
    """


class NodeNotFoundError(GraphError, KeyError):
    """Raised when an operation references a node absent from the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class QueryBudgetExceededError(ReproError):
    """Raised when an OSN access would exceed the configured query budget.

    The sampler catches this to stop gracefully and report partial results;
    user code may also catch it to implement its own retry/abort policy.
    """

    def __init__(self, budget: int, spent: int) -> None:
        super().__init__(
            f"query budget exhausted: budget={budget}, already spent={spent}"
        )
        self.budget = budget
        self.spent = spent


class RateLimitExceededError(ReproError):
    """Raised when the simulated OSN rate limiter rejects a query."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"rate limit exceeded; retry after {retry_after:.2f} simulated seconds"
        )
        self.retry_after = retry_after


class TransientAPIError(ReproError):
    """Raised when the simulated OSN returns a transient (5xx-style) failure.

    Injected by :class:`~repro.faults.FaultyAPI` and retried by
    :class:`~repro.osn.resilience.ResilientAPI`; nothing was charged for
    the failed attempt, so a retry repeats the accounting exactly once.
    """


class APITimeoutError(TransientAPIError):
    """Raised when a simulated OSN call exceeds its per-call timeout.

    A timeout is ambiguous: the request may or may not have reached the
    network (the fault plan's ``phase`` decides).  Either way the charged
    API's client-side cache (§2.4) makes the retry idempotent — a lost
    response was cached server-side-of-the-wrapper, so re-asking is free.
    """


class CircuitOpenError(ReproError):
    """Raised when a tenant's circuit breaker is open (failing fast).

    After ``threshold`` consecutive failures the
    :class:`~repro.osn.resilience.ResilientAPI` stops hammering the
    backend for that tenant until ``reset_seconds`` of virtual time pass.
    """

    def __init__(self, tenant: str, retry_after: float) -> None:
        super().__init__(
            f"circuit breaker for tenant {tenant!r} is open; "
            f"retry after {retry_after:.2f} simulated seconds"
        )
        self.tenant = tenant
        self.retry_after = retry_after


class WorkerCrashError(ReproError):
    """Raised when a sharded walk round cannot recover from worker deaths.

    The :class:`~repro.walks.parallel.ShardedWalkEngine` respawns its pool
    and re-executes failed shards transparently; this surfaces only after
    the bounded retry allowance is exhausted.
    """


class CheckpointError(ReproError):
    """Raised when a service checkpoint cannot be captured or restored.

    Covers schema-version mismatches, documents missing required state,
    and restore targets whose live state conflicts with the snapshot.
    """


class ConfigurationError(ReproError, ValueError):
    """Raised for invalid algorithm or experiment configuration values."""


def checked_fields(cls, data: Mapping[str, Any]) -> Dict[str, Any]:
    """*data* as a dict; a key that is no field of dataclass *cls* raises."""
    valid = set(cls.__dataclass_fields__)
    unknown = set(data) - valid
    if unknown:
        raise ConfigurationError(
            f"unknown {cls.__name__} keys: {sorted(unknown)}; valid: {sorted(valid)}"
        )
    return dict(data)


#: How a refusal names each kind of field :func:`check_field` checks.
_KIND_NAMES = {numbers.Integral: "an integer", numbers.Real: "a number", bool: "a bool"}


def check_field(
    owner: str, name: str, value: Any, kind: type, minimum=None, optional=False
) -> None:
    """Refuse a number or flag field of the wrong kind, or below *minimum*.

    *kind* is ``numbers.Integral``, ``numbers.Real`` or ``bool``.  Python
    counts a bool as an integer, so a number field refuses one and a flag
    takes nothing else; *optional* lets ``None`` through.  A refusal is a
    :class:`ConfigurationError` naming *owner*'s field *name*.
    """
    if value is None and optional:
        return
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        expected = _KIND_NAMES[kind]
    elif minimum is not None and not value >= minimum:
        expected = f"at least {minimum}"
    else:
        return
    raise ConfigurationError(
        f"{owner} {name!r} must be {expected}{' or None' if optional else ''}, "
        f"got {value!r}"
    )


class EstimationError(ReproError):
    """Raised when a probability estimation cannot be produced.

    For example, a backward walk that is configured with zero repetitions,
    or an estimate requested for a node the forward walk never reached.
    """


class ConvergenceError(ReproError):
    """Raised when a convergence monitor cannot make a determination."""


class AdmissionError(ReproError):
    """Raised when the serving layer cannot accept a job.

    Two shapes: backpressure (the bounded pending queue is full — retry
    later or use the awaiting submit path) and rejection (the job spec is
    one the service cannot run, e.g. the charged backend against the
    shared free topology).
    """


class ExperimentError(ReproError):
    """Raised when an experiment is misconfigured or references unknown ids."""
