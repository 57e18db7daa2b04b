"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the common operational cases (budget exhaustion, bad
graph input, configuration mistakes).
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, field, fields
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


def checked_fields(owner, data, keys=None, error=ConfigurationError) -> Dict[str, Any]:
    """*data* as a dict, refused unless it carries the keys of *owner*'s
    documents: the one key rule of every document the package reads.

    *owner* is a dataclass, whose fields are the keys (one with a default
    may be left out), or a document's name, with *keys* the keys all its
    documents carry; given as a :func:`check_fields` table, they check
    the fields too.  A refusal is an *error* naming the document: *data*
    is no mapping, has an unknown key, lacks a key, or fails a field rule.
    """
    if isinstance(owner, str):
        name, valid, required = owner, set(keys), set(keys)
    else:
        name, known = owner.__name__, fields(owner)
        valid = {f.name for f in known}
        required = {f.name for f in known if f.default is f.default_factory is MISSING}
    if not isinstance(data, Mapping):
        raise error(f"{name} must be a mapping, got {type(data).__name__}")
    unknown, missing = set(data) - valid, required - set(data)
    if unknown:
        raise error(f"unknown {name} keys: {sorted(unknown)}; valid: {sorted(valid)}")
    if missing:
        raise error(f"missing {name} keys: {sorted(missing)}")
    if isinstance(keys, Mapping):
        check_fields(name, data, keys, error)
    return dict(data)


#: How a refusal names a number field; any other kind goes by its name.
_KIND_NAMES = {numbers.Integral: "an integer", numbers.Real: "a number"}


def check_field(
    owner, name, value, kind, minimum=None, optional=False, error=ConfigurationError
) -> None:
    """Refuse a field of the wrong kind, NaN, or below *minimum*: the one
    field rule of every document and config the package reads.

    *kind* is a class (``numbers.Integral``, ``numbers.Real``, ``bool``,
    ``str``, ``list``, ``Mapping`` or a record), ``[kind]`` for a list of
    such fields, or a tuple of the values the field may take.  A bool is
    no number, and a flag takes nothing else; *optional* lets ``None``
    through.  A refusal is an *error* naming *owner*'s field *name*.  A
    check this rule cannot express (a range's upper end, a relation
    between fields) stays with the owner, written so that NaN fails it.
    """
    if value is None and optional:
        return
    if isinstance(kind, tuple):
        if value not in kind:
            raise error(f"unknown {name} {value!r}; valid: {', '.join(kind)}")
        return
    if isinstance(kind, list):
        check_field(owner, name, value, list, error=error)
        for index, item in enumerate(value):
            check_field(owner, f"{name}[{index}]", item, kind[0], minimum, error=error)
        return
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        expected = _KIND_NAMES.get(kind, f"a {kind.__name__}")
    elif value != value:
        expected = "a number (not NaN)"
    elif minimum is not None and not value >= minimum:
        expected = f"at least {minimum}"
    else:
        return
    raise error(
        f"{owner} {name!r} must be {expected}{' or None' if optional else ''}, "
        f"got {value!r}"
    )


def check_fields(owner, values, rules, error=ConfigurationError) -> None:
    """:func:`check_field` on each field of *values* that *rules* names:
    a table of ``name: (kind, minimum, optional)``, the last two optional,
    or a dataclass whose fields declare theirs with :func:`checked`."""
    if not isinstance(rules, Mapping):
        declared = (f for f in fields(rules) if "rule" in f.metadata)
        rules = {f.name: f.metadata["rule"] for f in declared}
    for name, value in values.items():
        if name in rules:
            check_field(owner, name, value, *rules[name], error=error)


def checked(kind, minimum=None, optional=False, **field_args):
    """A dataclass field declaring the :func:`check_field` rule its values
    pass; *field_args* (``default``, ``default_factory``) go to
    :func:`dataclasses.field`."""
    return field(metadata={"rule": (kind, minimum, optional)}, **field_args)


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
