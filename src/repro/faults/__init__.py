"""Deterministic fault injection: chaos scripts on the simulated clock.

The recovery machinery of the crawl/walk/serving stack —
:class:`~repro.osn.resilience.ResilientAPI` retries, the
:class:`~repro.walks.parallel.ShardedWalkEngine` worker respawn path,
:meth:`~repro.service.server.SamplingService.resume` — is only worth
trusting if the failures it recovers from replay bit for bit.  This
package provides those failures:

* :class:`~repro.faults.plan.FaultPlan` / :class:`~repro.faults.plan.FaultRule`
  — a seeded, JSON-round-trippable script of timeouts, transient
  5xx-style errors, rate-limit storms, and slow responses, keyed by call
  index and virtual time;
* :class:`~repro.faults.api.FaultyAPI` — the wrapper that executes a plan
  against a charged :class:`~repro.osn.api.SocialNetworkAPI`, preserving
  the §2.4 exactly-once accounting across every fault phase.

``tests/faults/`` pins the contract for a chaos run recovered by the
resilience layer: every query is charged exactly once and the ledger
balances; at crawl concurrency 1 the run is bit-identical — estimates,
trajectories, counter and ledger state — to its fault-free twin (above
1, slow responses reorder the crawl frontier, so a budget can buy other
nodes; a crawl run to completion finds the same rows); and the chaos run
itself replays, and resumes from a checkpoint, bit-identically at any
concurrency.
"""

from repro.faults.api import FaultyAPI
from repro.faults.plan import (
    FAULT_KINDS,
    FAULT_OPS,
    FAULT_PHASES,
    FaultPlan,
    FaultRule,
    InjectedFault,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_OPS",
    "FAULT_PHASES",
    "FaultPlan",
    "FaultRule",
    "FaultyAPI",
    "InjectedFault",
]
