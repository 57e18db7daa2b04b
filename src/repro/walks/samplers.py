"""Traditional random-walk samplers: the baselines WALK-ESTIMATE replaces.

Two schemes from the paper (§6.1, Figure 4):

* :class:`BurnInSampler` — "many short runs": per sample, walk from the
  start node until the Geweke monitor declares convergence, take the final
  node, repeat.  Produces (approximately) i.i.d. samples; this is the
  baseline the paper compares against.
* :class:`LongRunSampler` — "one long run": burn in once, then collect
  every node the continuing walk visits.  Cheap per sample but correlated;
  pair with :func:`repro.walks.autocorr.effective_sample_size`.

Both return :class:`SampleBatch`, which records the nodes, their target
weights (for importance-weighted estimation), and the query cost spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import ConfigurationError, QueryBudgetExceededError
from repro.osn.api import SocialNetworkAPI
from repro.rng import RngLike, ensure_rng
from repro.walks.convergence import GewekeMonitor
from repro.walks.transitions import Node, TransitionDesign
from repro.walks.walker import step_once


@dataclass
class SampleBatch:
    """Nodes sampled by some scheme plus the bookkeeping estimators need.

    Attributes
    ----------
    nodes:
        The sampled node ids (with multiplicity).
    target_weights:
        Unnormalized stationary weight of each sampled node under the
        design's target distribution — 1.0 for uniform targets (MHRW),
        degree for SRW.  Estimators divide by these to de-bias.
    query_cost:
        Unique-node queries spent producing this batch.
    walk_steps:
        Total forward transitions taken (the paper's Figure 5 y-axis).
    sampler:
        Human-readable producer name for reports.
    attempts:
        Candidates an accept/reject step judged to produce :attr:`nodes`
        (the WALK-ESTIMATE samplers); 0 for samplers that keep every draw.
    """

    nodes: List[Node] = field(default_factory=list)
    target_weights: List[float] = field(default_factory=list)
    query_cost: int = 0
    walk_steps: int = 0
    sampler: str = ""
    attempts: int = 0

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of judged candidates accepted (0.0 when none were)."""
        if self.attempts == 0:
            return 0.0
        return len(self.nodes) / self.attempts

    @property
    def weights(self) -> np.ndarray:
        """:attr:`target_weights` as a float64 array, aligned to :attr:`nodes`."""
        return np.asarray(self.target_weights, dtype=np.float64)

    def to_sample_batch(self) -> "SampleBatch":
        """This batch itself: every estimation result converts to one."""
        return self

    def extend(self, other: "SampleBatch") -> None:
        """Merge another batch produced under the same scheme."""
        self.nodes.extend(other.nodes)
        self.target_weights.extend(other.target_weights)
        self.query_cost = max(self.query_cost, other.query_cost)
        self.walk_steps += other.walk_steps
        self.attempts += other.attempts


class BurnInSampler:
    """Many-short-runs sampler with a Geweke-monitored burn-in.

    Parameters
    ----------
    design:
        The transit design (SRW, MHRW, ...).
    geweke_threshold:
        Z threshold declaring convergence (paper default 0.1).
    check_every:
        Steps between monitor evaluations.
    min_steps / max_steps:
        Walk-length floor and safety ceiling per sample.
    """

    def __init__(
        self,
        design: TransitionDesign,
        geweke_threshold: float = 0.1,
        check_every: int = 10,
        min_steps: int = 30,
        max_steps: int = 5000,
    ) -> None:
        if check_every < 1:
            raise ConfigurationError(f"check_every must be >= 1, got {check_every}")
        if min_steps < 1 or max_steps < min_steps:
            raise ConfigurationError(
                f"need 1 <= min_steps <= max_steps, got {min_steps}, {max_steps}"
            )
        self.design = design
        self.geweke_threshold = geweke_threshold
        self.check_every = check_every
        self.min_steps = min_steps
        self.max_steps = max_steps

    def sample_once(
        self, api: SocialNetworkAPI, start: Node, seed: RngLike = None
    ) -> tuple[Node, int]:
        """Walk from *start* until converged; return (sample, steps taken)."""
        rng = ensure_rng(seed)
        monitor = GewekeMonitor(threshold=self.geweke_threshold)
        current = start
        monitor.observe(api.degree(current))
        steps = 0
        while steps < self.max_steps:
            current = step_once(api, self.design, current, rng)
            monitor.observe(api.degree(current))
            steps += 1
            ready = steps >= self.min_steps and steps % self.check_every == 0
            if ready and monitor.is_converged():
                break
        return current, steps

    def sample(
        self,
        api: SocialNetworkAPI,
        start: Node,
        count: int,
        seed: RngLike = None,
    ) -> SampleBatch:
        """Collect *count* samples via independent monitored walks.

        Stops early (with the samples gathered so far) if the API budget is
        exhausted — partial results are still usable for error-vs-cost
        curves.
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        rng = ensure_rng(seed)
        batch = SampleBatch(sampler=f"burnin-{self.design.name}")
        for _ in range(count):
            try:
                node, steps = self.sample_once(api, start, seed=rng)
            except QueryBudgetExceededError:
                break
            batch.nodes.append(node)
            batch.target_weights.append(self.design.target_weight(api, node))
            batch.walk_steps += steps
            batch.query_cost = api.query_cost
        batch.query_cost = api.query_cost
        return batch


class LongRunSampler:
    """One-long-run sampler: burn in once, then harvest every position.

    Parameters
    ----------
    design:
        The transit design.
    burn_in_steps:
        Fixed burn-in prefix length (use :class:`BurnInSampler`-style
        monitoring upstream to choose it; a fixed number keeps the scheme's
        cost accounting transparent).
    thin:
        Keep every ``thin``-th node after burn-in (1 = keep all).
    """

    def __init__(
        self, design: TransitionDesign, burn_in_steps: int = 100, thin: int = 1
    ) -> None:
        if burn_in_steps < 0:
            raise ConfigurationError(f"burn_in_steps must be >= 0, got {burn_in_steps}")
        if thin < 1:
            raise ConfigurationError(f"thin must be >= 1, got {thin}")
        self.design = design
        self.burn_in_steps = burn_in_steps
        self.thin = thin

    def sample(
        self,
        api: SocialNetworkAPI,
        start: Node,
        count: int,
        seed: RngLike = None,
    ) -> SampleBatch:
        """Collect *count* (correlated) samples from one continuing walk."""
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        rng = ensure_rng(seed)
        batch = SampleBatch(sampler=f"longrun-{self.design.name}")
        current = start
        try:
            for _ in range(self.burn_in_steps):
                current = step_once(api, self.design, current, rng)
                batch.walk_steps += 1
            collected = 0
            since_last = 0
            while collected < count:
                current = step_once(api, self.design, current, rng)
                batch.walk_steps += 1
                since_last += 1
                if since_last >= self.thin:
                    batch.nodes.append(current)
                    batch.target_weights.append(
                        self.design.target_weight(api, current)
                    )
                    collected += 1
                    since_last = 0
        except QueryBudgetExceededError:
            pass
        batch.query_cost = api.query_cost
        return batch
