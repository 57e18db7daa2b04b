"""WALK-ESTIMATE: the full sampler (paper §3–§5).

Per sample: run a *short* forward walk (``2d + 1`` steps by default, §4.3),
take its endpoint as a candidate, ESTIMATE the candidate's sampling
probability with crawl-assisted weighted backward walks, and
accept/reject it against the input design's target distribution.  The
output sample follows the *same* target distribution as the input MCMC
sampler — WALK-ESTIMATE is a swap-in replacement (§1.2) — at a fraction of
the query cost.

The ablation variants of §7.1 are exposed as factory functions:

========================  ==============  ===================
variant                   initial crawl   weighted sampling
========================  ==============  ===================
:func:`we_none_sampler`   —               —
:func:`we_crawl_sampler`  ✓               —
:func:`we_weighted_sampler`  —            ✓
:func:`we_full_sampler`   ✓               ✓
========================  ==============  ===================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.core.config import WalkEstimateConfig
from repro.core.crawl import InitialCrawl
from repro.core.estimate import ProbabilityEstimator
from repro.core.rejection import RejectionSampler, ScaleFactorBootstrap
from repro.core.sharded import run_round
from repro.core.unbiased import unbiased_estimate_batch
from repro.core.weighted import ForwardHistory
from repro.errors import ConfigurationError, QueryBudgetExceededError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.osn.api import SocialNetworkAPI
from repro.rng import RngLike, ensure_rng
from repro.walks.batch import run_walk_batch, target_weights_batch
from repro.walks.parallel import InlineExecutor, ShardedWalkEngine
from repro.walks.samplers import SampleBatch
from repro.walks.transitions import Node, TransitionDesign
from repro.walks.walker import run_walk


@dataclass(frozen=True)
class SampleRecord:
    """Full provenance of one accept/reject decision."""

    candidate: Node
    estimated_probability: float
    target_weight: float
    acceptance_probability: float
    accepted: bool
    query_cost_after: int


@dataclass
class WalkEstimateReport:
    """Everything a WALK-ESTIMATE run produced beyond the samples.

    The three ``*_cost`` fields attribute unique-node query cost to the
    run's phases — initial crawl, forward walking, backward estimation —
    via counter snapshots/deltas (a node charged in one phase is free in
    every later one, so the numbers depend on phase order; anything left
    over, e.g. target-weight lookups, shows up in the sampler's total but
    in none of the three).
    """

    records: List[SampleRecord] = field(default_factory=list)
    forward_walks: int = 0
    forward_steps: int = 0
    backward_steps: int = 0
    crawl_cost: int = 0
    walk_cost: int = 0
    backward_cost: int = 0

    @property
    def attempts(self) -> int:
        """Total accept/reject decisions made."""
        return len(self.records)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of candidates accepted."""
        if not self.records:
            return 0.0
        return sum(r.accepted for r in self.records) / len(self.records)

    @property
    def total_steps(self) -> int:
        """Forward plus backward transitions (Figure 5's effort measure)."""
        return self.forward_steps + self.backward_steps


class WalkEstimateSampler:
    """The WALK-ESTIMATE sampler over any input transition design.

    Parameters
    ----------
    design:
        The input MCMC sampler's transit design; WALK-ESTIMATE reproduces
        its target distribution.
    config:
        Algorithm knobs; defaults follow the paper (§7.1).
    name:
        Label for reports; defaults to ``we-<design>``.
    """

    def __init__(
        self,
        design: TransitionDesign,
        config: Optional[WalkEstimateConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.design = design
        self.config = config if config is not None else WalkEstimateConfig()
        self.name = name if name is not None else f"we-{design.name}"
        #: Report of the most recent :meth:`sample` call.
        self.last_report: Optional[WalkEstimateReport] = None

    def sample(
        self,
        api: SocialNetworkAPI,
        start: Node,
        count: int,
        seed: RngLike = None,
    ) -> SampleBatch:
        """Draw *count* samples of the design's target distribution.

        Stops early with a partial batch when the API's query budget runs
        out; detailed provenance lands in :attr:`last_report`.
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        rng = ensure_rng(seed)
        t = self.config.effective_walk_length
        report = WalkEstimateReport()
        self.last_report = report
        batch = SampleBatch(sampler=self.name)
        estimator: Optional[ProbabilityEstimator] = None

        try:
            before_crawl = api.snapshot()
            crawl = self._build_crawl(api, start)
            report.crawl_cost = api.counter.delta(before_crawl).unique_nodes
            history = ForwardHistory(start, t)
            estimator = ProbabilityEstimator(
                api,
                self.design,
                start,
                t,
                self.config,
                history=history,
                crawl=crawl,
                seed=rng,
            )
            bootstrap = ScaleFactorBootstrap(percentile=self.config.scale_percentile)
            rejection = RejectionSampler(bootstrap, seed=rng)

            self._calibrate(api, start, t, history, estimator, bootstrap, report, rng)

            attempts_left = self.config.max_attempts_per_sample * count
            while len(batch.nodes) < count and attempts_left > 0:
                attempts_left -= 1
                candidate = self._one_candidate(api, start, t, history, report, rng)
                before_estimate = api.snapshot()
                estimate = estimator.estimate(candidate)
                report.backward_cost += api.counter.delta(
                    before_estimate
                ).unique_nodes
                target_weight = self.design.target_weight(api, candidate)
                beta = rejection.acceptance_probability(estimate.mean, target_weight)
                accepted = rejection.accept(estimate.mean, target_weight)
                report.records.append(
                    SampleRecord(
                        candidate=candidate,
                        estimated_probability=estimate.mean,
                        target_weight=target_weight,
                        acceptance_probability=beta,
                        accepted=accepted,
                        query_cost_after=api.query_cost,
                    )
                )
                if accepted:
                    batch.nodes.append(candidate)
                    batch.target_weights.append(target_weight)
        except QueryBudgetExceededError:
            pass  # Return whatever was gathered; cost curves use partials.

        report.backward_steps = estimator.stats.steps if estimator is not None else 0
        batch.query_cost = api.query_cost
        batch.walk_steps = report.total_steps
        batch.attempts = report.attempts
        return batch

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _build_crawl(
        self, api: SocialNetworkAPI, start: Node
    ) -> Optional[InitialCrawl]:
        if self.config.crawl_hops == 0:
            return None
        return InitialCrawl(api, self.design, start, self.config.crawl_hops)

    def _one_candidate(self, api, start, t, history, report, rng) -> Node:
        before = api.snapshot()
        walk = run_walk(api, self.design, start, t, seed=rng)
        report.walk_cost += api.counter.delta(before).unique_nodes
        history.record(walk)
        report.forward_walks += 1
        report.forward_steps += t
        return walk.end

    def _calibrate(
        self, api, start, t, history, estimator, bootstrap, report, rng
    ) -> None:
        """Seed the WS-BW history and the scale-factor pool (§6.3.2).

        The calibration walks are not wasted: their trajectories feed the
        weighted-sampling history, and their endpoint estimates populate
        the ratio pool whose ``scale_percentile``-th percentile (25 by
        default) is the scale factor.
        """
        light_repetitions = self.config.calibration_repetitions
        for _ in range(self.config.calibration_walks):
            candidate = self._one_candidate(api, start, t, history, report, rng)
            before_estimate = api.snapshot()
            estimate = estimator.estimate(
                candidate, repetitions=light_repetitions, refine=False
            )
            report.backward_cost += api.counter.delta(before_estimate).unique_nodes
            target_weight = self.design.target_weight(api, candidate)
            if target_weight > 0 and estimate.mean > 0:
                bootstrap.observe(estimate.mean / target_weight)
        bootstrap.ensure_ready()


# ----------------------------------------------------------------------
# Vectorized batch front end (CSR backend)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchWalkEstimateResult:
    """Per-walk arrays from one :func:`walk_estimate_batch` round.

    Everything is aligned by walk index, so estimator fan-in is pure
    array arithmetic — :func:`repro.estimators.aggregates.average_estimate_arrays`
    consumes :attr:`nodes` / :attr:`weights` directly.
    """

    candidates: np.ndarray
    """Endpoint of every forward walk, shape ``(K,)``."""

    estimates: np.ndarray
    """Estimated sampling probability ``p̂`` per candidate, shape ``(K,)``."""

    target_weights: np.ndarray
    """Unnormalized target weight ``q̃`` per candidate, shape ``(K,)``."""

    acceptance: np.ndarray
    """Acceptance probability β per candidate, shape ``(K,)``."""

    accepted: np.ndarray
    """Boolean accept/reject mask, shape ``(K,)``."""

    forward_steps: int
    backward_steps: int

    @property
    def nodes(self) -> np.ndarray:
        """Accepted sample nodes (the batch's output), as an array."""
        return self.candidates[self.accepted]

    @property
    def weights(self) -> np.ndarray:
        """Target weights of the accepted samples, aligned to :attr:`nodes`."""
        return self.target_weights[self.accepted]

    @property
    def attempts(self) -> int:
        """Candidates judged (one accept/reject decision per walk)."""
        return int(self.accepted.size)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of candidates accepted."""
        if self.accepted.size == 0:
            return 0.0
        return float(self.accepted.mean())

    @property
    def query_cost(self) -> int:
        """Unique-node queries charged: always 0, a free graph charges none."""
        return 0

    @property
    def walk_steps(self) -> int:
        """Forward + backward transitions taken."""
        return self.forward_steps + self.backward_steps

    def to_sample_batch(self, sampler: str = "we-batch") -> SampleBatch:
        """Repackage as a :class:`SampleBatch` for the scalar-era tooling."""
        return SampleBatch(
            nodes=[int(n) for n in self.nodes],
            target_weights=[float(w) for w in self.weights],
            query_cost=self.query_cost,
            walk_steps=self.walk_steps,
            sampler=sampler,
            attempts=self.attempts,
        )


def walk_estimate_batch(
    graph: Union[Graph, CSRGraph, InlineExecutor, ShardedWalkEngine],
    design: TransitionDesign,
    start: Node,
    k_walks: int,
    config: Optional[WalkEstimateConfig] = None,
    seed: RngLike = None,
) -> BatchWalkEstimateResult:
    """One vectorized WALK-ESTIMATE round: K walks, K estimates, K verdicts.

    The throughput-oriented twin of :class:`WalkEstimateSampler` for free
    in-memory graphs: K forward walks advance together
    (:func:`~repro.walks.batch.run_walk_batch`), their endpoints'
    sampling probabilities are estimated by batched backward walks
    (:func:`~repro.core.unbiased.unbiased_estimate_batch`), and
    acceptance–rejection is decided for the whole batch in one vectorized
    pass.  Because the graph is free, the query-cost heuristics of the
    online sampler (initial crawl, WS-BW weighting) are deliberately
    absent — they buy query savings, not wall-clock speed.  Use
    :class:`WalkEstimateSampler` whenever cost against a
    :class:`~repro.osn.api.SocialNetworkAPI` is the thing being measured.

    *graph* is a :class:`Graph` or :class:`CSRGraph`, run in process as
    one shard, or an executor — a
    :class:`~repro.walks.parallel.ShardedWalkEngine` runs one shard per
    worker (see :mod:`repro.core.sharded`).

    Accepted nodes follow the design's target distribution, so feeding
    ``result.nodes`` / ``result.weights`` to
    :func:`~repro.estimators.aggregates.average_estimate_arrays` estimates
    population aggregates exactly as the scalar pipeline does.  Rejection
    thins the batch: expect ``len(result.nodes) < k_walks``, and run
    another round (fresh seed) if more samples are needed.

    .. note:: **Compatibility front end.**  New call sites should go
       through :func:`repro.core.estimate` with
       ``EngineConfig(backend="batch")`` — the unified dispatcher is
       parity-pinned to this function and is the only entry point the
       serving layer and CLI use.  This signature stays as a thin
       compatibility shim.
    """
    if k_walks < 1:
        raise ConfigurationError(f"k_walks must be >= 1, got {k_walks}")
    config = config if config is not None else WalkEstimateConfig()
    return run_round(
        graph,
        k_walks,
        seed,
        _we_round,
        lambda s: (design, start, s.stop - s.start, config),
    )


def _we_round(
    csr: CSRGraph,
    design: TransitionDesign,
    start: Node,
    k_walks: int,
    config: WalkEstimateConfig,
    rng: np.random.Generator,
) -> BatchWalkEstimateResult:
    """One shard of :func:`walk_estimate_batch`, run by the executor."""
    t = config.effective_walk_length
    calibration = run_walk_batch(
        csr,
        design,
        np.full(config.calibration_walks, start),
        t,
        seed=rng,
        backend=config.kernel_backend,
    )
    rejection = calibrate_round(csr, design, calibration.ends, start, config, rng)
    walks = run_walk_batch(
        csr,
        design,
        np.full(k_walks, start),
        t,
        seed=rng,
        backend=config.kernel_backend,
    )
    return judge_round(
        csr, design, walks.ends, start, config, rng, rejection, calibration.ends.size
    )


def calibrate_round(
    csr: CSRGraph,
    design: TransitionDesign,
    ends: np.ndarray,
    entries,
    config: WalkEstimateConfig,
    rng: np.random.Generator,
) -> RejectionSampler:
    """A free-graph round's rejection step, calibrated on its own walks.

    Estimates the calibration endpoints *ends* from their *entries* at
    ``calibration_repetitions`` and observes their ratios p̂/q̃ (§6.3.2),
    padding the pool if too few were positive.
    """
    t = config.effective_walk_length
    light = config.calibration_repetitions
    estimates = unbiased_estimate_batch(
        csr, design, ends, entries, t, seed=rng, repetitions=light
    )
    bootstrap = ScaleFactorBootstrap(percentile=config.scale_percentile)
    bootstrap.observe_many(estimates / target_weights_batch(csr, design, ends))
    bootstrap.ensure_ready()
    return RejectionSampler(bootstrap, seed=rng)


def judge_round(
    csr: CSRGraph,
    design: TransitionDesign,
    candidates: np.ndarray,
    entries,
    config: WalkEstimateConfig,
    rng: np.random.Generator,
    rejection: RejectionSampler,
    calibrated: int,
) -> BatchWalkEstimateResult:
    """Estimate, weigh and judge a free-graph round's candidates at once.

    *calibrated* counts the endpoints :func:`calibrate_round` estimated.
    Every endpoint ended ``t`` forward steps, so the step counts follow.
    """
    t = config.effective_walk_length
    repetitions = config.backward_repetitions + config.refine_repetitions
    estimates = unbiased_estimate_batch(
        csr, design, candidates, entries, t, seed=rng, repetitions=repetitions
    )
    weights = target_weights_batch(csr, design, candidates)
    accepted, betas = rejection.accept_batch(estimates, weights)
    calibration_walks = calibrated * config.calibration_repetitions
    return BatchWalkEstimateResult(
        candidates=candidates,
        estimates=estimates,
        target_weights=weights,
        acceptance=betas,
        accepted=accepted,
        forward_steps=(calibrated + candidates.size) * t,
        backward_steps=(calibration_walks + candidates.size * repetitions) * t,
    )


# ----------------------------------------------------------------------
# §7.1 ablation variants
# ----------------------------------------------------------------------
def _variant(design, config, label, crawl, weighted) -> WalkEstimateSampler:
    """A §7.1 variant of *config*; its crawl, when on, defaults to h = 2."""
    base = config if config is not None else WalkEstimateConfig()
    hops = (base.crawl_hops or 2) if crawl else 0
    return WalkEstimateSampler(
        design,
        base.with_overrides(crawl_hops=hops, weighted_sampling=weighted),
        name=f"{label}{design.name}",
    )


def we_none_sampler(
    design: TransitionDesign, config: Optional[WalkEstimateConfig] = None
) -> WalkEstimateSampler:
    """WE-None: neither variance-reduction heuristic."""
    return _variant(design, config, "we-none-", crawl=False, weighted=False)


def we_crawl_sampler(
    design: TransitionDesign, config: Optional[WalkEstimateConfig] = None
) -> WalkEstimateSampler:
    """WE-Crawl: initial crawling only."""
    return _variant(design, config, "we-crawl-", crawl=True, weighted=False)


def we_weighted_sampler(
    design: TransitionDesign, config: Optional[WalkEstimateConfig] = None
) -> WalkEstimateSampler:
    """WE-Weighted: weighted backward sampling only."""
    return _variant(design, config, "we-weighted-", crawl=False, weighted=True)


def we_full_sampler(
    design: TransitionDesign, config: Optional[WalkEstimateConfig] = None
) -> WalkEstimateSampler:
    """WE: both heuristics on (the paper's main algorithm)."""
    return _variant(design, config, "we-", crawl=True, weighted=True)
