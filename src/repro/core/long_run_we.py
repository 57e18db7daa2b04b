"""One-long-run WALK-ESTIMATE — the paper's §6.1 future-work sketch.

The paper closes §6.1 with: "we do observe the potential of applying our
WALK-ESTIMATE idea to one long run — e.g., by estimating the sampling
probability for not only the last node (taken as a candidate) but every
node on the walk path — we leave the detailed investigation to further
work."  This module is that investigation.

Design.  One continuous walk is cut into consecutive segments of ``t``
steps.  Conditioned on its entry node ``w_k``, segment ``k``'s endpoint is
distributed as ``p_t`` *from ``w_k``* — the same object WALK-ESTIMATE's
backward walk estimates — so each endpoint can be accepted/rejected against
the target exactly as in the many-short-runs sampler.  An accepted endpoint
is target-distributed **regardless of where the segment started**, so every
accepted sample has the right marginal law; what one long run cannot give
is independence *between* samples (adjacent segments share the boundary
node), which is the same caveat Eq. 25 attaches to the classical long run.

Compared to the short-runs WALK-ESTIMATE:

* no initial crawl — segment starts change every ``t`` steps, so no single
  neighborhood is worth pre-paying for (the backward recursion runs to its
  base case);
* per-segment forward history is a single trajectory, so weighted sampling
  still applies but with thin history;
* the forward walk never restarts, which matters on interfaces where
  "teleporting" back to the start is impossible or where the continuing
  walk keeps re-visiting cached territory.

Two entry points share the design: :class:`LongRunWalkEstimateSampler`
walks one continuous run over a charged :class:`SocialNetworkAPI` with
full per-query accounting, and :func:`long_run_walk_estimate_batch` runs
K continuous walks simultaneously over a compiled
:class:`~repro.graphs.csr.CSRGraph`, estimating and judging every
segment endpoint with the vectorized backward estimator — the
throughput-bound twin, for free in-memory graphs.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.config import WalkEstimateConfig
from repro.core.estimate import ProbabilityEstimator
from repro.core.rejection import RejectionSampler, ScaleFactorBootstrap
from repro.core.sharded import run_round
from repro.core.walk_estimate import (
    BatchWalkEstimateResult,
    calibrate_round,
    judge_round,
)
from repro.core.weighted import BackwardStats, ForwardHistory
from repro.errors import ConfigurationError, QueryBudgetExceededError
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.osn.api import SocialNetworkAPI
from repro.rng import RngLike, ensure_rng
from repro.walks.batch import run_walk_batch
from repro.walks.parallel import InlineExecutor, ShardedWalkEngine
from repro.walks.samplers import SampleBatch
from repro.walks.transitions import Node, TransitionDesign
from repro.walks.walker import run_walk


class LongRunWalkEstimateSampler:
    """WALK-ESTIMATE over one continuous walk, segment by segment."""

    def __init__(
        self,
        design: TransitionDesign,
        config: Optional[WalkEstimateConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        base = config if config is not None else WalkEstimateConfig()
        # The crawl heuristic is start-anchored and does not apply here.
        self.config = base.with_overrides(crawl_hops=0)
        self.design = design
        self.name = name if name is not None else f"we-longrun-{design.name}"

    def _estimate_segment(
        self,
        api: SocialNetworkAPI,
        segment,
        stats: BackwardStats,
        rng,
    ) -> float:
        """``p̂_t(end | start=w_k)`` from the segment's own history, no crawl."""
        history = ForwardHistory(segment.start, segment.steps)
        history.record(segment)
        estimator = ProbabilityEstimator(
            api,
            self.design,
            segment.start,
            segment.steps,
            self.config,
            history=history,
            seed=rng,
        )
        # The run's one effort counter, even if the budget runs out mid-estimate.
        estimator.stats = stats
        return estimator.estimate(segment.end, refine=False).mean

    def sample(
        self,
        api: SocialNetworkAPI,
        start: Node,
        count: int,
        seed: RngLike = None,
    ) -> SampleBatch:
        """Collect *count* target-distributed (correlated) samples."""
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        rng = ensure_rng(seed)
        t = self.config.effective_walk_length
        batch = SampleBatch(sampler=self.name)
        stats = BackwardStats()
        bootstrap = ScaleFactorBootstrap(percentile=self.config.scale_percentile)
        rejection = RejectionSampler(bootstrap, seed=rng)
        current = start
        attempts_left = self.config.max_attempts_per_sample * count
        try:
            # Calibration: a few segments to seed the scale-factor pool.
            for _ in range(self.config.calibration_walks):
                segment = run_walk(api, self.design, current, t, seed=rng)
                current = segment.end
                batch.walk_steps += t
                estimate = self._estimate_segment(api, segment, stats, rng)
                weight = self.design.target_weight(api, segment.end)
                if estimate > 0 and weight > 0:
                    bootstrap.observe(estimate / weight)
            bootstrap.ensure_ready()
            while len(batch.nodes) < count and attempts_left > 0:
                attempts_left -= 1
                segment = run_walk(api, self.design, current, t, seed=rng)
                current = segment.end
                batch.walk_steps += t
                estimate = self._estimate_segment(api, segment, stats, rng)
                weight = self.design.target_weight(api, segment.end)
                if rejection.accept(estimate, weight):
                    batch.nodes.append(segment.end)
                    batch.target_weights.append(weight)
        except QueryBudgetExceededError:
            pass
        batch.walk_steps += stats.steps
        batch.query_cost = api.query_cost
        batch.attempts = rejection.accepted + rejection.rejected
        return batch


# ----------------------------------------------------------------------
# Vectorized batch front end (CSR backend)
# ----------------------------------------------------------------------
def long_run_walk_estimate_batch(
    graph: Union[Graph, CSRGraph, InlineExecutor, ShardedWalkEngine],
    design: TransitionDesign,
    start,
    k_runs: int,
    segments: int,
    config: Optional[WalkEstimateConfig] = None,
    seed: RngLike = None,
) -> BatchWalkEstimateResult:
    """K continuous long-run WALK-ESTIMATE walks, judged segment by segment.

    The throughput twin of :class:`LongRunWalkEstimateSampler` for free
    in-memory graphs: *k_runs* walks advance together through one
    :func:`~repro.walks.batch.run_walk_batch` call of
    ``(calibration + segments) × t`` steps, the path matrix is cut at
    every ``t``-step boundary, and each segment endpoint's conditional
    sampling probability ``p_t(end | entry)`` is estimated by the batched
    backward estimator with **per-segment entry nodes** — the array-start
    form of :func:`~repro.core.unbiased.unbiased_estimate_batch`.  One
    vectorized acceptance–rejection pass then judges every candidate
    segment of every run at once.

    As in the scalar sampler, a calibration prefix
    (``ceil(calibration_walks / k_runs)`` segments per run, with
    ``k_runs`` counted per shard) seeds the
    scale-factor pool and is never offered as candidates, and the crawl
    heuristic stays off — segment starts change every ``t`` steps, so no
    neighborhood is worth pre-paying for.  Accepted endpoints are
    target-distributed marginally; adjacent segments of the same run still
    share a boundary node, the Eq. 25 correlation caveat — diagnose with
    :func:`repro.walks.convergence.diagnose_walk_batch` when independence
    matters.

    Parameters
    ----------
    graph:
        A graph, run in process as one shard, or an executor such as a
        :class:`~repro.walks.parallel.ShardedWalkEngine`, which advances
        one contiguous shard of the runs per worker and merges them
        run-major (see :mod:`repro.core.sharded`).
    start:
        One node (every run begins there) or an array of ``k_runs`` nodes.
    k_runs:
        Number of simultaneous long runs.
    segments:
        Candidate segments per run *after* calibration; the result holds
        ``k_runs × segments`` accept/reject verdicts.

    Returns
    -------
    BatchWalkEstimateResult
        Candidate arrays flattened run-major; ``result.nodes`` /
        ``result.weights`` feed the array-native estimators directly.

    .. note:: **Compatibility front end.**  Prefer
       :func:`repro.core.estimate` with ``EngineConfig(backend="batch",
       long_run=True)``; this signature stays as a thin, parity-pinned
       shim.
    """
    if k_runs < 1:
        raise ConfigurationError(f"k_runs must be >= 1, got {k_runs}")
    if segments < 1:
        raise ConfigurationError(f"segments must be >= 1, got {segments}")
    config = config if config is not None else WalkEstimateConfig()
    starts = np.asarray(start, dtype=np.int64)
    if starts.ndim == 0:
        starts = np.full(k_runs, int(starts), dtype=np.int64)
    elif starts.shape != (k_runs,):
        raise ConfigurationError(
            f"start must be one node or an array of {k_runs} nodes; got "
            f"shape {starts.shape}"
        )
    return run_round(
        graph,
        k_runs,
        seed,
        _long_run_round,
        lambda s: (design, starts[s], segments, config),
    )


def _long_run_round(
    csr: CSRGraph,
    design: TransitionDesign,
    starts: np.ndarray,
    segments: int,
    config: WalkEstimateConfig,
    rng: np.random.Generator,
) -> BatchWalkEstimateResult:
    """One shard of :func:`long_run_walk_estimate_batch`, run by the executor."""
    t = config.effective_walk_length
    calibration = -(-config.calibration_walks // starts.size)  # ceil division
    total = calibration + segments
    walks = run_walk_batch(
        csr, design, starts, total * t, seed=rng, backend=config.kernel_backend
    )
    entries = walks.paths[:, 0 : total * t : t]
    ends = walks.paths[:, t :: t]
    calibration_ends = ends[:, :calibration].ravel()
    rejection = calibrate_round(
        csr, design, calibration_ends, entries[:, :calibration].ravel(), config, rng
    )
    return judge_round(
        csr,
        design,
        ends[:, calibration:].ravel(),
        entries[:, calibration:].ravel(),
        config,
        rng,
        rejection,
        calibration_ends.size,
    )
