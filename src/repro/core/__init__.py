"""WALK-ESTIMATE: the paper's primary contribution.

The sampler replaces the long burn-in "wait" with a short WALK plus a
proactive ESTIMATE of the candidate's sampling probability, corrected to the
target distribution by acceptance–rejection:

* :class:`WalkEstimateConfig` — all knobs with the paper's defaults;
* :class:`InitialCrawl` — h-hop crawl with an exact ``p_s(v), s ≤ h`` table;
* :func:`unbiased_estimate` — UNBIASED-ESTIMATE (Algorithm 1);
* :class:`ForwardHistory` / :func:`weighted_backward_estimate` — WS-BW
  (Algorithm 2, importance-corrected) — plus :func:`ws_bw_batch`, the
  crawl-aware batched form for the charged-API regime (K backward walks
  per array operation, scalar-parity at K=1);
* :class:`ProbabilityEstimator` — ESTIMATE with variance-proportional
  repetition budget (Algorithm 3);
* :class:`RejectionSampler` — acceptance–rejection with the bootstrapped
  scale factor (§6.3.2);
* :class:`WalkEstimateSampler` — the full algorithm, plus the ablation
  variants WE-None / WE-Crawl / WE-Weighted (§7.1);
* :class:`IdealWalk` — the oracle IDEAL-WALK used in the theory (§4.1);
* :class:`LongRunWalkEstimateSampler` /
  :func:`long_run_walk_estimate_batch` — WALK-ESTIMATE over one (or K
  simultaneous) continuous long runs (§6.1 future work).
"""

from repro.core.config import CrawlPipelineConfig, WalkEstimateConfig
from repro.core.crawl import InitialCrawl
from repro.core.unbiased import (
    backward_candidates,
    unbiased_estimate,
    unbiased_estimate_batch,
)
from repro.core.weighted import (
    BackwardStats,
    ForwardHistory,
    weighted_backward_estimate,
    ws_bw_batch,
)
from repro.core.estimate import ProbabilityEstimate, ProbabilityEstimator
from repro.core.rejection import RejectionSampler, ScaleFactorBootstrap
from repro.core.walk_estimate import (
    BatchWalkEstimateResult,
    SampleRecord,
    WalkEstimateSampler,
    walk_estimate_batch,
    we_crawl_sampler,
    we_full_sampler,
    we_none_sampler,
    we_weighted_sampler,
)
from repro.core.ideal import IdealWalk
from repro.core.long_run_we import (
    LongRunWalkEstimateSampler,
    long_run_walk_estimate_batch,
)
from repro.core.sharded import merge_batch_results

# The unified front door (PR 6).  Imported last on purpose: binding the
# `estimate` *function* here shadows the `repro.core.estimate` submodule
# attribute, which is intended — `from repro.core.estimate import X` keeps
# working through sys.modules, while `repro.core.estimate(job)` becomes the
# one public dispatch call the CLI, examples, and service all route through.
from repro.core.dispatch import (
    EngineConfig,
    EstimateResult,
    EstimationJobSpec,
    design_from_spec,
    design_to_spec,
    estimate,
)

__all__ = [
    "estimate",
    "EstimationJobSpec",
    "EngineConfig",
    "EstimateResult",
    "design_from_spec",
    "design_to_spec",
    "CrawlPipelineConfig",
    "WalkEstimateConfig",
    "InitialCrawl",
    "unbiased_estimate",
    "unbiased_estimate_batch",
    "backward_candidates",
    "BackwardStats",
    "ForwardHistory",
    "weighted_backward_estimate",
    "ws_bw_batch",
    "ProbabilityEstimator",
    "ProbabilityEstimate",
    "RejectionSampler",
    "ScaleFactorBootstrap",
    "WalkEstimateSampler",
    "SampleRecord",
    "walk_estimate_batch",
    "BatchWalkEstimateResult",
    "we_none_sampler",
    "we_crawl_sampler",
    "we_weighted_sampler",
    "we_full_sampler",
    "IdealWalk",
    "LongRunWalkEstimateSampler",
    "long_run_walk_estimate_batch",
    "merge_batch_results",
]
