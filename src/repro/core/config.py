"""Configuration for WALK-ESTIMATE with the paper's defaults (§7.1),
plus the async crawl pipeline's knobs."""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Optional

from repro.errors import ConfigurationError, check_field


@dataclass(frozen=True)
class WalkEstimateConfig:
    """All WALK-ESTIMATE knobs in one immutable record.

    Attributes
    ----------
    walk_length:
        Forward walk length *t*.  ``None`` derives ``2 * diameter_hint + 1``
        — the paper's conservative rule (§4.3: "we set the walk length to
        2d + 1 where d is the (estimated) graph diameter").
    diameter_hint:
        Estimated/assumed graph diameter; the paper treats 8–10 as a safe
        bet for real OSNs and uses d=7 for Google Plus.
    crawl_hops:
        Initial-crawl depth *h* (0 disables the heuristic; paper uses
        h=1 for Google Plus, h=2 elsewhere).  The crawl queries every node
        within *h* hops of the start, so its cost scales with the start's
        h-hop ball: starting at a hub of a dense graph with h=2 can cost
        thousands of queries — use h=1 there (this is exactly why the
        paper drops to h=1 on Google Plus).
    weighted_sampling:
        Enable WS-BW backward weighting (Algorithm 2).
    kernel_backend:
        Kernel backend executing the batch forward-walk trajectory loop
        — ``numpy`` (reference), ``native`` (Numba JIT) or ``python``
        (verification twin); see :mod:`repro.walks.kernels`.  This is
        the one field that names a job's kernel.  Every backend consumes
        the seed stream identically, so this is a pure throughput knob:
        estimates, query accounting, and RNG state are bit-for-bit
        unchanged.  The name is validated here; availability (``native``
        needs numba) is checked by
        :class:`~repro.core.dispatch.EstimationJobSpec` and
        :func:`~repro.walks.batch.run_walk_batch`.  The charged samplers
        walk node by node through the API and never read it.
    epsilon:
        WS-BW's minimum exploration mass ε (paper default 0.1).
    backward_repetitions:
        Backward-walk repetitions per probability estimate before variance
        refinement.  More repetitions buy sharper estimates (hence better
        bias control) at a real query cost on sparse graphs where backward
        walks leave the cached region — raise this for bias-critical runs
        without tight budgets (the exact-bias experiments use 24+8), keep
        it modest for budget-constrained campaigns.
    refine_repetitions:
        Extra backward walks distributed across pending estimates
        proportionally to their estimation variance (Algorithm 3's
        budget-allocation step).
    scale_percentile:
        Percentile of observed ``p̂(v)/q̃(v)`` ratios used as the
        rejection-sampling scale factor.  The paper reports the 10th
        percentile; with the modest backward-repetition counts practical on
        small surrogates the estimate noise widens the ratio pool, so the
        library defaults to 25 — the "more aggressively (i.e., higher)"
        end of the trade-off §6.3.2 describes.  Lower it for bias-critical
        work (the exact-bias experiments do).
    calibration_walks:
        Forward walks run before sampling starts, used to (a) seed the
        WS-BW history and (b) bootstrap the scale factor.
    max_attempts_per_sample:
        Safety valve on rejection loops.
    """

    walk_length: int | None = None
    diameter_hint: int = 10
    crawl_hops: int = 2
    weighted_sampling: bool = True
    kernel_backend: str = "numpy"
    epsilon: float = 0.2
    backward_repetitions: int = 12
    refine_repetitions: int = 4
    scale_percentile: float = 25.0
    calibration_walks: int = 15
    max_attempts_per_sample: int = 200

    def __post_init__(self) -> None:
        def check(name, kind, minimum=None, optional=False):
            value = getattr(self, name)
            check_field("WalkEstimateConfig", name, value, kind, minimum, optional)

        check("walk_length", Integral, 1, optional=True)
        check("diameter_hint", Integral, 1)
        check("crawl_hops", Integral, 0)
        check("weighted_sampling", bool)
        from repro.walks.kernels import backend_names

        if self.kernel_backend not in backend_names():
            raise ConfigurationError(
                f"unknown kernel_backend {self.kernel_backend!r}; "
                "valid: " + ", ".join(backend_names())
            )
        check("epsilon", Real)
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1], got {self.epsilon}")
        check("backward_repetitions", Integral, 1)
        check("refine_repetitions", Integral, 0)
        check("scale_percentile", Real)
        if not 0.0 < self.scale_percentile < 100.0:
            raise ConfigurationError(
                f"scale_percentile must be in (0, 100), got {self.scale_percentile}"
            )
        check("calibration_walks", Integral, 1)
        check("max_attempts_per_sample", Integral, 1)

    @property
    def effective_walk_length(self) -> int:
        """The forward walk length actually used."""
        if self.walk_length is not None:
            return self.walk_length
        return 2 * self.diameter_hint + 1

    @property
    def calibration_repetitions(self) -> int:
        """Backward repetitions per *calibration* estimate.

        Calibration only needs the ratio pool roughly right, so every
        WALK-ESTIMATE front end prices its calibration walks at a third of
        the production budget (floored at 3) — one shared policy, not a
        per-sampler constant.
        """
        return max(3, self.backward_repetitions // 3)

    def with_overrides(self, **changes) -> "WalkEstimateConfig":
        """Copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class CrawlPipelineConfig:
    """Knobs of the async crawl pipeline (:mod:`repro.crawl`).

    Attributes
    ----------
    concurrency:
        Fetch batches the :class:`~repro.crawl.crawler.AsyncCrawler` keeps
        in flight.  1 reproduces the serial crawl's accounting and row
        order exactly; ≥4 is where the overlap pays on a latency-bound
        network.
    batch_size:
        Frontier nodes per fetch batch — one accounting settlement (one
        counter charge, one budget decision, one rate acquisition) each.
    rows_per_epoch:
        New neighbor rows to crawl before each epoch reports the held
        rows' mean.
    max_depth:
        Crawl radius around the start (``None`` = everything reachable);
        matches ``InitialCrawl(hops=max_depth)`` semantics.
    """

    concurrency: int = 4
    batch_size: int = 32
    rows_per_epoch: int = 128
    max_depth: Optional[int] = None

    def __post_init__(self) -> None:
        for field_name in ("concurrency", "batch_size", "rows_per_epoch"):
            value = getattr(self, field_name)
            if value < 1:
                raise ConfigurationError(f"{field_name} must be >= 1, got {value}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigurationError(
                f"max_depth must be >= 0 or None, got {self.max_depth}"
            )

    def with_overrides(self, **changes) -> "CrawlPipelineConfig":
        """Copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)
