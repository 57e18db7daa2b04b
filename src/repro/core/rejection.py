"""Acceptance–rejection with a bootstrapped scale factor (paper §2.3, §6.3.2).

Rejection sampling corrects a sample drawn with probability ``p(u)`` to a
target ``q(u)`` by accepting with probability

    β(u) = (q(u) / p(u)) · min_v p(v)/q(v).

Targets are handled *unnormalized* (``q̃``; degree for SRW, 1 for MHRW) —
the normalizer cancels inside β, which is what makes the method usable when
``|V|`` is unknown.  The exact ``min_v p(v)/q̃(v)`` needs global knowledge,
so, following §6.3.2, :class:`ScaleFactorBootstrap` tracks the observed
ratios ``p̂(v)/q̃(v)`` and uses a low percentile of them as the scale
factor: the samplers pass ``WalkEstimateConfig.scale_percentile``, 25 by
default, where the paper reports the 10th; β is clamped to 1, trading a
small bias for efficiency exactly as the paper describes.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError, EstimationError
from repro.rng import RngLike, ensure_rng


class ScaleFactorBootstrap:
    """Running estimate of ``min_v p(v)/q̃(v)`` from observed ratios."""

    def __init__(self, percentile: float = 10.0, minimum_observations: int = 5) -> None:
        if not 0.0 < percentile < 100.0:
            raise ConfigurationError(
                f"percentile must be in (0, 100), got {percentile}"
            )
        if minimum_observations < 1:
            raise ConfigurationError(
                f"minimum_observations must be >= 1, got {minimum_observations}"
            )
        self.percentile = percentile
        self.minimum_observations = minimum_observations
        self._ratios: List[float] = []
        self._scale: Optional[float] = None

    def observe(self, ratio: float) -> None:
        """Record one observed ``p̂(v)/q̃(v)`` (non-finite/negative dropped).

        Zero ratios are kept out of the pool: a ``p̂ = 0`` estimate carries
        no scale information (it would drive the factor to 0, accepting
        everything and destroying the correction).
        """
        if ratio > 0.0 and np.isfinite(ratio):
            self._ratios.append(float(ratio))
            self._scale = None

    def observe_many(self, ratios) -> None:
        """Record a whole array of ratios at once (same filtering rules)."""
        ratios = np.asarray(ratios, dtype=float)
        kept = ratios[(ratios > 0.0) & np.isfinite(ratios)]
        if kept.size:
            self._ratios.extend(kept.tolist())
            self._scale = None

    @property
    def observation_count(self) -> int:
        """Number of usable ratios recorded."""
        return len(self._ratios)

    @property
    def ready(self) -> bool:
        """True once enough ratios exist for a stable percentile."""
        return len(self._ratios) >= self.minimum_observations

    def ensure_ready(self, neutral: float = 1.0) -> None:
        """Pad the pool with *neutral* ratios until :attr:`ready`.

        The degenerate-calibration fallback every WALK-ESTIMATE front end
        shares: when calibration produced no usable ratios (e.g. every
        estimate was 0), a neutral scale lets sampling proceed while the
        pool keeps filling with real observations.

        Raises
        ------
        ConfigurationError
            If *neutral* is not a positive finite ratio: :meth:`observe`
            would drop it, and the pool would never fill.
        """
        if not (neutral > 0.0 and math.isfinite(neutral)):
            raise ConfigurationError(
                f"neutral ratio must be positive and finite, got {neutral}"
            )
        while not self.ready:
            self.observe(neutral)

    def scale_factor(self) -> float:
        """The bootstrapped stand-in for ``min_v p(v)/q̃(v)``.

        NumPy's default (linear) percentile of the pool, bit for bit, read
        off the sorted pool by :func:`_linear_percentile` without
        :func:`numpy.percentile`'s per-call overhead.  It is computed once
        per state of the ratio pool and reused until :meth:`observe` or
        :meth:`observe_many` adds a ratio.

        Raises
        ------
        EstimationError
            If called before :attr:`ready`.
        """
        if self._scale is None:
            if not self._ratios:
                raise EstimationError("no ratios observed yet")
            if not self.ready:
                raise EstimationError(
                    f"need {self.minimum_observations} ratios, have {len(self._ratios)}"
                )
            self._scale = _linear_percentile(np.sort(self._ratios), self.percentile)
        return self._scale


def _linear_percentile(ordered: np.ndarray, percentile: float) -> float:
    """``np.percentile(ordered, percentile)`` for an ascending 1-d array.

    The same arithmetic as NumPy's default ``linear`` method, in Python
    floats: the virtual index ``(n − 1)·(p/100)``, the largest value at or
    past the last index, and otherwise NumPy's two-sided interpolation
    between the neighbours ``a ≤ b`` with ``γ`` the index's fraction
    (``numpy.lib._function_base_impl._lerp``).
    """
    index = (ordered.size - 1) * (percentile / 100)
    if index >= ordered.size - 1:
        return float(ordered[-1])
    below = math.floor(index)
    a, b = float(ordered[below]), float(ordered[below + 1])
    gamma = index - below
    if gamma >= 0.5:
        return b - (b - a) * (1 - gamma)
    return a + (b - a) * gamma


class RejectionSampler:
    """Accept/reject decisions against an unnormalized target.

    Parameters
    ----------
    bootstrap:
        The scale-factor tracker (shared with the calibration phase).
    seed:
        RNG for the acceptance coin flips.
    """

    def __init__(self, bootstrap: ScaleFactorBootstrap, seed: RngLike = None) -> None:
        self.bootstrap = bootstrap
        self._rng = ensure_rng(seed)
        self.accepted = 0
        self.rejected = 0

    def acceptance_probability(self, estimated_p: float, target_weight: float) -> float:
        """β(u) = clamp(scale / (p̂(u)/q̃(u)), ≤ 1).

        A ``p̂ = 0`` estimate yields β = 1: the walk thinks the node was
        (nearly) unreachable, so it is certainly not over-represented.
        """
        if target_weight <= 0.0:
            raise ConfigurationError(
                f"target weight must be positive, got {target_weight}"
            )
        if estimated_p < 0.0:
            raise EstimationError(f"negative probability estimate {estimated_p}")
        scale = self.bootstrap.scale_factor()
        if estimated_p == 0.0:
            return 1.0
        ratio = estimated_p / target_weight
        return min(1.0, scale / ratio)

    def accept(self, estimated_p: float, target_weight: float) -> bool:
        """Flip the β(u) coin; also feeds the ratio back into the bootstrap.

        Feeding every decision's ratio back keeps the scale factor adaptive
        as more of the graph is seen (the paper bootstraps "based on the
        samples already observed").
        """
        beta = self.acceptance_probability(estimated_p, target_weight)
        if target_weight > 0.0 and estimated_p > 0.0:
            self.bootstrap.observe(estimated_p / target_weight)
        accepted = bool(self._rng.random() < beta)
        if accepted:
            self.accepted += 1
        else:
            self.rejected += 1
        return accepted

    # ------------------------------------------------------------------
    # Vectorized batch decisions
    # ------------------------------------------------------------------
    def acceptance_probabilities(self, estimated_p, target_weights) -> np.ndarray:
        """β(u) for aligned arrays of estimates and target weights.

        Vectorized :meth:`acceptance_probability`: one clamp and one
        division decide every candidate of a batch simultaneously.
        """
        estimated = np.asarray(estimated_p, dtype=float)
        targets = np.asarray(target_weights, dtype=float)
        if np.any(targets <= 0.0):
            bad = float(targets[targets <= 0.0][0])
            raise ConfigurationError(f"target weight must be positive, got {bad}")
        if np.any(estimated < 0.0):
            bad = float(estimated[estimated < 0.0][0])
            raise EstimationError(f"negative probability estimate {bad}")
        scale = self.bootstrap.scale_factor()
        betas = np.ones_like(estimated)
        positive = estimated > 0.0
        betas[positive] = np.minimum(
            1.0, scale * targets[positive] / estimated[positive]
        )
        return betas

    def accept_batch(
        self, estimated_p, target_weights
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flip every candidate's β(u) coin at once.

        Returns ``(accepted, betas)`` — the bool decision mask and the
        acceptance probabilities the coins were flipped against, computed
        once so callers never hold betas that diverge from the decisions.
        Like :meth:`accept`, every positive ratio feeds back into the
        bootstrap pool, keeping the scale factor adaptive as the batch's
        candidates are seen.
        """
        betas = self.acceptance_probabilities(estimated_p, target_weights)
        estimated = np.asarray(estimated_p, dtype=float)
        targets = np.asarray(target_weights, dtype=float)
        self.bootstrap.observe_many(estimated / targets)
        accepted = self._rng.random(betas.size) < betas
        self.accepted += int(accepted.sum())
        self.rejected += int(betas.size - accepted.sum())
        return accepted, betas

    @property
    def acceptance_rate(self) -> float:
        """Empirical acceptance rate over all decisions so far."""
        total = self.accepted + self.rejected
        if total == 0:
            return 0.0
        return self.accepted / total
