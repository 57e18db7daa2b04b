"""AVG aggregate estimators for uniform and non-uniform samples.

Paper §7.1: "We used arithmetic and harmonic mean for the uniform and
non-uniform samples respectively."  In estimator language:

* uniform-target samples (MHRW, or WE with a uniform target) — the plain
  arithmetic mean is unbiased;
* degree-proportional samples (SRW at stationarity, or WE with SRW's
  target) — use self-normalized importance weighting with weights
  ``1/q̃(v)``:

      mean(f) ≈ Σ f(v_i)/q̃(v_i)  /  Σ 1/q̃(v_i),

  which for ``f = degree`` and ``q̃ = degree`` reduces exactly to the
  harmonic mean of sampled degrees — the paper's estimator.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.walks.samplers import SampleBatch


def plain_mean(values: Sequence[float]) -> float:
    """Arithmetic mean; unbiased for uniform samples."""
    if len(values) == 0:
        raise EstimationError("cannot average an empty sample")
    return float(np.mean(values))


def _checked(values, target_weights) -> Tuple[np.ndarray, np.ndarray]:
    """*values* and *target_weights* as aligned float arrays, or raise."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(target_weights, dtype=float)
    if values.size == 0:
        raise EstimationError("cannot average an empty sample")
    if values.shape != weights.shape:
        raise EstimationError(f"{values.size} values but {weights.size} weights")
    if np.any(weights <= 0):
        raise EstimationError("target weights must be positive")
    return values, weights


def importance_weighted_mean(
    values: Sequence[float], target_weights: Sequence[float]
) -> float:
    """Self-normalized importance-weighted mean for non-uniform samples.

    *target_weights* are the unnormalized stationary weights ``q̃(v_i)``
    the sample was drawn with (degree for SRW).  Weighting by their
    reciprocals de-biases toward the node-uniform population mean.
    """
    values, weights = _checked(values, target_weights)
    return importance_estimate(values, 1.0 / weights)[0]


def average_estimate_arrays(values, target_weights) -> float:
    """AVG estimate from aligned NumPy arrays, no Python-loop fan-in.

    The array-native form of :func:`average_estimate` for the batch
    pipeline: ``values[i]`` is the measured quantity of sample *i* and
    ``target_weights[i]`` its unnormalized stationary weight ``q̃`` (e.g.
    :attr:`~repro.core.walk_estimate.BatchWalkEstimateResult.weights`).
    All-equal weights (uniform target) select the arithmetic mean;
    otherwise self-normalized importance weighting — the same
    arithmetic/harmonic rule, decided and computed vectorized.
    """
    values, weights = _checked(values, target_weights)
    if np.allclose(weights, weights.flat[0]):
        return float(values.mean())
    return importance_estimate(values, 1.0 / weights)[0]


def importance_estimate(values: np.ndarray, weights: np.ndarray) -> Tuple[float, float]:
    """``(Σ w·f / Σ w, sqrt(Σ w²(f − μ)²) / Σ w)`` over aligned float64 arrays.

    The self-normalized mean for importance weights ``w = 1/q̃`` and its
    linearized stderr; ``(nan, inf)`` when the weights' sum is not positive.
    The one implementation of the mean Σ f/q̃ / Σ 1/q̃: the service's job,
    the CLI, :func:`importance_weighted_mean` and the AVG estimates all
    take it from here, so they round alike.
    """
    total = float(np.sum(weights))
    if not total > 0:
        return float("nan"), float("inf")
    mean = float(np.sum(values * weights) / total)
    stderr = float(math.sqrt(np.sum((weights * (values - mean)) ** 2)) / total)
    return mean, stderr


def average_estimate(batch: SampleBatch, values: Sequence[float]) -> float:
    """AVG estimate from a :class:`SampleBatch` and per-sample values.

    Chooses the estimator from the batch's recorded target weights: all-
    equal weights (uniform target) → arithmetic mean; otherwise importance
    weighting.  This mirrors the paper's arithmetic/harmonic rule without
    the caller having to know which sampler produced the batch.
    """
    return average_estimate_arrays(values, batch.target_weights)


def attribute_average_estimate(api, batch: SampleBatch, attribute: str | None) -> float:
    """AVG of a node attribute over a batch, fetched through the API.

    ``attribute=None`` aggregates the visible degree.  Fetching through the
    API charges queries for nodes not already seen — consistent with how a
    real campaign would pay to read profile values of its samples.
    """
    if len(batch) == 0:
        raise EstimationError("empty sample batch")
    if attribute is None:
        values = [float(api.degree(node)) for node in batch.nodes]
    else:
        values = [float(api.attribute(node, attribute)) for node in batch.nodes]
    return average_estimate(batch, values)
