"""One free-graph WALK-ESTIMATE round path: plan, run on an executor, merge.

The free-graph front ends
(:func:`~repro.core.walk_estimate.walk_estimate_batch`,
:func:`~repro.core.long_run_we.long_run_walk_estimate_batch`) take either
a graph or an executor.  :func:`run_round` turns the round into a shard
plan (:func:`~repro.walks.parallel.shard_slices` and
:func:`~repro.walks.parallel.shard_rngs`), hands one task per shard to
the executor's ``map_shards``, and merges the per-shard
:class:`~repro.core.walk_estimate.BatchWalkEstimateResult` records in
walk order through :func:`merge_batch_results`.  A graph runs inline as
one shard (:class:`~repro.walks.parallel.InlineExecutor`); a
:class:`~repro.walks.parallel.ShardedWalkEngine` runs one shard per
worker.  Each shard runs the whole round — forward walks, backward
estimates, calibration, and acceptance–rejection — over the executor's
graph.

Each shard calibrates its own scale-factor pool (``calibration_walks``
forward walks per shard, priced into ``forward_steps``): the pool is the
one state the rejection step shares across walks, and shipping it between
processes would serialize the very phase the fan-out exists to
parallelize.  A per-shard pool drawn from the same distribution leaves
every accepted candidate target-distributed, so the merged
``result.nodes`` / ``result.weights`` feed
:func:`repro.estimators.aggregates.average_estimate_arrays` exactly as a
one-shard round's do.

A one-shard round consumes the caller's stream directly, so it equals
the single-process computation result for result.  More shards
re-partition the randomness deterministically per ``(seed, n_workers)``,
whichever executor runs them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, List

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import RngLike
from repro.walks.parallel import InlineExecutor, shard_rngs, shard_slices

if TYPE_CHECKING:
    from repro.core.walk_estimate import BatchWalkEstimateResult


def merge_batch_results(
    parts: List[BatchWalkEstimateResult],
) -> BatchWalkEstimateResult:
    """Concatenate per-shard rounds into one walk-ordered result.

    Array fields concatenate in shard order (shards are contiguous walk
    ranges, so the merged arrays are aligned with the original walk
    indices); step counters add.
    """
    if not parts:
        raise ConfigurationError("nothing to merge: no shard results")
    if len(parts) == 1:
        return parts[0]
    # replace() spares this module a runtime import of the front ends,
    # which import it.
    return replace(
        parts[0],
        candidates=np.concatenate([p.candidates for p in parts]),
        estimates=np.concatenate([p.estimates for p in parts]),
        target_weights=np.concatenate([p.target_weights for p in parts]),
        acceptance=np.concatenate([p.acceptance for p in parts]),
        accepted=np.concatenate([p.accepted for p in parts]),
        forward_steps=sum(p.forward_steps for p in parts),
        backward_steps=sum(p.backward_steps for p in parts),
    )


def run_round(
    graph,
    k: int,
    seed: RngLike,
    round_fn: Callable,
    shard_args: Callable[[slice], tuple],
) -> BatchWalkEstimateResult:
    """Run ``round_fn`` once per shard of *k* walks and merge the results.

    *graph* is a graph, run inline as one shard, or an executor (anything
    with ``n_workers`` and ``map_shards``).  ``shard_args(s)`` gives the
    arguments of walk slice *s*; the shard's generator follows them.
    *round_fn* must be module-level, because a pool pickles it by name.
    """
    executor = graph if hasattr(graph, "map_shards") else InlineExecutor(graph)
    slices = shard_slices(k, executor.n_workers)
    rngs = shard_rngs(len(slices), seed)
    tasks = [shard_args(s) + (rng,) for s, rng in zip(slices, rngs)]
    return merge_batch_results(executor.map_shards(round_fn, tasks))
