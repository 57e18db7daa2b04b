"""ESTIMATE: orchestrated probability estimation (paper Algorithm 3).

Combines the backward walk with both variance-reduction heuristics and adds
the budget-allocation layer: each requested ``p_t(u)`` starts with a base
number of backward-walk repetitions, then extra repetitions are granted to
the estimates with the highest variance of the mean ("Use remaining budget
to reduce variance ... proportional to their variance", Algorithm 3 line 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.config import WalkEstimateConfig
from repro.core.crawl import InitialCrawl
from repro.core.weighted import (
    BackwardStats,
    ForwardHistory,
    weighted_backward_estimate,
    ws_bw_batch,
)
from repro.errors import EstimationError
from repro.rng import RngLike, ensure_rng
from repro.walks.batch import has_batch_kernel
from repro.walks.transitions import NeighborView, Node, TransitionDesign


@dataclass
class ProbabilityEstimate:
    """Running aggregate of backward-walk realizations for one node.

    Keeps O(1) running moments — estimates are queried (mean/variance) far
    more often than they are updated, and the variance-proportional refine
    loop reads every pending estimate's variance on each allocation.
    """

    node: Node
    count: int = 0
    _sum: float = 0.0
    _sum_of_squares: float = 0.0

    def add(self, value: float) -> None:
        """Record one backward-walk realization."""
        self.count += 1
        self._sum += value
        self._sum_of_squares += value * value

    @property
    def mean(self) -> float:
        """Current estimate ``p̂_t(node)`` (unbiased)."""
        if self.count == 0:
            raise EstimationError(f"no realizations for node {self.node}")
        return self._sum / self.count

    @property
    def variance_of_mean(self) -> float:
        """Estimated variance of the mean (0 with fewer than 2 realizations)."""
        n = self.count
        if n < 2:
            return 0.0
        mean = self._sum / n
        sample_variance = max(0.0, (self._sum_of_squares - n * mean * mean) / (n - 1))
        return sample_variance / n

    @property
    def relative_std_error(self) -> float:
        """Std error of the mean relative to the mean (∞ when mean is 0)."""
        m = self.mean
        if m <= 0.0:
            return float("inf")
        return float(np.sqrt(self.variance_of_mean)) / m


class ProbabilityEstimator:
    """Produces ``p̂_t(u)`` estimates for the WALK-ESTIMATE sampler.

    Parameters
    ----------
    view:
        Neighbor view (charged API in production, Graph in tests).
    design:
        Transit design of the forward walk.
    start / walk_length:
        The forward walk's start node and length ``t``.
    config:
        Governs repetitions, ε, and which heuristics are active.
    history:
        Forward-walk visit history; required only when
        ``config.weighted_sampling`` is on (pass the one the sampler
        maintains).
    crawl:
        Exact-probability table from the initial crawl, or None.
    batch_backward:
        Route each estimate's top-up repetitions through
        :func:`~repro.core.weighted.ws_bw_batch`: they advance together,
        and each depth level's queries settle in one accounting
        operation.  The walks interleave their draws level by level, so
        the RNG stream differs from the scalar loop's (it has its own
        golden fixtures rather than scalar parity); what a campaign
        *pays* is unchanged, since every lookup lands in the API's
        discovered-graph cache exactly as the scalar walks' would.
        Designs the batch engines do not run, and type-1 restricted
        views, stay on the scalar loop.  The designs are those
        :func:`~repro.walks.kernels.compile_design` matches by exact
        type, so ``BidirectionalWalk`` and any subclass of a batch
        design run the scalar loop, which prices the subclass's own law.
    """

    def __init__(
        self,
        view: NeighborView,
        design: TransitionDesign,
        start: Node,
        walk_length: int,
        config: WalkEstimateConfig,
        history: Optional[ForwardHistory] = None,
        crawl: Optional[InitialCrawl] = None,
        seed: RngLike = None,
        batch_backward: bool = False,
    ) -> None:
        self.view = view
        self.design = design
        self.start = start
        self.walk_length = walk_length
        self.config = config
        self.history = history if config.weighted_sampling else None
        self.crawl = crawl
        self.batch_backward = batch_backward
        self._rng = ensure_rng(seed)
        self._estimates: Dict[Node, ProbabilityEstimate] = {}
        #: Backward-walk effort accumulated across all estimates.
        self.stats = BackwardStats()

    def _one_realization(self, node: Node) -> float:
        return weighted_backward_estimate(
            self.view,
            self.design,
            node,
            self.start,
            self.walk_length,
            history=self.history,
            epsilon=self.config.epsilon,
            seed=self._rng,
            crawl=self.crawl,
            stats=self.stats,
        )

    def _use_batch_backward(self) -> bool:
        """Whether the top-up loop may route through :func:`ws_bw_batch`.

        The flag is an opt-in; designs the batch engines do not run
        and type-1 (fresh-subset) restricted views stay on the scalar
        loop — both are outside the batched estimator's contract.
        """
        return (
            self.batch_backward
            and has_batch_kernel(self.design)
            and getattr(self.view, "cacheable", True)
        )

    def _batch_realizations(self, node: Node, count: int) -> np.ndarray:
        """*count* WS-BW realizations of ``p_t(node)`` in one batched walk.

        K = *count* repetitions of the same candidate advance level by
        level together; each level's queries settle in one accounting
        operation against the view's discovered-graph cache, charging
        exactly the unique nodes the scalar loop would.  The draws
        interleave across repetitions, so the stream differs from the
        scalar loop's — the ``batch_backward`` golden fixtures pin this
        stream.
        """
        return ws_bw_batch(
            self.view,
            self.design,
            np.full(count, node, dtype=np.int64),
            self.start,
            self.walk_length,
            history=self.history,
            epsilon=self.config.epsilon,
            seed=self._rng,
            crawl=self.crawl,
            stats=self.stats,
        )

    def estimate(
        self,
        node: Node,
        repetitions: Optional[int] = None,
        refine: bool = True,
    ) -> ProbabilityEstimate:
        """Estimate ``p_t(node)``, topping up to the target repetitions.

        Nodes estimated before keep their accumulated realizations, so
        re-estimating a repeatedly-sampled node sharpens it for free.
        *repetitions* overrides the configured base count (the calibration
        phase passes a lighter budget — its estimates only seed the scale
        factor); *refine* toggles the variance-proportional extra walks.
        """
        record = self._estimates.get(node)
        if record is None:
            record = ProbabilityEstimate(node=node)
            self._estimates[node] = record
        target = (
            repetitions if repetitions is not None else self.config.backward_repetitions
        )
        needed = max(0, target - record.count)
        if needed and self._use_batch_backward():
            for value in self._batch_realizations(node, needed):
                record.add(float(value))
        else:
            for _ in range(needed):
                record.add(self._one_realization(node))
        if refine and self.config.refine_repetitions > 0:
            self.refine(self.config.refine_repetitions)
        return record

    def refine(self, budget: int) -> None:
        """Spend *budget* extra backward walks where variance is highest.

        Allocation is proportional-to-variance via sampling (Algorithm 3):
        each extra walk picks a pending node with probability proportional
        to its current variance-of-mean, so the noisiest estimates sharpen
        first while every node keeps a chance.
        """
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        pending = list(self._estimates.values())
        if not pending:
            return
        for _ in range(budget):
            variances = [e.variance_of_mean for e in pending]
            total = float(sum(variances))
            draw = self._rng.random()
            if total <= 0.0:
                # All estimates currently look exact; spread uniformly.
                index = int(draw * len(pending))
            else:
                # Inverse-CDF draw; cheaper than rng.choice(p=...) here.
                acc = 0.0
                index = len(pending) - 1
                for i, variance in enumerate(variances):
                    acc += variance / total
                    if draw < acc:
                        index = i
                        break
            record = pending[index]
            record.add(self._one_realization(record.node))

    def current(self, node: Node) -> Optional[ProbabilityEstimate]:
        """The accumulated estimate for *node*, if any."""
        return self._estimates.get(node)

    @property
    def estimated_nodes(self) -> tuple[Node, ...]:
        """All nodes with at least one realization."""
        return tuple(sorted(self._estimates))
