"""Non-backtracking random walk (related work [24], Lee/Xu/Eun 2012).

A non-backtracking random walk (NBRW) moves uniformly among the current
node's neighbors *excluding the one it just came from* (unless it is stuck
at a degree-1 node).  The chain lives on directed edges; its stationary
distribution there is uniform, so the *node* marginal remains proportional
to degree — identical to SRW's target — while mixing strictly faster on
most graphs (backtracking wastes steps).

The walk is stateful (it remembers its previous node), so it does not fit
the memoryless :class:`~repro.walks.transitions.TransitionDesign` protocol;
it ships as a dedicated walker plus a burn-in sampler compatible with the
experiment harness.  WALK-ESTIMATE does not wrap NBRW (its backward
estimator assumes a first-order chain over nodes), which is precisely the
kind of input-design boundary §1.2's "any random walk sampler" glosses
over — worth having in the repo as a counterexample.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.osn.api import SocialNetworkAPI
from repro.rng import RngLike, ensure_rng
from repro.walks.samplers import BurnInSampler
from repro.walks.transitions import NeighborView, Node, SimpleRandomWalk
from repro.walks.walker import WalkResult


def nbrw_step(
    view: NeighborView,
    current: Node,
    previous: Node | None,
    rng: np.random.Generator,
) -> Node:
    """One NBRW transition: uniform over neighbors minus *previous*.

    Degree-1 nodes are allowed to backtrack (the only legal move), which is
    the standard convention keeping the chain irreducible.
    """
    neighbors = view.neighbors(current)
    if not neighbors:
        raise GraphError(f"random walk stuck: node {current} has no neighbors")
    if previous is not None and len(neighbors) > 1:
        choices = tuple(n for n in neighbors if n != previous)
    else:
        choices = neighbors
    return choices[int(rng.integers(0, len(choices)))]


def run_nbrw_walk(
    view: NeighborView, start: Node, steps: int, seed: RngLike = None
) -> WalkResult:
    """Run a *steps*-step non-backtracking walk from *start*."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    rng = ensure_rng(seed)
    path = [start]
    previous: Node | None = None
    current = start
    for _ in range(steps):
        nxt = nbrw_step(view, current, previous, rng)
        previous, current = current, nxt
        path.append(current)
    return WalkResult(path=tuple(path))


class NonBacktrackingSampler(BurnInSampler):
    """Geweke-monitored burn-in sampler over the NBRW.

    Target weights are node degrees (NBRW's node marginal is
    degree-proportional, as SRW's is), so batches feed the same
    importance-weighted estimators as SRW's.  The parameters are
    :class:`~repro.walks.samplers.BurnInSampler`'s, less the design; only
    the step differs.
    """

    def __init__(
        self,
        geweke_threshold: float = 0.1,
        check_every: int = 10,
        min_steps: int = 30,
        max_steps: int = 5000,
    ) -> None:
        super().__init__(
            SimpleRandomWalk(), geweke_threshold, check_every, min_steps, max_steps
        )
        self.name = "nbrw"

    def _step(
        self,
        api: SocialNetworkAPI,
        current: Node,
        previous: Node | None,
        rng: np.random.Generator,
    ) -> Node:
        return nbrw_step(api, current, previous, rng)
