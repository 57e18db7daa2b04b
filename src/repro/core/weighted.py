"""WS-BW: weighted-sampling backward walk (paper Algorithm 2).

Variance-reduction heuristic #2 (§5.3).  The plain backward walk picks a
predecessor uniformly, but the predecessors' ``p_{t-1}`` values vary wildly;
spending the draw on high-probability predecessors cuts variance.  WS-BW
biases the backward step toward predecessors that *historic forward walks*
(all started from the same node) actually visited at the matching step:

    π(x) ∝ n_{x, s-1} + c,     c = max(1, ε·total / ((1-ε)·|C|)),

with ``n_{x,s}`` the number of forward walks that sat at ``x`` after step
``s`` and ``total`` their sum over the candidate set.  This is a
Laplace-smoothed version of the paper's ε-mixture
(``ε/|C| + (1-ε)·n/total``): when history is rich the uniform share tends
to ε exactly as in the paper, and when history is sparse the proposal
degrades gracefully to uniform instead of putting ~ε mass on candidates the
history merely hasn't seen yet.  The distinction matters enormously in
practice — with the paper's raw mixture, picking an unvisited candidate
multiplies the importance weight by up to ``|C|/ε``, and a few such steps
produce a realization distribution whose median sits orders of magnitude
below its mean (measured on BA(1000, 7): relative std ≈ 50 for the raw
mixture vs ≈ 4 for the smoothed proposal).

**Importance correction.**  The paper's pseudocode returns
``|N(u)|/|N(v)| × WS-BW(v, …)`` regardless of π, which is only unbiased for
uniform π.  We return ``T(x, u) / π(x) × WS-BW(x, …)`` — the standard
importance-sampling weight, which reduces to the paper's expression when π
is uniform and keeps the estimator unbiased for *any* valid π (this is what
the paper's own unbiasedness argument, Eq. 22–24, requires).  DESIGN.md
documents both deviations; tests verify unbiasedness by exhaustive
enumeration.

**Two grains.**  :func:`weighted_backward_estimate` is the scalar
reference: one walk, one realization.  :func:`ws_bw_batch` is its batch
twin: K backward walks advance per depth level over one shared
:class:`ForwardHistory`, and the proposal/pick/importance arithmetic is
vectorized.  Each grain writes the proposal once.  The batch reads its
rows from one kind of view, a :class:`~repro.osn.api.SocialNetworkAPI`
and its discovered-graph store, which charges each level in one
accounting operation (§2.4: the first access to a node costs one query,
every repeat is a free cache hit, so batching never changes what a
campaign pays — only how fast it runs); a free graph is wrapped in an
uncharged API.  At K = 1 the batch consumes the RNG stream exactly as
the scalar does and reproduces its realization bit for bit.  Every
engine estimates through the scalar grain: the batch pays only at
widths of a whole round of candidates, which no engine runs yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.arrays import sorted_lookup, sorted_table
from repro.core.crawl import InitialCrawl
from repro.core.unbiased import backward_candidates
from repro.errors import ConfigurationError, GraphError
from repro.osn.api import SocialNetworkAPI
from repro.rng import RngLike, ensure_rng
from repro.walks.kernels import MHRW, SRW, BatchDesign, compile_design
from repro.walks.transitions import NeighborView, Node, TransitionDesign
from repro.walks.walker import WalkResult


@dataclass
class BackwardStats:
    """Mutable counters for backward-walk effort (Figure 5's step count)."""

    steps: int = 0
    walks: int = 0


class ForwardHistory:
    """Visit counts of historic forward walks, indexed by (step, node).

    All recorded walks must share one starting node and walk length — the
    WS-BW weights are only meaningful under that invariant, so it is
    enforced at record time.
    """

    def __init__(self, start: Node, walk_length: int) -> None:
        if walk_length < 0:
            raise ConfigurationError(f"walk_length must be >= 0, got {walk_length}")
        self.start = start
        self.walk_length = walk_length
        self._counts: list[Dict[Node, int]] = [
            {} for _ in range(walk_length + 1)
        ]
        self._arrays: list[Optional[Tuple[np.ndarray, np.ndarray]]] = [
            None
        ] * (walk_length + 1)
        self._dense: list[Optional[np.ndarray]] = [None] * (walk_length + 1)
        self._total_walks = 0

    def record(self, walk: WalkResult) -> None:
        """Add one forward trajectory to the history.

        Raises
        ------
        ConfigurationError
            If the walk's start or length does not match this history.
        """
        if walk.start != self.start:
            raise ConfigurationError(
                f"walk starts at {walk.start}, history expects {self.start}"
            )
        if walk.steps != self.walk_length:
            raise ConfigurationError(
                f"walk has {walk.steps} steps, history expects {self.walk_length}"
            )
        for step, node in enumerate(walk.path):
            counts = self._counts[step]
            counts[node] = counts.get(node, 0) + 1
            dense = self._dense[step]
            if dense is None:
                continue  # built by the next counts_dense, if it can be
            if not 0 <= node < _DENSE_COUNT_LIMIT:
                self._dense[step] = None
                continue
            if node >= dense.size:
                grown = np.zeros(min(max(2 * dense.size, node + 1), _DENSE_COUNT_LIMIT))
                grown[: dense.size] = dense
                self._dense[step] = dense = grown
            dense[node] += 1.0
        self._arrays = [None] * (self.walk_length + 1)
        self._total_walks += 1

    @property
    def total_walks(self) -> int:
        """Number of recorded forward walks (the paper's ``n_hw``)."""
        return self._total_walks

    def count(self, node: Node, step: int) -> int:
        """``n_{node, step}``: walks that occupied *node* after *step* steps."""
        if not 0 <= step <= self.walk_length:
            return 0
        return self._counts[step].get(node, 0)

    def counts_at(self, step: int) -> Dict[Node, int]:
        """The full visit-count map for one step (live view, do not mutate)."""
        if not 0 <= step <= self.walk_length:
            return {}
        return self._counts[step]

    def counts_arrays(self, step: int) -> Tuple[np.ndarray, np.ndarray]:
        """One step's visit counts as sorted ``(node ids, counts)`` arrays.

        The array form of :meth:`counts_at` — rebuilt lazily after each
        :meth:`record`, then reused, so a K-wide batched backward walk
        resolves every candidate's visit count with one binary search
        instead of K dict probes.  Out-of-range steps yield empty arrays.
        """
        if not 0 <= step <= self.walk_length:
            return _EMPTY_IDS, _EMPTY_COUNTS
        if self._arrays[step] is None:
            self._arrays[step] = sorted_table(self._counts[step], np.int64)
        return self._arrays[step]

    def counts_dense(self, step: int) -> Optional[np.ndarray]:
        """One step's visit counts as a dense id-indexed float vector.

        Turns the per-candidate count lookup into a single gather — the
        fastest path for the batched backward walk.  Built once from
        :meth:`counts_arrays`, then kept current by :meth:`record` in
        place (a live view, do not mutate): entry ``i`` is ``n_{i, step}``,
        and entries past the largest visited id are zero.  Returns None
        when the step is out of range, empty, or has visited an id outside
        ``[0, 2^20)`` (callers fall back to :meth:`counts_arrays`).
        """
        if not 0 <= step <= self.walk_length:
            return None
        cached = self._dense[step]
        if cached is None:
            ids, counts = self.counts_arrays(step)
            if ids.size == 0 or ids[0] < 0 or ids[-1] >= _DENSE_COUNT_LIMIT:
                return None
            cached = np.zeros(int(ids[-1]) + 1, dtype=np.float64)
            cached[ids] = counts
            self._dense[step] = cached
        return cached


_EMPTY_IDS = np.zeros(0, dtype=np.int64)
_EMPTY_COUNTS = np.zeros(0, dtype=np.int64)

#: Ceiling for dense per-step count tables (8 MB of float64 per step).
_DENSE_COUNT_LIMIT = 1 << 20


def smoothing_constant(total_visits: int, k: int, epsilon: float) -> float:
    """The Laplace constant ``c`` for the smoothed WS-BW proposal.

    Chosen so the proposal's uniform share approaches ε as history grows
    (``c·k / (total + c·k) → ε``) while never dropping below 1 — a floor
    that keeps sparse-history proposals close to uniform.
    """
    if total_visits <= 0:
        return 1.0
    return max(1.0, epsilon * total_visits / ((1.0 - epsilon) * k))


def weighted_backward_estimate(
    view: NeighborView,
    design: TransitionDesign,
    node: Node,
    start: Node,
    t: int,
    history: Optional[ForwardHistory],
    epsilon: float = 0.1,
    seed: RngLike = None,
    crawl: Optional[InitialCrawl] = None,
    stats: Optional[BackwardStats] = None,
) -> float:
    """One realization of the WS-BW estimator of ``p_t(node)``.

    With ``history=None`` this degrades gracefully to the uniform backward
    walk (identical in law to :func:`repro.core.unbiased.unbiased_estimate`).
    *stats*, when given, accumulates the number of backward transitions
    taken — the effort measure of the paper's Figure 5.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not 0.0 < epsilon <= 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1], got {epsilon}")
    rng = ensure_rng(seed)
    if stats is not None:
        stats.walks += 1
    weight = 1.0
    current = node
    depth = t
    while True:
        if crawl is not None and crawl.covers_step(depth):
            return weight * crawl.probability(current, depth)
        if depth == 0:
            return weight if current == start else 0.0
        candidates = backward_candidates(view, design, current)
        k = len(candidates)
        # Pick a predecessor index and its probability π(x).  A history that
        # shares no node with the candidates means zero visits (every count
        # is at least 1): draw uniformly without building the visit list.
        # This loop dominates WALK-ESTIMATE's wall-clock time.
        visit_counts = history.counts_at(depth - 1) if history is not None else None
        if not visit_counts or visit_counts.keys().isdisjoint(candidates):
            index = int(rng.integers(0, k))
            pi_x = 1.0 / k
        else:
            visits = [visit_counts.get(c, 0) for c in candidates]
            total_visits = sum(visits)
            c = smoothing_constant(total_visits, k, epsilon)
            normalizer = total_visits + c * k
            draw = rng.random() * normalizer
            acc = 0.0
            index = k - 1
            for i, v in enumerate(visits):
                acc += v + c
                if draw < acc:
                    index = i
                    break
            pi_x = (visits[index] + c) / normalizer
        predecessor = candidates[index]
        if stats is not None:
            stats.steps += 1
        transition = design.transition_probability(view, predecessor, current)
        # Importance weight: T(x, u) / π(x) — see module docstring.
        weight *= transition / pi_x
        if weight == 0.0:
            return 0.0
        current = predecessor
        depth -= 1


# ----------------------------------------------------------------------
# Vectorized batch WS-BW (over an API row store)
# ----------------------------------------------------------------------
def smoothing_constants(
    total_visits: np.ndarray, k: np.ndarray, epsilon: float
) -> np.ndarray:
    """Vectorized :func:`smoothing_constant` for aligned total/size arrays."""
    total_visits = np.asarray(total_visits, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    out = np.ones(total_visits.shape, dtype=np.float64)
    positive = total_visits > 0
    out[positive] = np.maximum(
        1.0, epsilon * total_visits[positive] / ((1.0 - epsilon) * k[positive])
    )
    return out


def _require_rows_alive(nodes: np.ndarray, degrees: np.ndarray) -> None:
    if np.any(degrees == 0):
        stuck = int(nodes[degrees == 0][0])
        raise GraphError(f"random walk stuck: node {stuck} has no neighbors")


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Left-to-right per-segment sums (np.cumsum adds sequentially, so the
    first segment — the only one at K = 1 — is bit-identical to a scalar
    accumulator; reduceat's pairwise order would not be)."""
    bounds = np.cumsum(lengths)
    cumulative = np.cumsum(values)
    return cumulative[bounds - 1] - np.concatenate(
        ([0.0], cumulative[bounds[:-1] - 1])
    )


def _transition_batch(
    view,
    design: BatchDesign,
    predecessors: np.ndarray,
    currents: np.ndarray,
    pred_degrees: np.ndarray,
    current_degrees: np.ndarray,
    symmetric: bool,
) -> np.ndarray:
    """``T(predecessor, current)`` per walk, scalar-identical in value and
    query footprint.

    Membership and rows come straight from the view's
    :class:`~repro.graphs.discovered.DiscoveredGraph` store (all
    predecessors/currents are fetched by the time this runs), and the MHRW
    self-loop's neighbor degrees go through ``degrees_batch`` — charging
    exactly the nodes the scalar full-row computation charges.  Each lazy
    layer, innermost first, scales the inner law by 1 − λ and adds λ on
    the diagonal.

    *symmetric* asserts the view's visible edge relation is symmetric
    (unrestricted API): every non-self predecessor was drawn from the
    current node's row, so the reverse membership check — what the scalar
    ``destination not in neighbors`` scan establishes — is a tautology
    and skipped.  Restricted views must pass False: types 2/3 make
    visibility asymmetric, and a failed reverse check is exactly what
    zeroes the realization there.
    """
    discovered = view.discovered
    _require_rows_alive(predecessors, pred_degrees)
    out = np.zeros(predecessors.size, dtype=np.float64)
    loops = predecessors == currents
    if design.code == SRW:
        if symmetric:
            member = ~loops
        else:
            member = discovered.rows_contain(predecessors, currents)
        out[member] = 1.0 / pred_degrees[member]
    elif design.code == MHRW:
        edges = np.flatnonzero(~loops)
        if edges.size:
            if symmetric:
                hit = edges
            else:
                member = discovered.rows_contain(
                    predecessors[edges], currents[edges]
                )
                hit = edges[member]
            dp = pred_degrees[hit].astype(np.float64)
            dc = current_degrees[hit].astype(np.float64)
            out[hit] = (1.0 / dp) * np.minimum(1.0, dp / dc)
        loop_idx = np.flatnonzero(loops)
        if loop_idx.size:
            flat, lengths = discovered.rows_flat(currents[loop_idx])
            neighbor_degrees = view.degrees_batch(flat).astype(np.float64)
            du = np.repeat(lengths, lengths).astype(np.float64)
            per_edge = (1.0 / du) * np.minimum(1.0, du / neighbor_degrees)
            self_mass = 1.0 - _segment_sums(per_edge, lengths)
            out[loop_idx] = np.where(self_mass > 1e-15, self_mass, 0.0)
    else:
        over = pred_degrees > design.max_degree
        if np.any(over):
            bad = int(np.flatnonzero(over)[0])
            raise ConfigurationError(
                f"node {int(predecessors[bad])} has degree "
                f"{int(pred_degrees[bad])} > declared "
                f"max_degree {design.max_degree}"
            )
        out[loops] = 1.0 - pred_degrees[loops] / design.max_degree
        edges = np.flatnonzero(~loops)
        if edges.size:
            if symmetric:
                out[edges] = 1.0 / design.max_degree
            else:
                member = discovered.rows_contain(
                    predecessors[edges], currents[edges]
                )
                out[edges[member]] = 1.0 / design.max_degree
    for laziness in reversed(design.laziness):
        out = (1.0 - laziness) * out
        out[loops] = laziness + out[loops]
    return out


def ws_bw_batch(
    view: NeighborView,
    design: TransitionDesign,
    nodes,
    start: Node,
    t: int,
    history: Optional[ForwardHistory] = None,
    epsilon: float = 0.1,
    seed: RngLike = None,
    crawl: Optional[InitialCrawl] = None,
    stats: Optional[BackwardStats] = None,
) -> np.ndarray:
    """K simultaneous WS-BW realizations — one per entry of *nodes*.

    The batched twin of :func:`weighted_backward_estimate` for the
    *charged* regime: all K backward walks advance together, drawing from
    one shared :class:`ForwardHistory` through its sorted count arrays,
    with the ε-smoothed proposal, the inverse-CDF pick, and the importance
    weights computed for the whole batch per depth level.  Neighbor rows
    come through the view's batch interface, so a
    :class:`~repro.osn.api.SocialNetworkAPI` settles each level's charges
    in one accounting operation — and because every lookup lands in the
    API's discovered graph, the batch charges exactly the unique nodes the
    equivalent scalar walks would (§2.4: repeat lookups are free).

    **Parity.**  At ``K = 1`` this consumes the :mod:`repro.rng` stream
    *exactly* as the scalar estimator does — the same conditional draws
    (one bounded integer when the candidate history is empty, one uniform
    otherwise), the same arithmetic in the same order — so with the same
    seed it reproduces the scalar realization bit for bit, at identical
    query cost.  For ``K > 1`` the walks interleave their draws level by
    level (each walk's law is unchanged; the joint stream differs from K
    sequential scalar calls, exactly as in the forward batch engine).

    With ``history=None`` this degrades to the uniform backward walk;
    *crawl*, when given, terminates every walk the moment its remaining
    depth is covered by the exact ``p_s`` tables, via one array lookup.
    A free in-memory view (a plain :class:`~repro.graphs.Graph` or
    :class:`~repro.graphs.csr.CSRGraph`) is wrapped in an uncharged
    :class:`~repro.osn.api.SocialNetworkAPI` (no budget, restriction or
    rate limiter), which reads the same rows by id.  Each level gathers
    every live walk's whole candidate row and its visit counts, so the
    plain table walk of :func:`~repro.core.unbiased.unbiased_estimate_batch`,
    which reads one slot per walk, stays the free graph's fast path.

    Type-1 (fresh-subset) restricted APIs are rejected: their responses
    change per invocation, so no cached batch walk can reproduce the
    scalar estimator's query pattern — use
    :func:`weighted_backward_estimate` there.  So is, before any query is
    charged, a design :func:`~repro.walks.kernels.compile_design` does
    not match by exact type: ``BidirectionalWalk``, or a subclass of a
    batch design, whose law this pricing would take for its parent's.

    Returns an array of shape ``(len(nodes),)`` of non-negative
    realizations, each with expectation ``p_t(node)``.

    .. note:: No engine calls this today.  ``EngineConfig(backend="charged")``
       runs each candidate's repetitions through the scalar
       :func:`weighted_backward_estimate`: on a 2-core host, one batch of
       a candidate's 6 or 12 repetitions took 1.5–3.3× as long, and paid
       only from about 48.  The batch is for rounds of many candidates.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not 0.0 < epsilon <= 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1], got {epsilon}")
    current = np.array(nodes, dtype=np.int64)
    if current.ndim != 1:
        raise ConfigurationError(
            f"nodes must be 1-d, got shape {tuple(current.shape)}"
        )
    # Classify before the first fetch: a refused design is charged nothing.
    compiled = compile_design(design)
    if compiled is None:
        raise ConfigurationError(
            f"design {design.name!r} has no batched transition probability; "
            "use the scalar weighted_backward_estimate"
        )
    rng = ensure_rng(seed)
    if stats is not None:
        stats.walks += int(current.size)
    if getattr(view, "discovered", None) is None:
        # A free graph walks through an uncharged API: the same row store
        # and lookups, with no budget, restriction or rate limiter.
        view = SocialNetworkAPI(view)
    elif not view.cacheable:
        raise ConfigurationError(
            "type-1 (fresh-subset) restrictions have no batched WS-BW — "
            "each call must re-invoke the API; use the scalar "
            "weighted_backward_estimate"
        )
    discovered = view.discovered
    symmetric = view.restriction is None
    weights = np.ones(current.size, dtype=np.float64)
    results = np.zeros(current.size, dtype=np.float64)
    active = np.ones(current.size, dtype=bool)
    self_loop = 1 if compiled.may_self_loop else 0
    for depth in range(t, -1, -1):
        alive = np.flatnonzero(active)
        if alive.size == 0:
            break
        if crawl is not None and crawl.covers_step(depth):
            results[alive] = weights[alive] * crawl.probabilities_batch(
                current[alive], depth
            )
            break
        if depth == 0:
            home = alive[current[alive] == start]
            results[home] = weights[home]
            break
        cur = current[alive]
        # Fetching charges the whole level in one accounting operation;
        # the rows come back as one flat gather from the row pool.
        lengths = view.degrees_batch(cur)
        sizes = lengths + self_loop
        if np.any(sizes == 0):
            stuck = int(cur[sizes == 0][0])
            raise GraphError(f"backward walk stuck: node {stuck} has no neighbors")
        offsets = np.zeros(alive.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        flat_rows, _ = discovered.rows_flat(cur)
        if self_loop:
            flat = np.empty(int(offsets[-1]), dtype=np.int64)
            destination = np.arange(flat_rows.size) + np.repeat(
                np.arange(alive.size), lengths
            )
            flat[destination] = flat_rows
            flat[offsets[1:] - 1] = cur
        else:
            flat = flat_rows
        # Candidate visit counts from the shared history (one gather).
        visits = np.zeros(flat.size, dtype=np.float64)
        if history is not None and history.total_walks > 0:
            dense = history.counts_dense(depth - 1)
            if dense is not None:
                inside = (flat >= 0) & (flat < dense.size)
                visits[inside] = dense[flat[inside]]
            else:
                ids, counts = history.counts_arrays(depth - 1)
                pos, hit = sorted_lookup(ids, flat)
                visits[hit] = counts[pos[hit]]
        totals = np.add.reduceat(visits, offsets[:-1])
        uniform = totals == 0.0
        picks = np.empty(alive.size, dtype=np.int64)
        proposal = np.empty(alive.size, dtype=np.float64)
        if np.any(uniform):
            picks[uniform] = rng.integers(0, sizes[uniform])
            proposal[uniform] = 1.0 / sizes[uniform]
        weighted = np.flatnonzero(~uniform)
        if weighted.size:
            k = sizes[weighted].astype(np.float64)
            total = totals[weighted]
            c = smoothing_constants(total, k, epsilon)
            normalizer = total + c * k
            draws = rng.random(weighted.size) * normalizer
            # Per-segment inverse-CDF over visits + c.  The cumulative sums
            # run over the weighted walks' candidates only, so at K = 1 the
            # running sum is bit-identical to the scalar accumulator.
            sub_mask = np.repeat(~uniform, sizes)
            sub_vpc = visits[sub_mask] + np.repeat(c, sizes[weighted])
            cumulative = np.cumsum(sub_vpc)
            ends = np.cumsum(sizes[weighted])
            starts = ends - sizes[weighted]
            base = np.where(starts > 0, cumulative[starts - 1], 0.0)
            found = np.searchsorted(cumulative, base + draws, side="right")
            found = np.minimum(found, ends - 1)
            picks[weighted] = found - starts
            proposal[weighted] = sub_vpc[found] / normalizer
        predecessors = flat[offsets[:-1] + picks]
        if stats is not None:
            stats.steps += int(alive.size)
        # Fetching the predecessors charges exactly the new unique nodes
        # a scalar walk would; self entries are cache hits.
        pred_degrees = view.degrees_batch(predecessors)
        transitions = _transition_batch(
            view, compiled, predecessors, cur, pred_degrees, lengths, symmetric
        )
        weights[alive] *= transitions / proposal
        died = alive[weights[alive] == 0.0]
        active[died] = False
        current[alive] = predecessors
    return results

