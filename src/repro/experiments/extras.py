"""Ablation experiments beyond the paper's figures.

These probe the design choices DESIGN.md calls out:

* ``backward_variance`` — how much each variance-reduction heuristic
  actually buys at a fixed backward-walk budget (§5's motivation);
* ``restrictions`` — the §6.3.1 claim that neighbor-access restrictions
  have limited impact on the estimates;
* ``long_run`` — the §6.1 effective-sample-size argument for many short
  runs over one long run;
* ``scale_factor`` — sensitivity of WE's bias/efficiency trade-off to the
  §6.3.2 bootstrap percentile.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import WalkEstimateConfig
from repro.core.crawl import InitialCrawl
from repro.core.unbiased import unbiased_estimate
from repro.core.walk_estimate import we_full_sampler
from repro.core.weighted import ForwardHistory, weighted_backward_estimate
from repro.datasets.registry import build_dataset
from repro.errors import GraphError
from repro.estimators.aggregates import average_estimate
from repro.estimators.metrics import (
    empirical_distribution,
    kl_bias,
    l_infinity_bias,
    relative_error,
)
from repro.experiments.runner import (
    ExperimentResult,
    SamplerSpec,
    TableData,
    collect_samples,
)
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.properties import mean_shortest_path_lengths
from repro.markov.matrix import TransitionMatrix
from repro.osn.api import SocialNetworkAPI
from repro.osn.restrictions import (
    FixedRandomKRestriction,
    RandomKRestriction,
    TruncatedKRestriction,
    mark_recapture_degree,
)
from repro.rng import RngLike, ensure_rng, spawn
from repro.walks.autocorr import effective_sample_size
from repro.walks.samplers import BurnInSampler, LongRunSampler
from repro.walks.transitions import BidirectionalWalk, SimpleRandomWalk
from repro.walks.walker import run_walk


def backward_variance(scale: str = "quick", seed: RngLike = 51) -> ExperimentResult:
    """Estimator spread of the §5 variants at equal backward-walk budgets.

    Workload: BA(200, 4), SRW, t = 8; each variant produces 400 one-shot
    realizations of ``p_t(u)`` for a fixed far node; the table reports the
    exact value, each variant's mean (unbiasedness check), and the standard
    deviation (the quantity the heuristics attack).
    """
    rng = ensure_rng(seed)
    graph_rng, walk_rng, est_rng = spawn(rng, 3)
    graph = barabasi_albert_graph(200, 4, seed=graph_rng).relabeled()
    design = SimpleRandomWalk()
    start, t = 0, 8
    matrix = TransitionMatrix(graph, design)
    p_t = matrix.step_distribution(start, t)
    # A mid-probability node: far enough to be interesting, reachable
    # enough that the exact value is meaningfully non-zero.
    node = int(np.argsort(p_t)[len(p_t) // 2])
    exact = float(p_t[node])

    api = SocialNetworkAPI(graph)
    crawl = InitialCrawl(api, design, start, hops=2)
    history = ForwardHistory(start, t)
    for _ in range(50):
        history.record(run_walk(graph, design, start, t, seed=walk_rng))

    realizations = 2000 if scale == "full" else 400
    variants = {
        "UNBIASED-ESTIMATE": lambda: unbiased_estimate(
            graph, design, node, start, t, seed=est_rng
        ),
        "WS-BW (weighted)": lambda: weighted_backward_estimate(
            graph, design, node, start, t, history=history, seed=est_rng
        ),
        "crawl-assisted": lambda: unbiased_estimate(
            graph, design, node, start, t, seed=est_rng, crawl=crawl
        ),
        "crawl + weighted": lambda: weighted_backward_estimate(
            graph, design, node, start, t, history=history, seed=est_rng, crawl=crawl
        ),
    }
    table = TableData(columns=["estimator", "mean", "std", "exact_p"])
    for label, draw in variants.items():
        values = np.array([draw() for _ in range(realizations)])
        table.rows.append([label, float(values.mean()), float(values.std()), exact])
    result = ExperimentResult(
        experiment_id="backward_variance",
        title="Backward-estimator variance under the §5 heuristics",
        x_label="-",
        y_label="-",
        notes=[
            f"BA(200,4), SRW, t={t}, node={node}, start={start}, "
            f"{realizations} realizations each"
        ],
    )
    result.tables["estimator spread"] = table
    return result


class _MarkRecaptureSRW(SimpleRandomWalk):
    """SRW whose importance weights use mark-recapture degree estimates.

    Under the type-1 restriction, each ``neighbors`` call is a fresh random
    k-subset, so stepping uniformly on the visible list is a uniform step
    over the *true* neighbor set — the walk's stationary law is true-degree
    proportional.  The visible degree (k) is therefore the wrong importance
    weight; the paper's fix is to estimate the true degree by repeated
    calls (mark-and-recapture), which is what this design's target weight
    does.
    """

    name = "srw-markrecapture"

    def __init__(self, rounds: int = 4) -> None:
        self.rounds = rounds

    def target_weight(self, view, node) -> float:
        return mark_recapture_degree(view, node, rounds=self.rounds)


def restrictions(scale: str = "quick", seed: RngLike = 52) -> ExperimentResult:
    """Average-degree error under the §6.3.1 neighbor-access restrictions.

    Each restriction is paired with the remediation the paper prescribes:
    type 1 (fresh random-k) keeps plain SRW movement but weights samples by
    mark-recapture degree estimates; types 2/3 (call-stable subsets) walk
    only edges passing the bidirectional check.  A "naive" row per type
    shows what happens without the remediation — the gap is the point.
    """
    rng = ensure_rng(seed)
    data_rng, run_rng = spawn(rng, 2)
    dataset = build_dataset("ba_synthetic", seed=data_rng, nodes=800, m=6)
    truth = dataset.aggregates["degree"]
    samples = 150 if scale == "full" else 40
    repetitions = 10 if scale == "full" else 3
    k = 8
    cases = {
        "unrestricted / SRW": (lambda: None, SimpleRandomWalk()),
        f"type1 random-{k} / naive SRW": (
            lambda: RandomKRestriction(k, seed=run_rng),
            SimpleRandomWalk(),
        ),
        f"type1 random-{k} / mark-recapture": (
            lambda: RandomKRestriction(k, seed=run_rng),
            _MarkRecaptureSRW(),
        ),
        f"type2 fixed-{k} / naive SRW": (
            lambda: FixedRandomKRestriction(k, seed=run_rng),
            SimpleRandomWalk(),
        ),
        f"type2 fixed-{k} / bidirectional": (
            lambda: FixedRandomKRestriction(k, seed=run_rng),
            BidirectionalWalk(),
        ),
        f"type3 first-{k} / naive SRW": (
            lambda: TruncatedKRestriction(k),
            SimpleRandomWalk(),
        ),
        f"type3 first-{k} / bidirectional": (
            lambda: TruncatedKRestriction(k),
            BidirectionalWalk(),
        ),
    }
    table = TableData(
        columns=["restriction / walk", "mean_rel_error", "mean_query_cost"]
    )
    starts = [int(ensure_rng(run_rng).integers(0, 800)) for _ in range(repetitions)]
    short = []
    for label, (make_restriction, design) in cases.items():
        errors, costs = [], []
        for rep in range(repetitions):
            api = SocialNetworkAPI(dataset.graph, restriction=make_restriction())
            sampler = BurnInSampler(design, min_steps=30, max_steps=1500)
            try:
                batch = sampler.sample(api, starts[rep], count=samples, seed=run_rng)
            except GraphError:
                # A start the walk cannot leave (under types 2/3, a node
                # with no mutual edge) is skipped like an empty batch.
                if _can_leave(api, design, starts[rep]):
                    raise
                continue
            if len(batch) == 0:
                continue
            values = [
                dataset.graph.get_attribute("degree", node) for node in batch.nodes
            ]
            estimate = average_estimate(batch, values)
            errors.append(relative_error(estimate, truth))
            costs.append(api.query_cost)
        if len(errors) < repetitions:
            short.append(f"{label}: {len(errors)} of {repetitions} repetitions ran")
        table.rows.append([label, float(np.mean(errors)), float(np.mean(costs))])
    result = ExperimentResult(
        experiment_id="restrictions",
        title="Impact of neighbor-access restrictions (§6.3.1)",
        x_label="-",
        y_label="-",
        notes=[
            f"BA(800,6); burn-in sampler; {samples} samples x "
            f"{repetitions} repetitions; restriction size k={k}; "
            "estimated aggregate: AVG true degree (profile attribute)",
            *short,
        ],
    )
    result.tables["average degree estimation"] = table
    return result


def _can_leave(api: SocialNetworkAPI, design, node: int) -> bool:
    """Whether *design* has a move out of *node* on *api*."""
    try:
        return bool(design.transition_row(api, node))
    except GraphError:
        return False


def long_run(scale: str = "quick", seed: RngLike = 53) -> ExperimentResult:
    """Many short runs vs one long run (§6.1): ESS and estimate error.

    Aggregates the per-node mean shortest-path length — an attribute that
    differs by at most 1 across adjacent nodes, i.e. exactly the "strong
    correlation between the attribute values being aggregated on adjacent
    nodes" regime where the paper warns that one long run's effective
    sample size collapses (Eq. 25).
    """
    rng = ensure_rng(seed)
    data_rng, run_rng = spawn(rng, 2)
    dataset = build_dataset("ba_synthetic", seed=data_rng, nodes=1500, m=5)
    graph = dataset.graph
    paths = mean_shortest_path_lengths(graph, landmark_count=16, seed=data_rng)
    graph.set_attribute("avg_path", {n: float(v) for n, v in paths.items()})
    truth = graph.attribute_mean("avg_path")
    design = SimpleRandomWalk()
    samples = 600 if scale == "full" else 150
    start = int(ensure_rng(run_rng).integers(0, 1500))

    api_short = SocialNetworkAPI(dataset.graph)
    short = BurnInSampler(design, min_steps=30, max_steps=1500)
    short_batch = short.sample(api_short, start, count=samples, seed=run_rng)

    api_long = SocialNetworkAPI(dataset.graph)
    long_sampler = LongRunSampler(design, burn_in_steps=150, thin=1)
    long_batch = long_sampler.sample(api_long, start, count=samples, seed=run_rng)

    table = TableData(
        columns=[
            "scheme",
            "samples",
            "effective_samples",
            "rel_error(avg path length)",
            "query_cost",
        ]
    )
    for label, batch, api in (
        ("many short runs", short_batch, api_short),
        ("one long run", long_batch, api_long),
    ):
        values = [
            float(graph.get_attribute("avg_path", node)) for node in batch.nodes
        ]
        estimate = average_estimate(batch, values)
        ess = effective_sample_size(values)
        table.rows.append(
            [
                label,
                len(batch),
                float(ess),
                relative_error(estimate, truth),
                api.query_cost,
            ]
        )
    result = ExperimentResult(
        experiment_id="long_run",
        title="Many short runs vs one long run (§6.1, Eq. 25)",
        x_label="-",
        y_label="-",
        notes=[f"BA(1500,5), MHRW, {samples} samples per scheme, start={start}"],
    )
    result.tables["scheme comparison"] = table
    return result


def crawl_baselines(scale: str = "quick", seed: RngLike = 55) -> ExperimentResult:
    """BFS/DFS/snowball vs SRW vs WE: why walks beat crawls (§8's [25]).

    Crawl-order baselines confine their "sample" to the start's vicinity
    and over-represent hubs; the table shows their average-degree error
    against the random-walk samplers at an equal query budget.
    """
    from repro.osn.accounting import QueryBudget
    from repro.walks.baselines import BFSSampler, DFSSampler, SnowballSampler

    rng = ensure_rng(seed)
    data_rng, run_rng = spawn(rng, 2)
    dataset = build_dataset("ba_synthetic", seed=data_rng, nodes=3000, m=6)
    truth = dataset.aggregates["degree"]
    budget = 4000 if scale == "full" else 1500
    repetitions = 10 if scale == "full" else 3
    design = SimpleRandomWalk()
    config = WalkEstimateConfig(diameter_hint=5, crawl_hops=2)
    samplers = {
        "BFS": lambda: BFSSampler(),
        "DFS": lambda: DFSSampler(),
        "snowball(3)": lambda: SnowballSampler(fanout=3),
        "SRW burn-in": lambda: BurnInSampler(design),
        "WE": lambda: we_full_sampler(design, config),
    }
    starts = [
        int(ensure_rng(run_rng).integers(0, 3000)) for _ in range(repetitions)
    ]
    table = TableData(columns=["sampler", "mean_rel_error", "mean_samples"])
    for label, factory in samplers.items():
        errors, counts = [], []
        for rep in range(repetitions):
            api = SocialNetworkAPI(dataset.graph, budget=QueryBudget(budget))
            batch = factory().sample(api, starts[rep], count=200, seed=run_rng)
            if len(batch) == 0:
                errors.append(1.0)
                counts.append(0)
                continue
            values = [
                dataset.graph.get_attribute("degree", node)
                for node in batch.nodes
            ]
            errors.append(relative_error(average_estimate(batch, values), truth))
            counts.append(len(batch))
        table.rows.append([label, float(np.mean(errors)), float(np.mean(counts))])
    result = ExperimentResult(
        experiment_id="crawl_baselines",
        title="Crawl-order baselines vs random-walk samplers",
        x_label="-",
        y_label="-",
        notes=[
            f"BA(3000,6); budget {budget} unique queries; AVG degree; "
            f"{repetitions} repetitions"
        ],
    )
    result.tables["average degree estimation"] = table
    return result


def we_long_run(scale: str = "quick", seed: RngLike = 56) -> ExperimentResult:
    """The §6.1 future-work variant: WALK-ESTIMATE over one long run.

    Compares, at a matched sample count: the classical one-long-run sampler
    (cheap, biased toward the walk's law), short-runs WALK-ESTIMATE
    (independent, corrected), and the long-run WALK-ESTIMATE (correlated
    but corrected).  Columns report distribution bias against the
    degree-proportional target and query cost.
    """
    from repro.core.long_run_we import LongRunWalkEstimateSampler

    rng = ensure_rng(seed)
    data_rng, run_rng = spawn(rng, 2)
    dataset = build_dataset("ba_synthetic", seed=data_rng, nodes=800, m=6)
    graph = dataset.graph
    n = graph.number_of_nodes()
    degrees = np.array([graph.degree(v) for v in range(n)], dtype=float)
    target = degrees / degrees.sum()
    design = SimpleRandomWalk()
    total = 8000 if scale == "full" else 1500
    start = int(ensure_rng(run_rng).integers(0, n))
    config = WalkEstimateConfig(diameter_hint=4, crawl_hops=2)

    samplers = {
        "one long run (classical)": lambda: LongRunSampler(
            design, burn_in_steps=100
        ),
        "WE short runs": lambda: we_full_sampler(design, config),
        "WE one long run": lambda: LongRunWalkEstimateSampler(design, config),
    }
    table = TableData(
        columns=["sampler", "l_inf_bias", "kl_bias", "query_cost", "walk_steps"]
    )
    for label, factory in samplers.items():
        api = SocialNetworkAPI(graph)
        sampler = factory()
        nodes: list[int] = []
        batch = None
        while len(nodes) < total:
            batch = sampler.sample(api, start, count=min(200, total), seed=run_rng)
            nodes.extend(batch.nodes)
        pdf = empirical_distribution(nodes[:total], n)
        table.rows.append(
            [
                label,
                l_infinity_bias(pdf, target),
                kl_bias(pdf, target),
                api.query_cost,
                batch.walk_steps if batch is not None else 0,
            ]
        )
    result = ExperimentResult(
        experiment_id="we_long_run",
        title="WALK-ESTIMATE over one long run (§6.1 future work)",
        x_label="-",
        y_label="-",
        notes=[f"BA(800,6); {total} samples per scheme; start={start}"],
    )
    result.tables["long-run comparison"] = table
    return result


def scale_factor(scale: str = "quick", seed: RngLike = 54) -> ExperimentResult:
    """WE bias/efficiency vs the §6.3.2 bootstrap percentile.

    Lower percentiles are conservative (more rejections, lower bias);
    higher ones are aggressive (cheaper, more bias) — the exact trade-off
    the paper describes.  Measured as distribution distance to the
    degree-proportional target on BA(500, 5) plus cost per sample.
    """
    rng = ensure_rng(seed)
    data_rng, run_rng = spawn(rng, 2)
    dataset = build_dataset("ba_synthetic", seed=data_rng, nodes=500, m=5)
    graph = dataset.graph
    n = graph.number_of_nodes()
    degrees = np.array([graph.degree(v) for v in range(n)], dtype=float)
    target = degrees / degrees.sum()
    design = SimpleRandomWalk()
    total = 6000 if scale == "full" else 800
    start = int(ensure_rng(run_rng).integers(0, n))

    table = TableData(
        columns=["percentile", "l_inf_bias", "kl_bias", "cost_per_sample"]
    )
    for percentile in (5.0, 10.0, 30.0, 60.0):
        config = WalkEstimateConfig(
            diameter_hint=4,
            crawl_hops=2,
            scale_percentile=percentile,
            backward_repetitions=6,
            refine_repetitions=6,
            calibration_walks=10,
        )
        spec = SamplerSpec(
            f"WE@p{percentile:g}", lambda c=config: we_full_sampler(design, c)
        )
        api_probe = SocialNetworkAPI(graph)
        sampler = we_full_sampler(design, config)
        probe_start = api_probe.snapshot()
        probe = sampler.sample(api_probe, start, count=30, seed=run_rng)
        probe_cost = api_probe.counter.delta(probe_start).unique_nodes
        cost_per_sample = probe_cost / max(1, len(probe))
        nodes = collect_samples(
            dataset, spec, total, per_run=60, seed=run_rng, start=start
        )
        pdf = empirical_distribution(nodes, n)
        table.rows.append(
            [
                percentile,
                l_infinity_bias(pdf, target),
                kl_bias(pdf, target),
                float(cost_per_sample),
            ]
        )
    result = ExperimentResult(
        experiment_id="scale_factor",
        title="Scale-factor percentile sensitivity (§6.3.2)",
        x_label="-",
        y_label="-",
        notes=[f"BA(500,5), SRW target, {total} samples per setting"],
    )
    result.tables["percentile sweep"] = table
    return result
