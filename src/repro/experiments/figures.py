"""One function per paper figure (Figure 4 is a schematic, not data).

Every function takes ``scale`` and a ``seed``; each records its actual
workload in the result's notes so rendered output is self-describing.
Three scales ladder the same code paths:

* ``"smoke"`` — unit-test sizes: every phase of the experiment runs, but
  on workloads small enough for the test suite (seconds, not minutes).
  The numbers are structurally valid yet statistically meaningless —
  never report them.
* ``"quick"`` — benchmark-friendly sizes (the default).
* ``"full"`` — paper-scale runs.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.config import WalkEstimateConfig
from repro.core.walk_estimate import (
    we_crawl_sampler,
    we_full_sampler,
    we_none_sampler,
    we_weighted_sampler,
)
from repro.datasets.registry import build_dataset
from repro.datasets.surrogates import SocialDataset
from repro.errors import ExperimentError
from repro.estimators.distribution import sampling_distribution_comparison
from repro.experiments.runner import (
    ExperimentResult,
    SamplerSpec,
    Series,
    TableData,
    collect_samples,
    error_vs_cost,
    error_vs_samples,
)
from repro.graphs.generators import barabasi_albert_graph, cycle_graph
from repro.graphs.properties import estimate_diameter
from repro.markov.distributions import step_distributions
from repro.markov.matrix import TransitionMatrix
from repro.rng import RngLike, ensure_rng, spawn
from repro.theory.case_studies import CASE_STUDY_MODELS, cost_curve, savings_curve
from repro.walks.samplers import BurnInSampler
from repro.walks.transitions import (
    MetropolisHastingsWalk,
    SimpleRandomWalk,
    TransitionDesign,
)

_SCALES = ("smoke", "quick", "full")


def _check_scale(scale: str) -> None:
    if scale not in _SCALES:
        raise ExperimentError(f"scale must be one of {_SCALES}, got {scale!r}")


def _we_config_for(
    dataset: SocialDataset, crawl_hops: int, seed: RngLike
) -> WalkEstimateConfig:
    """Dataset-tuned WE config: walk length 2d+1 from a measured diameter.

    Backward repetitions are kept modest (5 base + 3 refinement): the
    rejection step tolerates noisy probability estimates, and every extra
    backward walk costs queries that the comparison charges to WE.
    """
    diameter = max(2, estimate_diameter(dataset.graph, probes=4, seed=seed))
    return WalkEstimateConfig(
        diameter_hint=diameter,
        crawl_hops=crawl_hops,
        backward_repetitions=12,
        refine_repetitions=4,
        scale_percentile=30.0,
        calibration_walks=10,
    )


def _baseline_spec(design: TransitionDesign, label: str) -> SamplerSpec:
    return SamplerSpec(label, lambda: BurnInSampler(design))


def _we_spec(
    design: TransitionDesign, config: WalkEstimateConfig, label: str = "WE"
) -> SamplerSpec:
    return SamplerSpec(label, lambda: we_full_sampler(design, config))


# ----------------------------------------------------------------------
# Figure 1 — min/max sampling probability vs walk length
# ----------------------------------------------------------------------
def figure1(scale: str = "quick", seed: RngLike = 31) -> ExperimentResult:
    """Exact min/max of ``p_t`` on BA(31, 3) as the walk lengthens.

    Shows the sharp early drop of the maximum (and rise of the minimum)
    that motivates cutting the walk short: convergence progress per step
    collapses once ``t`` passes the diameter.
    """
    _check_scale(scale)
    max_t = 80
    graph = barabasi_albert_graph(31, 3, seed=seed).relabeled()
    matrix = TransitionMatrix(graph, SimpleRandomWalk())
    minimum = Series(label="Min Prob")
    maximum = Series(label="Max Prob")
    for t, p_t in step_distributions(matrix, start=0, max_t=max_t):
        minimum.add(t, float(p_t.min()))
        maximum.add(t, float(p_t.max()))
    result = ExperimentResult(
        experiment_id="figure1",
        title="Minimum and maximum sampling probabilities vs walk length",
        x_label="walk_length",
        y_label="probability",
        notes=[f"BA graph n=31 m=3 seed={seed}, SRW, exact matrix powers"],
    )
    result.panel("BA(31,3)").extend([maximum, minimum])
    return result


# ----------------------------------------------------------------------
# Figure 2 — IDEAL-WALK query cost per sample vs walk length
# ----------------------------------------------------------------------
def figure2(scale: str = "quick", seed: RngLike = 31) -> ExperimentResult:
    """Oracle cost-per-sample curves over the five §4.2 graph models."""
    _check_scale(scale)
    walk_lengths = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128]
    result = ExperimentResult(
        experiment_id="figure2",
        title="IDEAL-WALK query cost per sample vs walk length (n≈31)",
        x_label="walk_length",
        y_label="query_cost_per_sample",
        notes=["uniform target; lazy(0.05) SRW input; exact acceptance analysis"],
    )
    series_list = result.panel("five models, n≈31")
    for model in sorted(CASE_STUDY_MODELS):
        curve = cost_curve(model, n=31, walk_lengths=walk_lengths)
        series = Series(label=model)
        for t in walk_lengths:
            series.add(t, curve[t])
        series_list.append(series)
    return result


# ----------------------------------------------------------------------
# Figure 3 — IDEAL-WALK query-cost saving vs graph size
# ----------------------------------------------------------------------
def figure3(scale: str = "quick", seed: RngLike = 31) -> ExperimentResult:
    """Oracle saving ``1 - c(t_opt)/c_RW`` (in %) as graphs grow 8→128."""
    _check_scale(scale)
    sizes = [8, 16, 32, 64, 128] if scale == "full" else [8, 16, 32, 64]
    relative_delta = 0.1
    result = ExperimentResult(
        experiment_id="figure3",
        title="Query-cost saving of IDEAL-WALK vs graph size",
        x_label="graph_size",
        y_label="saving_percent",
        notes=[
            "burn-in requirement: l-inf error <= "
            f"{relative_delta} x (min target probability); lazy(0.05) SRW input"
        ],
    )
    series_list = result.panel("five models")
    for model in sorted(CASE_STUDY_MODELS):
        curve = savings_curve(model, sizes=sizes, relative_delta=relative_delta)
        series = Series(label=model)
        for n, saving in curve.items():
            series.add(n, 100.0 * saving)
        series_list.append(series)
    return result


# ----------------------------------------------------------------------
# Figure 5 — WE's limitation: long-diameter cycle graphs
# ----------------------------------------------------------------------
def figure5(scale: str = "quick", seed: RngLike = 5) -> ExperimentResult:
    """Steps per sample on cycles of growing diameter: SRW vs WE.

    Reproduces the §6.2 limitation study.  The Geweke-monitored SRW is
    barely affected by diameter (on a constant-degree cycle the monitored
    attribute is flat, so the monitor fires at its floor — the very
    blind spot convergence monitors are known for), while WE's cost grows
    quickly: its forward walk scales with the diameter and its backward
    walks rarely reach the start's crawled zone.
    """
    _check_scale(scale)
    sizes = [11, 21, 31, 41, 51] if scale == "full" else [11, 21, 31, 41]
    samples = 30 if scale == "full" else 12
    rng = ensure_rng(seed)
    srw_series = Series(label="SRW")
    we_series = Series(label="WE")
    for n in sizes:
        graph = cycle_graph(n).relabeled()
        diameter = n // 2
        from repro.osn.api import SocialNetworkAPI  # local to avoid cycle

        api = SocialNetworkAPI(graph)
        burnin = BurnInSampler(SimpleRandomWalk(), min_steps=30, max_steps=4000)
        batch = burnin.sample(api, start=0, count=samples, seed=rng)
        srw_series.add(diameter, batch.walk_steps / max(1, len(batch)))

        config = WalkEstimateConfig(
            walk_length=2 * diameter + 1,
            crawl_hops=2,
            backward_repetitions=5,
            refine_repetitions=5,
            calibration_walks=8,
        )
        api = SocialNetworkAPI(graph)
        sampler = we_full_sampler(SimpleRandomWalk(), config)
        batch = sampler.sample(api, start=0, count=samples, seed=rng)
        we_series.add(diameter, batch.walk_steps / max(1, len(batch)))
    result = ExperimentResult(
        experiment_id="figure5",
        title="Cycle graphs with long diameter: steps per sample",
        x_label="graph_diameter",
        y_label="steps_per_sample",
        notes=[f"cycle sizes {sizes}; {samples} samples per point"],
    )
    result.panel("cycle graphs").extend([srw_series, we_series])
    return result


# ----------------------------------------------------------------------
# Figures 6/7/8 — relative error vs query cost on the three surrogates
# ----------------------------------------------------------------------
def _error_cost_figure(
    experiment_id: str,
    dataset: SocialDataset,
    design_panels: Dict[str, TransitionDesign],
    aggregates: Sequence[str],
    budgets: Sequence[int],
    repetitions: int,
    crawl_hops: int,
    seed: RngLike,
    title: str,
) -> ExperimentResult:
    rng = ensure_rng(seed)
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        x_label="query_cost",
        y_label="relative_error",
        notes=[
            f"surrogate {dataset.graph.name}: |V|={dataset.graph.number_of_nodes()}, "
            f"|E|={dataset.graph.number_of_edges()}",
            f"budgets={list(budgets)}, repetitions={repetitions}",
        ],
    )
    for design_label, design in design_panels.items():
        config = _we_config_for(dataset, crawl_hops, seed=rng)
        specs = [
            _baseline_spec(design, design_label),
            _we_spec(design, config, "WE"),
        ]
        for attribute in aggregates:
            panel = f"Average {attribute} ({design_label})"
            series = error_vs_cost(
                dataset,
                specs,
                attribute,
                budgets=budgets,
                repetitions=repetitions,
                seed=rng,
            )
            result.panel(panel).extend(series)
    return result


def figure6(scale: str = "quick", seed: RngLike = 6) -> ExperimentResult:
    """Google Plus surrogate: error vs cost, SRW and MHRW inputs."""
    _check_scale(scale)
    rng = ensure_rng(seed)
    data_rng, run_rng = spawn(rng, 2)
    if scale == "smoke":
        dataset = build_dataset("google_plus", seed=data_rng, nodes=400, m=8)
        budgets = [200, 400]
        repetitions = 1
    elif scale == "quick":
        dataset = build_dataset("google_plus", seed=data_rng, nodes=4000, m=12)
        budgets = [600, 1200, 2400, 3600]
        repetitions = 3
    else:
        dataset = build_dataset("google_plus", seed=data_rng, nodes=16000, m=35)
        budgets = [2000, 4000, 6000, 9000]
        repetitions = 10
    return _error_cost_figure(
        "figure6",
        dataset,
        {"SRW": SimpleRandomWalk(), "MHRW": MetropolisHastingsWalk()},
        ["degree", "description_length"],
        budgets,
        repetitions,
        crawl_hops=1,
        seed=run_rng,
        title="Google Plus surrogate: relative error vs query cost",
    )


def figure7(scale: str = "quick", seed: RngLike = 7) -> ExperimentResult:
    """Yelp surrogate: error vs cost for the four §7 aggregates (SRW)."""
    _check_scale(scale)
    rng = ensure_rng(seed)
    data_rng, run_rng = spawn(rng, 2)
    if scale == "smoke":
        dataset = build_dataset("yelp", seed=data_rng, nodes=400, m=4)
        budgets = [200, 400]
        repetitions = 1
    elif scale == "quick":
        dataset = build_dataset("yelp", seed=data_rng, nodes=4000, m=6)
        budgets = [600, 1200, 2400, 3600]
        repetitions = 3
    else:
        dataset = build_dataset("yelp", seed=data_rng, nodes=12000, m=8)
        budgets = [1500, 3000, 6000, 9000]
        repetitions = 10
    return _error_cost_figure(
        "figure7",
        dataset,
        {"SRW": SimpleRandomWalk()},
        ["degree", "stars", "avg_path", "clustering"],
        budgets,
        repetitions,
        crawl_hops=2,
        seed=run_rng,
        title="Yelp surrogate: relative error vs query cost",
    )


def figure8(scale: str = "quick", seed: RngLike = 8) -> ExperimentResult:
    """Twitter surrogate (mutual graph): error vs cost (SRW)."""
    _check_scale(scale)
    rng = ensure_rng(seed)
    data_rng, run_rng = spawn(rng, 2)
    if scale == "smoke":
        dataset = build_dataset("twitter", seed=data_rng, nodes=600, m=8)
        budgets = [200, 400]
        repetitions = 1
    elif scale == "quick":
        dataset = build_dataset("twitter", seed=data_rng, nodes=4000, m=10)
        budgets = [500, 1000, 2000, 3000]
        repetitions = 3
    else:
        dataset = build_dataset("twitter", seed=data_rng, nodes=12000, m=12)
        budgets = [1500, 3000, 6000, 9000]
        repetitions = 10
    return _error_cost_figure(
        "figure8",
        dataset,
        {"SRW": SimpleRandomWalk()},
        ["in_degree", "out_degree", "avg_path", "clustering"],
        budgets,
        repetitions,
        crawl_hops=2,
        seed=run_rng,
        title="Twitter surrogate: relative error vs query cost",
    )


# ----------------------------------------------------------------------
# Figure 9 — variance-reduction ablation (WE vs WE-None/Crawl/Weighted)
# ----------------------------------------------------------------------
def figure9(scale: str = "quick", seed: RngLike = 9) -> ExperimentResult:
    """Google Plus surrogate: the four WE variants, error vs cost."""
    _check_scale(scale)
    rng = ensure_rng(seed)
    data_rng, run_rng = spawn(rng, 2)
    if scale == "smoke":
        dataset = build_dataset("google_plus", seed=data_rng, nodes=400, m=8)
        budgets = [200, 400]
        repetitions = 1
        design_panels: Dict[str, TransitionDesign] = {"SRW": SimpleRandomWalk()}
        aggregates = ["degree"]
    elif scale == "quick":
        dataset = build_dataset("google_plus", seed=data_rng, nodes=4000, m=12)
        budgets = [600, 1200, 2400, 3600]
        repetitions = 3
        design_panels = {"SRW": SimpleRandomWalk()}
        aggregates = ["degree", "description_length"]
    else:
        dataset = build_dataset("google_plus", seed=data_rng, nodes=16000, m=35)
        budgets = [2000, 4000, 6000, 9000]
        repetitions = 10
        design_panels = {
            "SRW": SimpleRandomWalk(),
            "MHRW": MetropolisHastingsWalk(),
        }
        aggregates = ["degree", "description_length"]
    result = ExperimentResult(
        experiment_id="figure9",
        title="Variance-reduction ablation on the Google Plus surrogate",
        x_label="query_cost",
        y_label="relative_error",
        notes=[
            f"surrogate {dataset.graph.name}",
            f"budgets={budgets}, repetitions={repetitions}",
        ],
    )
    for design_label, design in design_panels.items():
        config = _we_config_for(dataset, crawl_hops=1, seed=rng)
        specs = [
            SamplerSpec("WE-None", lambda d=design: we_none_sampler(d, config)),
            SamplerSpec("WE-Crawl", lambda d=design: we_crawl_sampler(d, config)),
            SamplerSpec(
                "WE-Weighted", lambda d=design: we_weighted_sampler(d, config)
            ),
            SamplerSpec("WE", lambda d=design: we_full_sampler(d, config)),
        ]
        for attribute in aggregates:
            panel = f"Average {attribute} ({design_label})"
            series = error_vs_cost(
                dataset,
                specs,
                attribute,
                budgets=budgets,
                repetitions=repetitions,
                seed=run_rng,
            )
            result.panel(panel).extend(series)
    return result


# ----------------------------------------------------------------------
# Figure 10 — relative error vs number of samples (sample quality)
# ----------------------------------------------------------------------
def figure10(scale: str = "quick", seed: RngLike = 10) -> ExperimentResult:
    """Google Plus surrogate: error at matched sample counts."""
    _check_scale(scale)
    rng = ensure_rng(seed)
    data_rng, run_rng = spawn(rng, 2)
    if scale == "smoke":
        dataset = build_dataset("google_plus", seed=data_rng, nodes=400, m=8)
        checkpoints = [5, 10]
        repetitions = 1
    elif scale == "quick":
        dataset = build_dataset("google_plus", seed=data_rng, nodes=4000, m=12)
        checkpoints = [10, 20, 40, 80]
        repetitions = 3
    else:
        dataset = build_dataset("google_plus", seed=data_rng, nodes=16000, m=35)
        checkpoints = [10, 20, 40, 80, 120]
        repetitions = 10
    result = ExperimentResult(
        experiment_id="figure10",
        title="Google Plus surrogate: relative error vs number of samples",
        x_label="number_of_samples",
        y_label="relative_error",
        notes=[f"checkpoints={checkpoints}, repetitions={repetitions}"],
    )
    for design_label, design in (
        ("SRW", SimpleRandomWalk()),
        ("MHRW", MetropolisHastingsWalk()),
    ):
        config = _we_config_for(dataset, crawl_hops=1, seed=rng)
        specs = [
            _baseline_spec(design, design_label),
            _we_spec(design, config, "WE"),
        ]
        for attribute in ("degree", "description_length"):
            panel = f"Average {attribute} ({design_label})"
            series = error_vs_samples(
                dataset,
                specs,
                attribute,
                checkpoints=checkpoints,
                repetitions=repetitions,
                seed=run_rng,
            )
            result.panel(panel).extend(series)
    return result


# ----------------------------------------------------------------------
# Figure 11 — synthetic BA graphs of growing size
# ----------------------------------------------------------------------
def figure11(scale: str = "quick", seed: RngLike = 11) -> ExperimentResult:
    """BA graphs at three sizes: error vs cost and vs sample count (SRW)."""
    _check_scale(scale)
    rng = ensure_rng(seed)
    if scale == "smoke":
        sizes = [300, 500]
        repetitions = 1
        checkpoints = [5, 10]
    elif scale == "quick":
        sizes = [1000, 2000, 4000]
        repetitions = 3
        checkpoints = [20, 50, 100]
    else:
        sizes = [10000, 15000, 20000]
        repetitions = 10
        checkpoints = [25, 50, 100, 150, 200]
    result = ExperimentResult(
        experiment_id="figure11",
        title="Synthetic BA graphs: average-degree estimation (SRW input)",
        x_label="query_cost",
        y_label="relative_error",
        notes=[
            f"sizes={sizes}, m=5, repetitions={repetitions}",
            "panel (b) x-axis is number_of_samples",
        ],
    )
    for n in sizes:
        data_rng, run_rng, run2_rng = spawn(rng, 3)
        dataset = build_dataset("ba_synthetic", seed=data_rng, nodes=n, m=5)
        config = _we_config_for(dataset, crawl_hops=2, seed=rng)
        design = SimpleRandomWalk()
        specs = [
            _baseline_spec(design, f"SRW-{n}"),
            _we_spec(design, config, f"WE-{n}"),
        ]
        budgets = [n // 2, (3 * n) // 4, n]
        cost_series = error_vs_cost(
            dataset, specs, "degree", budgets, repetitions, seed=run_rng
        )
        result.panel("(a) relative error vs query cost").extend(cost_series)
        sample_series = error_vs_samples(
            dataset, specs, "degree", checkpoints, repetitions, seed=run2_rng
        )
        result.panel("(b) relative error vs number of samples").extend(sample_series)
    return result


# ----------------------------------------------------------------------
# Figure 12 — exact sampling-distribution comparison (with Table 1's data)
# ----------------------------------------------------------------------
def figure12(scale: str = "quick", seed: RngLike = 12) -> ExperimentResult:
    """PDF/CDF of theoretical vs SRW vs WE sampling distributions.

    Workload: BA(1000, 7) — the paper's exact 1000-node/6951-edge graph.
    The target is SRW's stationary (degree-proportional) distribution; SRW
    samples come from Geweke-monitored short runs, WE samples from
    WALK-ESTIMATE with SRW input.  Nodes are binned (degree-descending) for
    textual output; bias metrics are computed on the unbinned vectors.
    """
    _check_scale(scale)
    rng = ensure_rng(seed)
    data_rng, start_rng, srw_rng, we_rng = spawn(rng, 4)
    dataset = build_dataset("exact_bias", seed=data_rng)
    graph = dataset.graph
    n = graph.number_of_nodes()
    totals = {"smoke": 300, "quick": 3000, "full": 20000}
    total = totals[scale]
    per_run = 60

    degrees = np.array([graph.degree(v) for v in range(n)], dtype=float)
    target = degrees / degrees.sum()

    start = int(ensure_rng(start_rng).integers(0, n))
    design = SimpleRandomWalk()
    srw_spec = SamplerSpec(
        "SRW", lambda: BurnInSampler(design, min_steps=30, max_steps=2000)
    )
    config = WalkEstimateConfig(
        diameter_hint=max(2, estimate_diameter(graph, probes=4, seed=rng)),
        crawl_hops=2,
        backward_repetitions=24,
        refine_repetitions=8,
        scale_percentile=10.0,  # bias-critical: the paper's conservative pick
        calibration_walks=15,
    )
    we_spec = SamplerSpec("WE", lambda: we_full_sampler(design, config))

    samples = {
        "SRW": collect_samples(
            dataset, srw_spec, total, per_run, seed=srw_rng, start=start
        ),
        "WE": collect_samples(
            dataset, we_spec, total, per_run, seed=we_rng, start=start
        ),
    }
    comparison = sampling_distribution_comparison(graph, target, samples)

    bins = 20
    edges = np.linspace(0, n, bins + 1, dtype=int)
    result = ExperimentResult(
        experiment_id="figure12",
        title="Sampling distribution vs degree-proportional target, BA(1000,7)",
        x_label="degree_rank_bin",
        y_label="probability_mass",
        notes=[
            f"{total} samples per sampler, start node {start}",
            "nodes ordered by descending degree, binned into "
            f"{bins} equal-width rank bins",
            "KL has a multinomial noise floor of ~(n-1)/(2*samples) = "
            f"{(n - 1) / (2 * total):.3f} at this sample count; the paper's "
            "Table 1 used enough samples to visit every node ~1000 times",
        ],
    )
    pdf_panel = result.panel("PDF (binned)")
    cdf_panel = result.panel("CDF (at bin right edges)")
    for label, pdf in [("Theo", comparison.target_pdf)] + sorted(
        comparison.sampled_pdfs.items()
    ):
        pdf_series = Series(label=label)
        cdf_series = Series(label=label)
        cumulative = np.cumsum(pdf)
        for b in range(bins):
            lo, hi = edges[b], edges[b + 1]
            pdf_series.add(b, float(pdf[lo:hi].sum()))
            cdf_series.add(b, float(cumulative[hi - 1]))
        pdf_panel.append(pdf_series)
        cdf_panel.append(cdf_series)

    table = TableData(columns=["distance_measure", "Dist(Theo, SRW)", "Dist(Theo, WE)"])
    table.rows.append(
        ["l_inf", comparison.biases["SRW"]["linf"], comparison.biases["WE"]["linf"]]
    )
    table.rows.append(
        ["KL", comparison.biases["SRW"]["kl"], comparison.biases["WE"]["kl"]]
    )
    result.tables["Table 1: distance to theoretical distribution"] = table
    return result
