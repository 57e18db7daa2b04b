"""Query-cost benchmarks for the charged-API regime, scalar vs. batch.

The paper's efficiency metric is *query cost* — unique nodes touched on a
charged API (§2.4) — so this benchmark reports two things the throughput
benchmark cannot:

* **queries per sample** for the scalar WALK-ESTIMATE front ends (WE-None
  vs the crawl-aware WE-Crawl vs full WE), with the per-phase attribution
  (crawl / forward walk / backward estimation) that the counter
  snapshot/delta helpers make explicit;
* **batched WS-BW vs scalar WS-BW** on the same charged API: every node
  of the hidden graph is estimated once, so *both* engines charge exactly
  ``|V|`` unique queries — the batch buys wall-clock speed, never extra
  query cost.  The rows' ``timing`` blocks hold the wall-clock side
  (both engines' seconds and the batch's speedup); the query costs next
  to them prove it came free.

CLI artifact mode (``python benchmarks/bench_querycost.py --out
BENCH_querycost.json``) writes one JSON record that CI uploads alongside
``BENCH_throughput.json``; ``--quick`` shrinks the workload for smoke
runs.
"""

import argparse
import time

import numpy as np

from repro.bench import write_artifact
from repro.core.config import WalkEstimateConfig
from repro.core.walk_estimate import we_crawl_sampler, we_full_sampler, we_none_sampler
from repro.core.weighted import ForwardHistory, weighted_backward_estimate, ws_bw_batch
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI
from repro.rng import ensure_rng
from repro.walks.transitions import (
    LazyWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)
from repro.walks.walker import run_walk


def queries_per_sample(graph, design, config, samples, seed) -> dict:
    """Query cost per collected sample for the three scalar WE variants."""
    out = {}
    for factory in (we_none_sampler, we_crawl_sampler, we_full_sampler):
        sampler = factory(design, config)
        api = SocialNetworkAPI(graph)
        before = api.snapshot()
        batch = sampler.sample(api, start=0, count=samples, seed=seed)
        cost = api.counter.delta(before).unique_nodes
        report = sampler.last_report
        out[sampler.name] = {
            "samples": len(batch),
            "query_cost": cost,
            "queries_per_sample": cost / max(1, len(batch)),
            "phase_cost": {
                "crawl": report.crawl_cost,
                "walk": report.walk_cost,
                "backward": report.backward_cost,
            },
        }
    return out


def ws_bw_comparison(graph, design, t, history_walks, seed, rounds=3) -> dict:
    """Scalar vs batched WS-BW estimating p_t for *every* node.

    Because every node is itself an estimation target, each engine fetches
    every row exactly once — the unique-node query cost is ``|V|`` on both
    sides by construction, independent of the random trajectories, which
    is what makes the wall-clock numbers directly comparable.  One warm-up
    pass per engine pays the (identical) first-fetch cost and fixes the
    query cost; timings are the best of *rounds* repeats over the warm
    cache, so the number measures the estimation machinery rather than
    scheduler noise.
    """
    history = ForwardHistory(0, t)
    history_rng = ensure_rng(seed)
    for _ in range(history_walks):
        history.record(run_walk(graph, design, 0, t, seed=history_rng))
    targets = np.asarray(graph.nodes())

    def run_scalar(api, rng):
        for node in targets.tolist():
            weighted_backward_estimate(
                api, design, int(node), 0, t, history=history, seed=rng
            )

    def run_batch(api, rng):
        ws_bw_batch(api, design, targets, 0, t, history=history, seed=rng)

    seconds = {}
    costs = {}
    for name, runner in (("scalar", run_scalar), ("batch", run_batch)):
        api = SocialNetworkAPI(graph)
        runner(api, ensure_rng(seed))  # warm-up: pays every first fetch
        costs[name] = api.query_cost
        best = float("inf")
        for round_index in range(rounds):
            rng = ensure_rng(seed + round_index)
            begin = time.perf_counter()
            runner(api, rng)
            best = min(best, time.perf_counter() - begin)
        seconds[name] = best

    return {
        "k": int(targets.size),
        "history_walks": history_walks,
        "rounds": rounds,
        "timing": {
            "scalar_seconds": seconds["scalar"],
            "batch_seconds": seconds["batch"],
            "speedup": seconds["scalar"] / seconds["batch"],
        },
        "scalar_query_cost": costs["scalar"],
        "batch_query_cost": costs["batch"],
        "query_cost_unchanged": costs["scalar"] == costs["batch"],
    }


def run_comparison(
    nodes: int = 5000,
    attach: int = 3,
    walk_length: int = 21,
    history_walks: int = 100,
    samples: int = 40,
    seed: int = 42,
    rounds: int = 3,
) -> dict:
    """The full BENCH_querycost record (see module docstring)."""
    graph = barabasi_albert_graph(nodes, attach, seed=seed).relabeled()
    sampler_graph = barabasi_albert_graph(min(nodes, 1000), attach, seed=seed)
    sampler_graph = sampler_graph.relabeled()
    config = WalkEstimateConfig(
        diameter_hint=4, crawl_hops=2, calibration_walks=10, backward_repetitions=6
    )
    designs = {
        "srw": SimpleRandomWalk(),
        "mhrw": MetropolisHastingsWalk(),
        "lazy-srw": LazyWalk(SimpleRandomWalk(), 0.5),
    }
    record = {
        "benchmark": "query_cost",
        "graph": {
            "model": "barabasi_albert",
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "seed": seed,
        },
        "walk_length": walk_length,
        "samplers": {},
        "ws_bw_batch": {},
    }
    for name, design in designs.items():
        record["samplers"][name] = queries_per_sample(
            sampler_graph, design, config, samples, seed
        )
        record["ws_bw_batch"][name] = ws_bw_comparison(
            graph, design, walk_length, history_walks, seed, rounds=rounds
        )
    return record


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Charged-API query cost: scalar WE variants and batched WS-BW"
    )
    parser.add_argument("--out", default="BENCH_querycost.json")
    parser.add_argument("--nodes", type=int, default=5000)
    parser.add_argument("--attach", type=int, default=3)
    parser.add_argument("--walk-length", type=int, default=21)
    parser.add_argument("--history-walks", type=int, default=100)
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny budget for CI smoke runs (overrides nodes/lengths/walks)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.nodes, args.walk_length = 600, 11
        args.history_walks, args.samples = 40, 10
        args.rounds = 1
    record = run_comparison(
        nodes=args.nodes,
        attach=args.attach,
        walk_length=args.walk_length,
        history_walks=args.history_walks,
        samples=args.samples,
        seed=args.seed,
        rounds=args.rounds,
    )
    write_artifact(record, args.out, scale="smoke" if args.quick else "full")
    for name, variants in record["samplers"].items():
        print(f"{name}: queries per sample")
        for variant, entry in variants.items():
            print(
                f"  {variant:18s} {entry['queries_per_sample']:7.1f} "
                f"({entry['samples']} samples, cost {entry['query_cost']})"
            )
    for name, entry in record["ws_bw_batch"].items():
        print(
            f"{name}: ws-bw batch K={entry['k']} "
            f"{entry['timing']['speedup']:.1f}x over scalar, "
            f"cost {entry['batch_query_cost']} == {entry['scalar_query_cost']}"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
