"""Async crawl pipeline vs. the serial crawl, on the simulated clock.

Two modes share this file:

* **pytest mode** (``pytest benchmarks/bench_async_crawl.py``) — asserts
  the acceptance property at a quick scale: the pipeline at
  concurrency ≥ 4 completes the same crawl (same coverage, same query
  cost) in less simulated wall-clock than the serial crawl.
* **CLI artifact mode** (``python benchmarks/bench_async_crawl.py --out
  BENCH_asynccrawl.json``) — one self-contained record CI uploads: the
  serial baseline plus the pipeline at a concurrency sweep, all on the
  same hidden graph and latency script.

Honesty note: the headline metric is **simulated** seconds on the
:class:`~repro.crawl.clock.FakeClock` — per-batch network latency plus
mirrored rate-limit waits, which is what dominates a real campaign
against a rate-limited OSN and what the concurrency exists to overlap.
It is deterministic per seed, so the committed artifact is reproducible
bit for bit.  Real (process) seconds sit in each row's ``timing`` block
for completeness; at these scales they measure Python overhead, not the
phenomenon.  Query cost is recorded per row to prove the overlap is
free: every configuration pays exactly the same number of unique-node
queries.  Each pipeline epoch's estimate is the mean true degree over
the rows fetched so far, so a completed crawl reports the hidden graph's
average degree exactly.
"""

import argparse
import time

from repro.bench import write_artifact
from repro.core.config import CrawlPipelineConfig
from repro.crawl import AsyncCrawler, CrawlPipeline, FakeClock
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI

LATENCY_SCRIPT = [1.0, 0.25, 0.5, 2.0, 0.75, 1.5]


def _hidden_graph(nodes: int, attach: int, seed: int):
    return barabasi_albert_graph(nodes, attach, seed=seed).relabeled()


def time_serial_baseline(graph, batch_size: int) -> dict:
    """Crawl everything at concurrency 1: the baseline."""
    api = SocialNetworkAPI(graph)
    clock = FakeClock()
    began = time.perf_counter()
    crawler = AsyncCrawler(
        api,
        0,
        concurrency=1,
        batch_size=batch_size,
        clock=clock,
        latency=LATENCY_SCRIPT,
    )
    crawler.crawl()
    elapsed = time.perf_counter() - began
    return {
        "mode": "serial_crawl",
        "concurrency": 1,
        "simulated_seconds": clock.now,
        "timing": {"real_seconds": elapsed},
        "query_cost": api.query_cost,
        "raw_calls": api.raw_calls,
    }


def time_pipeline(
    graph, concurrency: int, batch_size: int, rows_per_epoch: int
) -> dict:
    """The crawl pipeline at one concurrency setting."""
    api = SocialNetworkAPI(graph)
    clock = FakeClock()
    config = CrawlPipelineConfig(
        concurrency=concurrency,
        batch_size=batch_size,
        rows_per_epoch=rows_per_epoch,
    )
    began = time.perf_counter()
    with CrawlPipeline(
        api, 0, config=config, clock=clock, latency=LATENCY_SCRIPT
    ) as pipeline:
        result = pipeline.run()
    elapsed = time.perf_counter() - began
    true_value = 2 * graph.number_of_edges() / graph.number_of_nodes()
    return {
        "mode": "crawl_pipeline",
        "concurrency": concurrency,
        "simulated_seconds": result.simulated_seconds,
        "timing": {"real_seconds": elapsed},
        "query_cost": result.query_cost,
        "raw_calls": result.epochs[-1].raw_calls,
        "epochs": len(result.epochs),
        "estimates": [round(r.estimate, 6) for r in result.epochs],
        "final_estimate": result.final_estimate,
        "true_average_degree": true_value,
        "final_relative_error": abs(result.final_estimate - true_value) / true_value,
    }


def run_comparison(
    nodes: int = 1500,
    attach: int = 4,
    batch_size: int = 16,
    rows_per_epoch: int = 250,
    concurrencies=(1, 2, 4, 8),
    seed: int = 42,
) -> dict:
    graph = _hidden_graph(nodes, attach, seed)
    serial = time_serial_baseline(graph, batch_size)
    record = {
        "benchmark": "async_crawl_pipeline",
        "graph": {
            "model": "barabasi_albert",
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "seed": seed,
        },
        "latency_script": LATENCY_SCRIPT,
        "batch_size": batch_size,
        "rows_per_epoch": rows_per_epoch,
        "serial": serial,
        "pipeline": {},
    }
    for concurrency in concurrencies:
        timing = time_pipeline(graph, concurrency, batch_size, rows_per_epoch)
        timing["speedup_vs_serial"] = (
            serial["simulated_seconds"] / timing["simulated_seconds"]
        )
        record["pipeline"][str(concurrency)] = timing
    return record


# ----------------------------------------------------------------------
# pytest mode
# ----------------------------------------------------------------------
def test_pipeline_beats_serial_baseline_at_concurrency_4():
    record = run_comparison(nodes=300, rows_per_epoch=60, concurrencies=(4,))
    wide = record["pipeline"]["4"]
    # Same coverage, same cost, strictly less simulated wall-clock.
    assert wide["query_cost"] == record["serial"]["query_cost"]
    assert wide["epochs"] >= 3
    assert wide["simulated_seconds"] < record["serial"]["simulated_seconds"]
    assert wide["speedup_vs_serial"] > 1.5


def test_record_is_deterministic_per_seed():
    kwargs = dict(nodes=200, rows_per_epoch=50, concurrencies=(2,), seed=9)
    a, b = run_comparison(**kwargs), run_comparison(**kwargs)
    a["serial"].pop("timing"), b["serial"].pop("timing")
    a["pipeline"]["2"].pop("timing"), b["pipeline"]["2"].pop("timing")
    assert a == b


# ----------------------------------------------------------------------
# CLI artifact mode
# ----------------------------------------------------------------------
def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Async crawl pipeline vs. the serial crawl"
    )
    parser.add_argument("--out", default="BENCH_asynccrawl.json")
    parser.add_argument("--nodes", type=int, default=1500)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--rows-per-epoch", type=int, default=250)
    parser.add_argument("--concurrency", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny budget for CI smoke runs (overrides nodes/rows)",
    )
    args = parser.parse_args(argv)
    if any(c < 1 for c in args.concurrency):
        parser.error(f"--concurrency must all be >= 1, got {args.concurrency}")
    if args.quick:
        args.nodes, args.rows_per_epoch = 400, 80
    record = run_comparison(
        nodes=args.nodes,
        batch_size=args.batch_size,
        rows_per_epoch=args.rows_per_epoch,
        concurrencies=tuple(args.concurrency),
        seed=args.seed,
    )
    write_artifact(record, args.out, scale="smoke" if args.quick else "full")
    serial = record["serial"]
    print(
        f"serial crawl: {serial['simulated_seconds']:.1f} sim-s "
        f"({serial['query_cost']} queries)"
    )
    for concurrency, timing in record["pipeline"].items():
        print(
            f"  pipeline c={concurrency}: {timing['simulated_seconds']:.1f} sim-s "
            f"({timing['speedup_vs_serial']:.2f}x), {timing['epochs']} epochs, "
            f"final rel. error {timing['final_relative_error']:.3f}"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
