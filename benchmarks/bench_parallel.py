"""Sharded-engine throughput: scalar vs. batch vs. multiprocess fan-out.

Two modes share this file:

* **pytest-benchmark tests** (``pytest benchmarks/bench_parallel.py``) —
  statistical timing of one sharded round against the single-process
  batch engine at matched K.
* **CLI artifact mode** (``python benchmarks/bench_parallel.py --out
  BENCH_parallel.json``) — one self-contained record CI uploads: the
  scalar engine, the single-process batch engine, and the sharded engine
  at a sweep of worker counts (default 1/2/4/8), all on the same
  benchmark graph.  Each sharded row's ``timing`` block reports
  steps/sec and its speedup over the batch engine — the scaling curve
  the engine exists for.

Honesty note: the record carries ``host.cpu_count`` (scheduling
affinity).  Walks are embarrassingly parallel, so on an unconstrained
multi-core host the sharded rows approach ``min(workers, cores)``×; on a
core-limited CI runner the curve flattens at the core count — interpret
the committed artifact against its recorded host, not the ideal.

``--quick`` shrinks the budget for smoke runs; ``--workers`` picks the
sweep (CI smoke uses ``--workers 1 2``).
"""

import argparse
import os
import time

import numpy as np
import pytest

from repro.bench import write_artifact
from repro.graphs.generators import barabasi_albert_graph
from repro.rng import ensure_rng
from repro.walks.batch import run_walk_batch
from repro.walks.parallel import ShardedWalkEngine, default_worker_count
from repro.walks.transitions import (
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)
from repro.walks.walker import run_walk


@pytest.fixture(scope="module")
def csr():
    return barabasi_albert_graph(2000, 8, seed=42).relabeled().compile()


def test_batch_round_throughput(benchmark, csr):
    rng = ensure_rng(1)
    starts = np.zeros(1024, dtype=np.int64)
    result = benchmark(
        lambda: run_walk_batch(csr, SimpleRandomWalk(), starts, 100, seed=rng)
    )
    assert result.k == 1024


def test_sharded_round_throughput(benchmark, csr):
    starts = np.zeros(1024, dtype=np.int64)
    with ShardedWalkEngine(csr, n_workers=min(2, default_worker_count())) as engine:
        rng = ensure_rng(1)
        result = benchmark(
            lambda: engine.run_walk_batch(SimpleRandomWalk(), starts, 100, seed=rng)
        )
    assert result.k == 1024


# ----------------------------------------------------------------------
# CLI artifact mode
# ----------------------------------------------------------------------
def _time_scalar(graph, design, walks, steps, seed) -> dict:
    rng = ensure_rng(seed)
    begin = time.perf_counter()
    for _ in range(walks):
        run_walk(graph, design, 0, steps, seed=rng)
    elapsed = time.perf_counter() - begin
    return {
        "walks": walks,
        "timing": {"seconds": elapsed, "steps_per_sec": walks * steps / elapsed},
    }


def _time_batch(csr, design, k, rounds, steps, seed) -> dict:
    rng = ensure_rng(seed)
    starts = np.zeros(k, dtype=np.int64)
    begin = time.perf_counter()
    for _ in range(rounds):
        run_walk_batch(csr, design, starts, steps, seed=rng)
    elapsed = time.perf_counter() - begin
    return {
        "k": k,
        "rounds": rounds,
        "timing": {
            "seconds": elapsed,
            "steps_per_sec": k * rounds * steps / elapsed,
        },
    }


def _time_sharded(csr, design, workers, k, rounds, steps, seed) -> dict:
    starts = np.zeros(k, dtype=np.int64)
    with ShardedWalkEngine(csr, n_workers=workers) as engine:
        # Warm the pool (worker spawn + first-task import) outside the
        # timed region: the engine is a persistent resource, and the
        # steady state is what the scaling claim is about.
        engine.run_walk_batch(design, starts[: min(k, workers)], 1, seed=seed)
        rng = ensure_rng(seed)
        begin = time.perf_counter()
        for _ in range(rounds):
            engine.run_walk_batch(design, starts, steps, seed=rng)
        elapsed = time.perf_counter() - begin
    return {
        "workers": workers,
        "k": k,
        "rounds": rounds,
        "timing": {
            "seconds": elapsed,
            "steps_per_sec": k * rounds * steps / elapsed,
        },
    }


def run_comparison(
    nodes: int = 2000,
    attach: int = 8,
    steps: int = 200,
    k: int = 4096,
    rounds: int = 3,
    scalar_walks: int = 200,
    workers=(1, 2, 4, 8),
    seed: int = 42,
) -> dict:
    """Scalar vs. batch vs. sharded throughput on the benchmark graph."""
    graph = barabasi_albert_graph(nodes, attach, seed=seed).relabeled()
    csr = graph.compile()
    designs = {
        "srw": SimpleRandomWalk(),
        "mhrw": MetropolisHastingsWalk(),
    }
    record = {
        "benchmark": "sharded_walk_throughput",
        "graph": {
            "model": "barabasi_albert",
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "seed": seed,
        },
        "host": {
            "cpu_count": default_worker_count(),
            "pid_cpu_count": os.cpu_count(),
        },
        "steps_per_walk": steps,
        "k": k,
        "designs": {},
    }
    for name, design in designs.items():
        scalar = _time_scalar(graph, design, scalar_walks, steps, seed)
        batch = _time_batch(csr, design, k, rounds, steps, seed)
        scalar_rate = scalar["timing"]["steps_per_sec"]
        batch_rate = batch["timing"]["steps_per_sec"]
        batch["timing"]["speedup_vs_scalar"] = batch_rate / scalar_rate
        sharded = {}
        for w in workers:
            row = _time_sharded(csr, design, w, k, rounds, steps, seed)
            timing = row["timing"]
            timing["speedup_vs_batch"] = timing["steps_per_sec"] / batch_rate
            timing["speedup_vs_scalar"] = timing["steps_per_sec"] / scalar_rate
            sharded[str(w)] = row
        record["designs"][name] = {
            "scalar": scalar,
            "batch": batch,
            "sharded": sharded,
        }
    return record


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Scalar vs. batch vs. sharded walk-engine throughput"
    )
    parser.add_argument("--out", default="BENCH_parallel.json")
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--k", type=int, default=4096)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--scalar-walks", type=int, default=200)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny budget for CI smoke runs (overrides nodes/steps/k)",
    )
    args = parser.parse_args(argv)
    if any(w < 1 for w in args.workers):
        parser.error(f"--workers must all be >= 1, got {args.workers}")
    if args.quick:
        args.nodes, args.steps, args.k = 500, 50, 512
        args.rounds, args.scalar_walks = 2, 50
    record = run_comparison(
        nodes=args.nodes,
        steps=args.steps,
        k=args.k,
        rounds=args.rounds,
        scalar_walks=args.scalar_walks,
        workers=tuple(args.workers),
        seed=args.seed,
    )
    write_artifact(record, args.out, scale="smoke" if args.quick else "full")
    print(f"host cpus: {record['host']['cpu_count']}")
    for name, entry in record["designs"].items():
        print(
            f"{name}: scalar {entry['scalar']['timing']['steps_per_sec']:,.0f} | "
            f"batch {entry['batch']['timing']['steps_per_sec']:,.0f} steps/sec"
        )
        for w, row in entry["sharded"].items():
            timing = row["timing"]
            print(
                f"  workers={w}: {timing['steps_per_sec']:,.0f} steps/sec "
                f"({timing['speedup_vs_batch']:.2f}x batch)"
            )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
