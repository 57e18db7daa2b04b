"""Raw throughput benchmarks for the hot paths, scalar vs. batch.

Two modes share this file:

* **pytest-benchmark tests** (``pytest benchmarks/bench_throughput.py``) —
  statistical timing of the per-operation costs that dominate every
  experiment: forward walk steps, backward-estimate realizations, full
  WALK-ESTIMATE samples, and the batch engine at several widths.
* **CLI artifact mode** (``python benchmarks/bench_throughput.py --out
  BENCH_throughput.json``) — one self-contained comparison of the scalar
  walker against the vectorized batch engine at K ∈ {1, 64, 1024},
  reporting walks/sec, steps/sec, and the batch/scalar speedup (each
  row's ``timing`` block) as a JSON record CI uploads as an artifact.
  ``--quick`` shrinks the budget for smoke runs.
"""

import argparse
import time

import numpy as np
import pytest

from repro.bench import write_artifact
from repro.core.config import WalkEstimateConfig
from repro.core.crawl import InitialCrawl
from repro.core.unbiased import unbiased_estimate_batch
from repro.core.walk_estimate import we_full_sampler
from repro.core.weighted import ForwardHistory, weighted_backward_estimate
from repro.errors import ConfigurationError
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI
from repro.rng import ensure_rng
from repro.walks.batch import run_walk_batch
from repro.walks.kernels import require_backend
from repro.walks.transitions import (
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)
from repro.walks.walker import run_walk


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(2000, 8, seed=42).relabeled()


@pytest.fixture(scope="module")
def csr(graph):
    return graph.compile()


def test_srw_walk_throughput(benchmark, graph):
    rng = ensure_rng(1)
    result = benchmark(lambda: run_walk(graph, SimpleRandomWalk(), 0, 200, seed=rng))
    assert result.steps == 200


def test_mhrw_walk_throughput(benchmark, graph):
    rng = ensure_rng(2)
    result = benchmark(
        lambda: run_walk(graph, MetropolisHastingsWalk(), 0, 200, seed=rng)
    )
    assert result.steps == 200


def test_srw_batch_walk_throughput(benchmark, csr):
    rng = ensure_rng(1)
    starts = np.zeros(256, dtype=np.int64)
    result = benchmark(
        lambda: run_walk_batch(csr, SimpleRandomWalk(), starts, 200, seed=rng)
    )
    assert result.steps == 200 and result.k == 256


def test_mhrw_batch_walk_throughput(benchmark, csr):
    rng = ensure_rng(2)
    starts = np.zeros(256, dtype=np.int64)
    result = benchmark(
        lambda: run_walk_batch(csr, MetropolisHastingsWalk(), starts, 200, seed=rng)
    )
    assert result.steps == 200 and result.k == 256


def test_lazy_srw_batch_walk_throughput(benchmark, csr):
    rng = ensure_rng(4)
    design = LazyWalk(SimpleRandomWalk(), 0.5)
    starts = np.zeros(256, dtype=np.int64)
    result = benchmark(lambda: run_walk_batch(csr, design, starts, 200, seed=rng))
    assert result.steps == 200 and result.k == 256


def test_maxdeg_batch_walk_throughput(benchmark, csr):
    rng = ensure_rng(5)
    design = MaxDegreeWalk(csr.max_degree())
    starts = np.zeros(256, dtype=np.int64)
    result = benchmark(lambda: run_walk_batch(csr, design, starts, 200, seed=rng))
    assert result.steps == 200 and result.k == 256


def test_backward_estimate_throughput(benchmark, graph):
    rng = ensure_rng(3)
    design = SimpleRandomWalk()
    crawl = InitialCrawl(SocialNetworkAPI(graph), design, 0, hops=2)
    history = ForwardHistory(0, 9)
    for _ in range(30):
        history.record(run_walk(graph, design, 0, 9, seed=rng))
    value = benchmark(
        lambda: weighted_backward_estimate(
            graph, design, 1500, 0, 9, history=history, crawl=crawl, seed=rng
        )
    )
    assert value >= 0.0


def test_batch_backward_estimate_throughput(benchmark, csr):
    rng = ensure_rng(3)
    nodes = np.arange(0, 1500, 25, dtype=np.int64)
    values = benchmark(
        lambda: unbiased_estimate_batch(
            csr, SimpleRandomWalk(), nodes, 0, 9, seed=rng, repetitions=12
        )
    )
    assert values.shape == nodes.shape


def test_walk_estimate_sample_throughput(benchmark, graph):
    design = SimpleRandomWalk()
    config = WalkEstimateConfig(diameter_hint=4, crawl_hops=1, calibration_walks=5)

    def one_batch():
        api = SocialNetworkAPI(graph)
        return we_full_sampler(design, config).sample(api, 0, count=10, seed=7)

    batch = benchmark(one_batch)
    assert len(batch) == 10


# ----------------------------------------------------------------------
# CLI artifact mode: scalar vs. batch engine comparison
# ----------------------------------------------------------------------
def _time_scalar(graph, design, walks, steps, seed) -> dict:
    """Time *walks* independent scalar walks; one shared generator."""
    rng = ensure_rng(seed)
    begin = time.perf_counter()
    for _ in range(walks):
        run_walk(graph, design, 0, steps, seed=rng)
    elapsed = time.perf_counter() - begin
    return {
        "walks": walks,
        "timing": {
            "seconds": elapsed,
            "walks_per_sec": walks / elapsed,
            "steps_per_sec": walks * steps / elapsed,
        },
    }


def _time_batch(csr, design, k, rounds, steps, seed, backend=None) -> dict:
    """Time *rounds* batch launches of width *k* each."""
    rng = ensure_rng(seed)
    starts = np.zeros(k, dtype=np.int64)
    begin = time.perf_counter()
    for _ in range(rounds):
        run_walk_batch(csr, design, starts, steps, seed=rng, backend=backend)
    elapsed = time.perf_counter() - begin
    walks = k * rounds
    return {
        "k": k,
        "rounds": rounds,
        "walks": walks,
        "timing": {
            "seconds": elapsed,
            "walks_per_sec": walks / elapsed,
            "steps_per_sec": walks * steps / elapsed,
        },
    }


def run_comparison(
    nodes: int = 2000,
    attach: int = 8,
    steps: int = 200,
    scalar_walks: int = 200,
    widths=(1, 64, 1024),
    seed: int = 42,
    kernel_backend: str = "numpy",
) -> dict:
    """Scalar-vs-batch walk throughput on the synthetic benchmark graph."""
    graph = barabasi_albert_graph(nodes, attach, seed=seed).relabeled()
    csr = graph.compile()
    designs = {
        "srw": SimpleRandomWalk(),
        "mhrw": MetropolisHastingsWalk(),
        "lazy-srw": LazyWalk(SimpleRandomWalk(), 0.5),
        "maxdeg": MaxDegreeWalk(graph.max_degree()),
    }
    record = {
        "benchmark": "walk_throughput",
        "kernel_backend": kernel_backend,
        "graph": {
            "model": "barabasi_albert",
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "seed": seed,
        },
        "steps_per_walk": steps,
        "designs": {},
    }
    # A JIT backend compiles its trajectory kernel on first call; pay
    # that once here so no timed row carries the compilation.
    run_walk_batch(
        csr,
        LazyWalk(SimpleRandomWalk(), 0.5),
        np.zeros(1, dtype=np.int64),
        1,
        seed=0,
        backend=kernel_backend,
    )
    for name, design in designs.items():
        scalar = _time_scalar(graph, design, scalar_walks, steps, seed)
        batch = {}
        for k in widths:
            # Match total walk work to the scalar run where K allows it,
            # with at least one round per width.
            rounds = max(1, scalar_walks // k)
            row = _time_batch(
                csr, design, k, rounds, steps, seed, backend=kernel_backend
            )
            row["timing"]["speedup_steps_per_sec"] = (
                row["timing"]["steps_per_sec"] / scalar["timing"]["steps_per_sec"]
            )
            batch[str(k)] = row
        record["designs"][name] = {"scalar": scalar, "batch": batch}
    return record


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Scalar vs. batch walk-engine throughput comparison"
    )
    parser.add_argument("--out", default="BENCH_throughput.json")
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--scalar-walks", type=int, default=200)
    parser.add_argument(
        "--k", type=int, nargs="+", default=[1, 64, 1024], dest="widths"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--backend",
        choices=("numpy", "native"),
        default="numpy",
        help="kernel backend timed in the batch rows (native needs numba; "
        "the artifact's record carries the backend as kernel_backend)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny budget for CI smoke runs (overrides nodes/steps/walks)",
    )
    args = parser.parse_args(argv)
    if any(k < 1 for k in args.widths):
        parser.error(f"--k widths must be >= 1, got {args.widths}")
    if args.quick:
        args.nodes, args.steps, args.scalar_walks = 500, 50, 50
    try:
        # A backend this host cannot run is refused up front, before any
        # row is timed: the numbers must never be labeled with a backend
        # that never ran.
        require_backend(args.backend)
    except ConfigurationError as error:
        parser.error(str(error))
    record = run_comparison(
        nodes=args.nodes,
        steps=args.steps,
        scalar_walks=args.scalar_walks,
        widths=tuple(args.widths),
        seed=args.seed,
        kernel_backend=args.backend,
    )
    write_artifact(record, args.out, scale="smoke" if args.quick else "full")
    print(f"kernel backend: {args.backend}")
    for name, entry in record["designs"].items():
        scalar = entry["scalar"]["timing"]["steps_per_sec"]
        print(f"{name}: scalar {scalar:,.0f} steps/sec")
        for k, row in entry["batch"].items():
            timing = row["timing"]
            print(
                f"  K={k:>5}: {timing['steps_per_sec']:,.0f} steps/sec "
                f"({timing['speedup_steps_per_sec']:.1f}x)"
            )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
