"""Multi-tenant service vs. isolated crawls: the shared-cache dividend.

Two modes share this file:

* **pytest mode** (``pytest benchmarks/bench_service.py``) — asserts the
  acceptance property at a quick scale: N concurrent tenants served by
  one :class:`~repro.service.server.SamplingService` all reach the same
  per-tenant error target while spending measurably fewer total
  unique-node queries than N isolated crawl-then-walk runs, and the
  per-tenant ledger charges sum exactly to the global
  :class:`~repro.osn.accounting.QueryCounter` charge.
* **CLI artifact mode** (``python benchmarks/bench_service.py --out
  BENCH_service.json``) — one self-contained record CI uploads: the
  isolated baseline plus the shared service at a tenant-count sweep, all
  on the same hidden graph, latency script, and seed.

The mechanism is §2.4 verbatim: a row any tenant's crawl driver pays for
lands in the shared :class:`~repro.graphs.discovered.DiscoveredGraph`
and is free for everyone afterwards.  Isolated tenants each pay for
their own copy of (roughly) the same frontier; shared tenants pay for it
once and split the bill.  Everything runs on a
:class:`~repro.crawl.clock.FakeClock`, so the committed artifact is
reproducible bit for bit.
"""

import argparse
import time

from repro.bench import write_artifact
from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI
from repro.service import SamplingService, ServiceConfig

LATENCY_SCRIPT = [1.0, 0.25, 0.5, 2.0, 0.75, 1.5]

WALK = WalkEstimateConfig(
    walk_length=6,
    crawl_hops=0,
    backward_repetitions=4,
    refine_repetitions=0,
    calibration_walks=5,
)


def _hidden_graph(nodes: int, attach: int, seed: int):
    return barabasi_albert_graph(nodes, attach, seed=seed).relabeled()


def tenant_spec(
    tenant: str, error_target: float, budget: int, samples: int
) -> EstimationJobSpec:
    return EstimationJobSpec(
        design="srw",
        samples=samples,
        error_target=error_target,
        query_budget=budget,
        tenant=tenant,
        walk=WALK,
        engine=EngineConfig(backend="batch"),
    )


def _service(graph, rows_per_epoch: int, seed: int) -> SamplingService:
    return SamplingService(
        SocialNetworkAPI(graph),
        0,
        config=ServiceConfig(rows_per_epoch=rows_per_epoch, max_rounds_per_job=12),
        latency=LATENCY_SCRIPT,
        seed=seed,
    )


def _result_row(result) -> dict:
    return {
        "tenant": result.tenant,
        "state": result.state.value,
        "met_target": result.met_target,
        "reason": result.reason,
        "estimate": round(result.estimate, 6),
        "stderr": round(result.stderr, 6),
        "rounds": result.rounds,
        "samples": result.samples,
        "query_cost": result.query_cost,
    }


def run_shared(
    graph,
    n_tenants: int,
    error_target: float,
    budget: int,
    samples: int,
    rows_per_epoch: int,
    seed: int,
) -> dict:
    """All N tenants multiplexed over one service and one discovered graph."""
    specs = [
        tenant_spec(f"tenant-{i}", error_target, budget, samples)
        for i in range(n_tenants)
    ]
    began = time.perf_counter()
    with _service(graph, rows_per_epoch, seed) as service:
        results = service.run(specs)
        service.ledger.assert_balanced()
        charges = service.ledger.charges()
        record = {
            "mode": "shared_service",
            "tenants": n_tenants,
            "simulated_seconds": service.clock.now,
            "timing": {"real_seconds": time.perf_counter() - began},
            "total_query_cost": service.api.query_cost,
            "ledger": charges,
            "ledger_total": sum(charges.values()),
            "epochs": service.metrics.epochs_published.value,
            "rounds": service.metrics.rounds.value,
            "all_met_target": all(r.met_target for r in results),
            "jobs": [_result_row(r) for r in results],
        }
    return record


def run_isolated(
    graph,
    n_tenants: int,
    error_target: float,
    budget: int,
    samples: int,
    rows_per_epoch: int,
    seed: int,
) -> dict:
    """Each tenant crawls its own private copy of the graph: the baseline.

    Every run is a fresh service with a fresh API (fresh cache, fresh
    counter) — exactly what N uncoordinated third parties would do.
    """
    runs = []
    began = time.perf_counter()
    for i in range(n_tenants):
        spec = tenant_spec(f"tenant-{i}", error_target, budget, samples)
        with _service(graph, rows_per_epoch, seed + i) as service:
            (result,) = service.run([spec])
            runs.append(
                {
                    **_result_row(result),
                    "simulated_seconds": service.clock.now,
                }
            )
    return {
        "mode": "isolated_runs",
        "tenants": n_tenants,
        "timing": {"real_seconds": time.perf_counter() - began},
        "total_query_cost": sum(r["query_cost"] for r in runs),
        "simulated_seconds": sum(r["simulated_seconds"] for r in runs),
        "all_met_target": all(r["met_target"] for r in runs),
        "jobs": runs,
    }


def run_comparison(
    nodes: int = 1500,
    attach: int = 4,
    tenant_counts=(2, 4, 8),
    error_target: float = 1.0,
    budget: int = 800,
    samples: int = 60,
    rows_per_epoch: int = 80,
    seed: int = 42,
) -> dict:
    graph = _hidden_graph(nodes, attach, seed)
    record = {
        "benchmark": "sampling_service_multi_tenant",
        "graph": {
            "model": "barabasi_albert",
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "seed": seed,
        },
        "latency_script": LATENCY_SCRIPT,
        "error_target": error_target,
        "per_tenant_budget": budget,
        "samples_per_round": samples,
        "rows_per_epoch": rows_per_epoch,
        "sweep": {},
    }
    for n in tenant_counts:
        shared = run_shared(
            graph, n, error_target, budget, samples, rows_per_epoch, seed
        )
        isolated = run_isolated(
            graph, n, error_target, budget, samples, rows_per_epoch, seed
        )
        saved = isolated["total_query_cost"] - shared["total_query_cost"]
        record["sweep"][str(n)] = {
            "shared": shared,
            "isolated": isolated,
            "queries_saved": saved,
            "savings_ratio": saved / isolated["total_query_cost"],
        }
    return record


# ----------------------------------------------------------------------
# pytest mode
# ----------------------------------------------------------------------
def test_four_tenants_beat_four_isolated_runs():
    record = run_comparison(
        nodes=400,
        tenant_counts=(4,),
        error_target=0.8,
        budget=300,
        samples=30,
        rows_per_epoch=40,
        seed=7,
    )
    sweep = record["sweep"]["4"]
    shared, isolated = sweep["shared"], sweep["isolated"]
    # Same per-tenant accuracy bar cleared on both sides...
    assert shared["all_met_target"]
    assert isolated["all_met_target"]
    # ...for measurably fewer total unique-node queries when shared.
    assert shared["total_query_cost"] < isolated["total_query_cost"]
    assert sweep["savings_ratio"] > 0.25
    # The ledger accounts for every charged row, to the node.
    assert shared["ledger_total"] == shared["total_query_cost"]


def test_record_is_deterministic_per_seed():
    kwargs = dict(
        nodes=300,
        tenant_counts=(2,),
        error_target=0.8,
        budget=150,
        samples=30,
        rows_per_epoch=40,
        seed=9,
    )

    def scrub(record):
        record["sweep"]["2"]["shared"].pop("timing")
        record["sweep"]["2"]["isolated"].pop("timing")
        return record

    assert scrub(run_comparison(**kwargs)) == scrub(run_comparison(**kwargs))


# ----------------------------------------------------------------------
# CLI artifact mode
# ----------------------------------------------------------------------
def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Multi-tenant sampling service vs. isolated crawls"
    )
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--nodes", type=int, default=1500)
    parser.add_argument("--tenants", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--error-target", type=float, default=1.0)
    parser.add_argument("--budget", type=int, default=800)
    parser.add_argument("--samples", type=int, default=60)
    parser.add_argument("--rows-per-epoch", type=int, default=80)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny budget for CI smoke runs (overrides nodes/tenants)",
    )
    args = parser.parse_args(argv)
    if any(n < 1 for n in args.tenants):
        parser.error(f"--tenants must all be >= 1, got {args.tenants}")
    if args.quick:
        args.nodes, args.tenants = 400, [4]
        args.error_target, args.budget = 0.8, 300
        args.samples, args.rows_per_epoch = 30, 40
    record = run_comparison(
        nodes=args.nodes,
        tenant_counts=tuple(args.tenants),
        error_target=args.error_target,
        budget=args.budget,
        samples=args.samples,
        rows_per_epoch=args.rows_per_epoch,
        seed=args.seed,
    )
    write_artifact(record, args.out, scale="smoke" if args.quick else "full")
    for n, sweep in record["sweep"].items():
        shared, isolated = sweep["shared"], sweep["isolated"]
        print(
            f"N={n}: shared {shared['total_query_cost']} queries vs "
            f"isolated {isolated['total_query_cost']} "
            f"({sweep['savings_ratio']:.1%} saved), "
            f"all targets met: {shared['all_met_target']}"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
