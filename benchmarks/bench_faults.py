"""Fault injection: chaos campaigns cost time, never money or coverage.

Two modes share this file:

* **pytest mode** (``pytest benchmarks/bench_faults.py``) — asserts the
  resilience acceptance pins at a quick scale: a crawl through a scripted
  fault storm (behind :class:`~repro.osn.resilience.ResilientAPI`) pays
  exactly the fault-free query cost and discovers exactly the fault-free
  rows, and a sharded walk round with a worker crash recovers
  bit-identically to a crash-free round.
* **CLI artifact mode** (``python benchmarks/bench_faults.py --out
  BENCH_faults.json``) — one self-contained record CI uploads: fault-free
  vs. chaos crawl campaigns on the same hidden graph, plus the
  crash-recovery pin.

Honesty note: every headline metric here is **deterministic** — simulated
seconds on the :class:`~repro.crawl.clock.FakeClock`, §2.4 query costs,
injected-fault counts, retry totals, and a trajectory checksum.  The
committed artifact is reproducible bit for bit; CI runs the campaign
twice and byte-diffs the ``--replay-out`` document to prove it.  Real
(process) seconds ride along in ``timing`` blocks, which the replay
document and the regression gate both leave out.
"""

import argparse
import json
import time

import numpy as np

from repro.bench import write_artifact
from repro.crawl import AsyncCrawler
from repro.faults import FaultPlan, FaultRule, FaultyAPI
from repro.graphs.generators import barabasi_albert_graph
from repro.osn import ResilientAPI, RetryPolicy
from repro.osn.api import SocialNetworkAPI
from repro.walks.parallel import ShardedWalkEngine
from repro.walks.transitions import SimpleRandomWalk

LATENCY_SCRIPT = [1.0, 0.25, 0.5, 2.0, 0.75, 1.5]

POLICY = RetryPolicy(max_attempts=6, base_backoff=0.5, jitter=0.0)


def _hidden_graph(nodes: int, attach: int, seed: int):
    return barabasi_albert_graph(nodes, attach, seed=seed).relabeled()


def storm_plan(plan_seed: int) -> FaultPlan:
    """The scripted storm every chaos campaign replays: a transient-error
    burst early, a rate-limit spike mid-crawl, then chronically slow
    responses with jittered delays."""
    return FaultPlan(
        rules=(
            FaultRule(kind="error", first_call=2, last_call=4),
            FaultRule(kind="rate_limit", delay=20.0, first_call=8, last_call=8),
            FaultRule(kind="slow", delay=2.0, jitter=0.3, first_call=10),
        ),
        seed=plan_seed,
    )


def crawl_fault_free(graph, concurrency: int, batch_size: int) -> dict:
    """The fault-free twin the chaos campaign is measured against."""
    api = SocialNetworkAPI(graph)
    began = time.perf_counter()
    crawler = AsyncCrawler(
        api, 0, concurrency=concurrency, batch_size=batch_size, latency=LATENCY_SCRIPT
    )
    crawler.crawl()
    return {
        "mode": "fault_free",
        "simulated_seconds": crawler.clock.now,
        "timing": {"real_seconds": time.perf_counter() - began},
        "query_cost": api.query_cost,
        "rows": api.discovered.fetched_count,
        "batches": crawler.batches_issued,
    }


def crawl_chaos(graph, concurrency: int, batch_size: int, plan: FaultPlan) -> dict:
    """The same campaign through the storm, behind the resilient layer."""
    api = SocialNetworkAPI(graph)
    resilient = ResilientAPI(FaultyAPI(api, plan), POLICY, seed=1)
    began = time.perf_counter()
    crawler = AsyncCrawler(
        resilient,
        0,
        concurrency=concurrency,
        batch_size=batch_size,
        latency=LATENCY_SCRIPT,
    )
    crawler.crawl()
    return {
        "mode": "chaos",
        "simulated_seconds": crawler.clock.now,
        "timing": {"real_seconds": time.perf_counter() - began},
        "query_cost": api.query_cost,
        "rows": api.discovered.fetched_count,
        "batches": crawler.batches_issued,
        "retries": resilient.retries,
        "failed_attempts": resilient.failed_attempts,
        "injected": dict(resilient.api.injected),
    }


def run_crash_recovery(graph, walks: int, steps: int, seed: int) -> dict:
    """One sharded round with a mid-round worker crash vs. a clean round."""
    starts = np.zeros(walks, dtype=np.int64)
    with ShardedWalkEngine(graph, n_workers=4, mp_context="fork") as engine:
        clean = engine.run_walk_batch(SimpleRandomWalk(), starts, steps, seed=seed)
    with ShardedWalkEngine(graph, n_workers=4, mp_context="fork") as engine:
        engine.schedule_worker_crash(1, 2)
        crashed = engine.run_walk_batch(SimpleRandomWalk(), starts, steps, seed=seed)
        respawns = engine.worker_respawns
    # shard_retries is deliberately NOT recorded: how many sibling
    # futures were in flight when the pool broke is OS-scheduling
    # noise, and every metric here must replay byte-for-byte.
    return {
        "walks": walks,
        "steps": steps,
        "worker_respawns": respawns,
        "recovered_identical": bool(np.array_equal(crashed.paths, clean.paths)),
        "trajectory_checksum": int(clean.paths.sum()),
    }


def run_campaign(
    nodes: int = 1200,
    attach: int = 4,
    concurrency: int = 2,
    batch_size: int = 16,
    walks: int = 256,
    steps: int = 40,
    seed: int = 42,
    plan_seed: int = 7,
) -> dict:
    graph = _hidden_graph(nodes, attach, seed)
    plan = storm_plan(plan_seed)
    fault_free = crawl_fault_free(graph, concurrency, batch_size)
    chaos = crawl_chaos(graph, concurrency, batch_size, plan)
    return {
        "benchmark": "fault_injection",
        "graph": {
            "model": "barabasi_albert",
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "seed": seed,
        },
        "latency_script": LATENCY_SCRIPT,
        "plan": plan.to_dict(),
        "policy": POLICY.to_dict(),
        "crawl": {
            "fault_free": fault_free,
            "chaos": chaos,
            "cost_parity": chaos["query_cost"] == fault_free["query_cost"],
            "row_parity": chaos["rows"] == fault_free["rows"],
            "fault_overhead_simulated": (
                chaos["simulated_seconds"] - fault_free["simulated_seconds"]
            ),
        },
        "crash_recovery": run_crash_recovery(graph, walks, steps, seed),
    }


def replay_document(record: dict) -> dict:
    """The deterministic core of *record*: everything but ``timing``.

    This is what CI byte-diffs across two independent runs — plain JSON,
    no host metadata, no wall-clock noise.
    """

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "timing"}
        return value

    return strip(record)


# ----------------------------------------------------------------------
# pytest mode
# ----------------------------------------------------------------------
QUICK = dict(nodes=300, walks=64, steps=16)


def test_chaos_campaign_pays_fault_free_cost_and_coverage():
    record = run_campaign(**QUICK)
    crawl = record["crawl"]
    assert crawl["cost_parity"] and crawl["row_parity"]
    # The storm actually fired — this is not a vacuous parity.
    assert sum(crawl["chaos"]["injected"].values()) >= 3
    assert crawl["chaos"]["retries"] >= 1
    assert crawl["fault_overhead_simulated"] > 0


def test_crashed_walk_round_recovers_bit_identically():
    record = run_campaign(**QUICK)
    recovery = record["crash_recovery"]
    assert recovery["recovered_identical"]
    assert recovery["worker_respawns"] == 1


def test_replay_document_is_deterministic():
    a, b = run_campaign(**QUICK), run_campaign(**QUICK)
    assert replay_document(a) == replay_document(b)
    assert "real_seconds" not in json.dumps(replay_document(a))


# ----------------------------------------------------------------------
# CLI artifact mode
# ----------------------------------------------------------------------
def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Chaos crawl campaigns and crash-transparent recovery"
    )
    parser.add_argument("--out", default="BENCH_faults.json")
    parser.add_argument("--nodes", type=int, default=1200)
    parser.add_argument("--concurrency", type=int, default=2)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--walks", type=int, default=256)
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--plan-seed", type=int, default=7)
    parser.add_argument(
        "--replay-out",
        default=None,
        help="also write the deterministic replay document (no process "
        "times) for byte-for-byte comparison across runs",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny budget for CI smoke runs (overrides nodes/walks/steps)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.nodes = QUICK["nodes"]
        args.walks, args.steps = QUICK["walks"], QUICK["steps"]
    record = run_campaign(
        nodes=args.nodes,
        concurrency=args.concurrency,
        batch_size=args.batch_size,
        walks=args.walks,
        steps=args.steps,
        seed=args.seed,
        plan_seed=args.plan_seed,
    )
    write_artifact(record, args.out, scale="smoke" if args.quick else "full")
    if args.replay_out is not None:
        with open(args.replay_out, "w", encoding="utf-8") as fh:
            json.dump(replay_document(record), fh, indent=2, sort_keys=True)
            fh.write("\n")
    crawl = record["crawl"]
    print(
        f"fault-free crawl: {crawl['fault_free']['simulated_seconds']:.1f} sim-s "
        f"({crawl['fault_free']['query_cost']} queries)"
    )
    print(
        f"chaos crawl:      {crawl['chaos']['simulated_seconds']:.1f} sim-s "
        f"(+{crawl['fault_overhead_simulated']:.1f} sim-s, "
        f"{sum(crawl['chaos']['injected'].values())} faults, "
        f"{crawl['chaos']['retries']} retries, same cost: {crawl['cost_parity']})"
    )
    recovery = record["crash_recovery"]
    print(
        f"crash recovery:   {recovery['worker_respawns']} respawn(s), "
        f"bit-identical: {recovery['recovered_identical']}"
    )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
