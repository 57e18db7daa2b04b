"""Deterministic chaos: crawl through a fault storm, pay nothing extra.

The resilience stack in one sitting.  A :class:`FaultPlan` scripts a
storm — a transient-error burst, a rate-limit spike, chronically slow
responses — as a seeded, JSON-round-trippable document.  The same
campaign runs twice: once fault-free, once through the storm behind
:class:`ResilientAPI` (retry + backoff + circuit breaker).  The parity
printout is the point: failures cost *simulated time*, never §2.4 query
money or row coverage, and the whole campaign replays bit-for-bit from
the plan's JSON.  A final act crashes a sharded-walk worker mid-round
and shows the recovered trajectories are identical to a crash-free run.

Run:  python examples/fault_injection.py
"""

import numpy as np

from repro.crawl import AsyncCrawler
from repro.faults import FaultPlan, FaultRule, FaultyAPI
from repro.graphs.generators import barabasi_albert_graph
from repro.osn import ResilientAPI, RetryPolicy
from repro.osn.api import SocialNetworkAPI
from repro.walks.parallel import ShardedWalkEngine
from repro.walks.transitions import SimpleRandomWalk

SEED = 42
LATENCY = [1.0, 0.25, 0.5, 2.0, 0.75]  # scripted per-batch network latency


def build_storm() -> FaultPlan:
    """Script the outage: every fault is a rule, every rule is data."""
    plan = FaultPlan(
        rules=(
            # Calls 2-4: the backend drops three responses in a row.
            FaultRule(kind="error", first_call=2, last_call=4),
            # Call 8: a rate-limit rejection with Retry-After: 20s.
            FaultRule(kind="rate_limit", delay=20.0, first_call=8, last_call=8),
            # From call 10 on: every response limps in ~2s late (jittered,
            # but seeded — the jitter replays).
            FaultRule(kind="slow", delay=2.0, jitter=0.3, first_call=10),
        ),
        seed=7,
    )
    document = plan.to_json(indent=2)
    print("The storm, as the wire document an SRE would check in:")
    print(document)
    # The document IS the plan: campaigns replay from the JSON alone.
    assert FaultPlan.from_json(document) == plan
    return plan


def crawl(hidden, plan=None):
    """One crawl campaign; with a plan, the storm rages behind retries."""
    api = SocialNetworkAPI(hidden)
    surface = api
    if plan is not None:
        policy = RetryPolicy(max_attempts=6, base_backoff=0.5, jitter=0.0)
        surface = ResilientAPI(FaultyAPI(api, plan), policy, seed=1)
    # concurrency=1 keeps batch *settlement order* identical under
    # faults, so row-order parity holds exactly; at higher concurrency a
    # retried batch can settle after its in-flight sibling (same rows,
    # same cost, different insertion order).
    crawler = AsyncCrawler(surface, 0, concurrency=1, latency=LATENCY)
    crawler.crawl()
    return api, surface, crawler


def chaos_parity(hidden, plan) -> None:
    reference_api, _, reference = crawl(hidden)
    chaos_api, resilient, chaos = crawl(hidden, plan)

    print("\n                      fault-free      chaos")
    print(
        f"rows discovered     {reference_api.discovered.fetched_count:>10}"
        f" {chaos_api.discovered.fetched_count:>10}"
    )
    print(
        f"query cost (2.4)    {reference_api.query_cost:>10}"
        f" {chaos_api.query_cost:>10}"
    )
    print(
        f"simulated seconds   {reference.clock.now:>10.2f}"
        f" {chaos.clock.now:>10.2f}"
    )
    print(f"faults injected     {'-':>10} {sum(resilient.api.injected.values()):>10}")
    print(f"retries             {'-':>10} {resilient.retries:>10}")

    assert chaos_api.query_cost == reference_api.query_cost
    assert list(chaos_api.discovered._rows) == list(reference_api.discovered._rows)
    print(
        "\nSame rows, same order, same §2.4 bill — the storm cost "
        f"{chaos.clock.now - reference.clock.now:.2f} simulated seconds "
        "and nothing else."
    )


def crash_recovery(hidden) -> None:
    starts = np.zeros(128, dtype=np.int64)
    with ShardedWalkEngine(hidden, n_workers=4, mp_context="fork") as engine:
        clean = engine.run_walk_batch(SimpleRandomWalk(), starts, 25, seed=SEED)
    with ShardedWalkEngine(hidden, n_workers=4, mp_context="fork") as engine:
        engine.schedule_worker_crash(1, 2)  # kill a worker mid-round
        crashed = engine.run_walk_batch(SimpleRandomWalk(), starts, 25, seed=SEED)
        # How many sibling shards the broken pool took down with it is
        # scheduling noise, so only the respawn count is printed.
        print(f"\nWorker killed mid-round: {engine.worker_respawns} pool respawn(s).")
    assert np.array_equal(crashed.paths, clean.paths)
    print(
        "Recovered trajectories are bit-identical to the crash-free "
        "round — per-shard seeding makes re-execution idempotent."
    )


def main() -> None:
    hidden = barabasi_albert_graph(600, 4, seed=SEED).relabeled()
    plan = build_storm()
    chaos_parity(hidden, plan)
    crash_recovery(hidden)


if __name__ == "__main__":
    main()
