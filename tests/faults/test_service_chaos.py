"""A service campaign behind the fault layer survives checkpoint and resume.

The two-tenant campaign of ``examples/service_quickstart.py`` runs behind
``ResilientAPI(FaultyAPI(api, storm))``, where the storm is
``benchmarks/bench_faults.py``'s: errors on calls 2–4, a 20 s rate limit
on call 8, and 2.0 ± 0.3 s slow responses from call 10.  Retries settle
from the §2.4 cache, so the storm costs simulated time, never queries.
A checkpoint taken at an epoch boundary and resumed over a *fresh* fault
wrapper (whose call index restarts, so the storm fires again) finishes
with the uninterrupted chaos run's partial estimates and per-tenant
charges, and a balanced ledger.

At any crawl concurrency the chaos run charges its fault-free twin's
queries, one raw call per query.  Only at concurrency 1 does it also buy
the same nodes, discover the same rows in the same order and stream the
same partials: at 4, slow responses reorder the frontier.
"""

import numpy as np
import pytest

from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig
from repro.crawl.clock import drive
from repro.datasets import ba_synthetic
from repro.faults import FaultPlan, FaultRule, FaultyAPI
from repro.osn import ResilientAPI, RetryPolicy
from repro.osn.api import SocialNetworkAPI
from repro.service import SamplingService, ServiceConfig

LATENCY = [1.0, 0.25, 0.5, 2.0]

WALK = WalkEstimateConfig(
    walk_length=6,
    crawl_hops=0,
    backward_repetitions=4,
    refine_repetitions=0,
    calibration_walks=5,
)

STORM = FaultPlan(
    rules=(
        FaultRule(kind="error", first_call=2, last_call=4),
        FaultRule(kind="rate_limit", delay=20.0, first_call=8, last_call=8),
        FaultRule(kind="slow", delay=2.0, jitter=0.3, first_call=10),
    ),
    seed=7,
)

POLICY = RetryPolicy(max_attempts=6, base_backoff=0.5, jitter=0.0)


@pytest.fixture(scope="module")
def hidden():
    return ba_synthetic(nodes=400, m=4, seed=7).graph.relabeled()


def behind_storm(api):
    return ResilientAPI(FaultyAPI(api, STORM), POLICY, seed=1)


def make_service(api, concurrency=4):
    config = ServiceConfig(rows_per_epoch=40, concurrency=concurrency)
    return SamplingService(api, 0, config=config, latency=LATENCY, seed=7)


def submit_tenants(service):
    for tenant in ("alice", "bob"):
        service.submit_nowait(
            EstimationJobSpec(
                design="srw",
                samples=30,
                error_target=0.8,
                query_budget=150,
                tenant=tenant,
                walk=WALK,
                engine=EngineConfig(backend="batch"),
            )
        )


def step(service):
    return drive(service.clock, service.step())


def finish(service):
    while service.scheduler.has_work:
        step(service)


def partials(service):
    return {
        job_id: [(partial.epoch, partial.estimate) for partial in job.partials]
        for job_id, job in sorted(service.jobs.items())
    }


@pytest.fixture(scope="module")
def chaos_run(hidden):
    """The uninterrupted campaign through the storm."""
    api = SocialNetworkAPI(hidden)
    wrapped = behind_storm(api)
    with make_service(wrapped) as service:
        submit_tenants(service)
        finish(service)
        service.ledger.assert_balanced()
        return {
            "partials": partials(service),
            "charges": service.ledger.charges(),
            "query_cost": api.query_cost,
            "raw_calls": api.raw_calls,
            "injected": dict(wrapped.api.injected),
            "retries": wrapped.retries,
        }


def test_storm_fires_and_charges_the_clean_cost(hidden, chaos_run):
    assert chaos_run["injected"] == {"error": 3, "rate_limit": 1, "slow": 29}
    assert chaos_run["retries"] == 4
    clean_api = SocialNetworkAPI(hidden)
    with make_service(clean_api) as clean:
        submit_tenants(clean)
        finish(clean)
        clean_charges = clean.ledger.charges()
    assert chaos_run["query_cost"] == clean_api.query_cost == 270
    assert chaos_run["charges"] == clean_charges == {"alice": 150, "bob": 120}


@pytest.mark.parametrize("epochs", [1, 2, 3, 4])
def test_resume_over_a_fresh_fault_wrapper(hidden, chaos_run, epochs):
    with make_service(behind_storm(SocialNetworkAPI(hidden))) as service:
        submit_tenants(service)
        for _ in range(epochs):
            step(service)
        assert service.scheduler.has_work
        document = service.checkpoint()
    fresh = SocialNetworkAPI(hidden)
    wrapped = behind_storm(fresh)
    with SamplingService.resume(wrapped, document, latency=LATENCY) as resumed:
        finish(resumed)
        resumed.ledger.assert_balanced()
        assert partials(resumed) == chaos_run["partials"]
        assert resumed.ledger.charges() == chaos_run["charges"]
    assert fresh.query_cost == chaos_run["query_cost"]
    # The fresh wrapper's call index restarted: the storm fired again.
    assert wrapped.api.injected["error"] == 3
    assert wrapped.retries > 0


def test_storm_charges_each_query_in_one_raw_call(chaos_run):
    # Retries settle from the §2.4 cache: no node is fetched twice.
    assert chaos_run["raw_calls"] == chaos_run["query_cost"] == 270


def test_at_concurrency_one_the_chaos_run_equals_its_clean_twin(hidden):
    # At concurrency 4 slow responses reorder the crawl frontier, and the
    # tenant budgets buy other nodes; one batch in flight keeps the order.
    runs = {}
    for name, surface in (("clean", lambda api: api), ("chaos", behind_storm)):
        api = SocialNetworkAPI(hidden)
        wrapped = surface(api)
        with make_service(wrapped, concurrency=1) as service:
            submit_tenants(service)
            finish(service)
            service.ledger.assert_balanced()
            runs[name] = (
                api.counter.state(),
                api.discovered.snapshot_rows(),
                partials(service),
            )
    assert wrapped.retries > 0
    clean_counter, clean_rows, clean_partials = runs["clean"]
    chaos_counter, chaos_rows, chaos_partials = runs["chaos"]
    assert chaos_counter == clean_counter
    assert chaos_rows.keys() == clean_rows.keys()
    for key, rows in clean_rows.items():
        assert np.array_equal(chaos_rows[key], rows), key
    assert chaos_partials == clean_partials
