"""Outside documents are read through one rule: refused, never coerced.

Fault plans, retry policies, the service and crawl configs, service
checkpoints and crawler state check every key set and every number or flag
field through :mod:`repro.errors`.  Each probe below is a document that an
earlier reader loaded as something else (a float round count truncated, a
string flag read as true, a NaN backoff kept) or crashed on with a bare
``TypeError``, ``KeyError`` or ``ValueError``.  Each must now be refused
with a :class:`ConfigurationError` (configs) or a :class:`CheckpointError`
(checkpoints) whose message names the field or key.  The round-trip tests
pin the other side: a valid document loads to exactly what was written.
"""

import json
from functools import lru_cache, partial

import pytest

from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig
from repro.core.config import CrawlPipelineConfig
from repro.crawl.clock import drive
from repro.crawl.crawler import AsyncCrawler
from repro.errors import CheckpointError, ConfigurationError
from repro.faults import FaultPlan
from repro.graphs.generators import barabasi_albert_graph
from repro.osn import RetryPolicy
from repro.osn.api import SocialNetworkAPI
from repro.service import SamplingService, ServiceConfig
from repro.service import checkpoint as checkpoint_module

NAN = float("nan")

#: Marks a checkpoint probe that deletes its key instead of setting it.
DROP = object()

WALK = WalkEstimateConfig(
    walk_length=5,
    crawl_hops=0,
    backward_repetitions=3,
    refine_repetitions=0,
    calibration_walks=4,
)


@lru_cache(maxsize=None)
def hidden():
    return barabasi_albert_graph(200, 3, seed=1).relabeled()


def step(service):
    return drive(service.clock, service.step())


@lru_cache(maxsize=None)
def two_epoch_checkpoint() -> str:
    """A 2-epoch checkpoint of one ``batch`` SRW job, as JSON text."""
    config = ServiceConfig(rows_per_epoch=20)
    with SamplingService(SocialNetworkAPI(hidden()), config=config, seed=1) as service:
        service.submit_nowait(EstimationJobSpec(design="srw", samples=20, walk=WALK))
        step(service)
        step(service)
        return json.dumps(service.checkpoint())


def resume_edited(path, value):
    """Resume from the 2-epoch checkpoint with one field set (or dropped)."""
    document = json.loads(two_epoch_checkpoint())
    *parents, last = path
    record = document
    for key in parents:
        record = record[key]
    if value is DROP:
        del record[last]
    else:
        record[last] = value
    SamplingService.resume(SocialNetworkAPI(hidden()), document)


def plan(field, text):
    """A fault-plan document whose *field* is bad."""
    build = partial(FaultPlan.from_json, text)
    return pytest.param(build, ConfigurationError, field, id=f"FaultPlan-{text}")


def config(cls, field, value):
    """A config built with one bad *field*."""
    build = partial(cls, **{field: value})
    label = f"{cls.__name__}-{field}={value!r}"
    return pytest.param(build, ConfigurationError, field, id=label)


def checkpoint(path, value):
    """A checkpoint whose field at *path* is set to *value*."""
    build = partial(resume_edited, path, value)
    label = "checkpoint-" + ".".join(map(str, path))
    label += "-dropped" if value is DROP else f"={value!r}"
    return pytest.param(build, CheckpointError, path[-1], id=label)


PROBES = [
    plan("first_call", '{"rules": [{"kind": "error", "first_call": "2"}], "seed": 1}'),
    plan("delay", '{"rules": [{"kind": "slow", "delay": true}], "seed": 1}'),
    plan("first_call", '{"rules": [{"kind": "error", "first_call": 2.5}]}'),
    plan("seed", '{"rules": [], "seed": "9"}'),
    plan("delay", '{"rules": [{"kind": "slow", "delay": NaN}]}'),
    config(RetryPolicy, "max_attempts", 2.5),
    config(RetryPolicy, "circuit_threshold", True),
    config(RetryPolicy, "base_backoff", NAN),
    config(RetryPolicy, "call_timeout", NAN),
    config(RetryPolicy, "circuit_reset_seconds", NAN),
    config(RetryPolicy, "max_attempts", "3"),
    config(RetryPolicy, "jitter", None),
    config(ServiceConfig, "n_workers", True),
    config(ServiceConfig, "grace_rounds", 1.5),
    config(ServiceConfig, "checkpoint_every", 2.5),
    config(ServiceConfig, "max_depth", -1),
    config(ServiceConfig, "monitor_interval", NAN),
    config(ServiceConfig, "rows_per_epoch", "40"),
    config(CrawlPipelineConfig, "concurrency", True),
    config(CrawlPipelineConfig, "max_depth", "2"),
    checkpoint(("jobs", 0, "rounds"), 2.7),
    checkpoint(("jobs", 0, "rounds"), "2"),
    checkpoint(("epochs_run",), 2.9),
    checkpoint(("job_sequence",), 2.9),
    checkpoint(("driver_cursor",), 0.5),
    checkpoint(("start",), 0.4),
    checkpoint(("budget_exhausted",), "no"),
    checkpoint(("crawler", "rows_fetched"), 20.5),
    checkpoint(("crawler", "failed"), "false"),
    checkpoint(("config", "checkpoint_every"), 2.5),
    checkpoint(("config", "bogus"), 1),
    checkpoint(("jobs", 0, "partials", 0, "bogus"), 1),
    checkpoint(("jobs", 0, "rounds"), DROP),
    checkpoint(("jobs", 0, "state"), "bogus"),
    checkpoint(("jobs", 0, "spec", "samples"), 2.5),
]


@pytest.mark.parametrize("build, error, field", PROBES)
def test_malformed_document_is_refused(build, error, field):
    with pytest.raises(error, match=field):
        build()


def test_unedited_checkpoint_resumes():
    document = json.loads(two_epoch_checkpoint())
    assert document["jobs"][0]["partials"], "the probes edit a streamed partial"
    with SamplingService.resume(SocialNetworkAPI(hidden()), document) as resumed:
        assert resumed.epochs_run == 2
        assert resumed.jobs["job-1"].rounds == 2


class TestReaderInvertsWriter:
    """``capture(resume(D)) == D``: the reader drops and coerces nothing."""

    def campaign(self):
        service = SamplingService(
            SocialNetworkAPI(hidden()),
            config=ServiceConfig(rows_per_epoch=20, max_running=2),
            seed=3,
        )
        spec = EstimationJobSpec(design="srw", samples=20, walk=WALK)
        # Resolves once its loose target is met.
        service.submit_nowait(spec.with_overrides(tenant="alice", error_target=50.0))
        sharded = EngineConfig(backend="sharded")
        service.submit_nowait(
            spec.with_overrides(tenant="bob", design="mhrw", engine=sharded)
        )
        # Cancelled while pending: resolved before its first sample, so its
        # estimate and stderr are non-finite and written as blobs.
        carol = service.submit_nowait(spec.with_overrides(tenant="carol"))
        service.cancel(carol.job_id)
        for _ in range(4):
            step(service)
        return service

    def test_mid_campaign_document_round_trips(self):
        with self.campaign() as service:
            states = {job.tenant: job.state.value for job in service.jobs.values()}
            assert states == {
                "alice": "completed",
                "bob": "running",
                "carol": "cancelled",
            }
            carol = service.jobs["job-3"].result
            assert carol.samples == 0 and carol.estimate != carol.estimate
            document = service.checkpoint()
        for source in (document, json.loads(json.dumps(document))):
            with SamplingService.resume(SocialNetworkAPI(hidden()), source) as resumed:
                assert checkpoint_module.capture(resumed) == source

    def test_crawler_state_round_trips(self):
        crawler = AsyncCrawler(SocialNetworkAPI(hidden()), 0, concurrency=2)
        crawler.crawl(max_new_rows=30)
        state = crawler.state_dict()
        assert state["frontier"] and state["rows_fetched"] == 30
        for source in (state, json.loads(json.dumps(state))):
            fresh = AsyncCrawler(SocialNetworkAPI(hidden()), 0, concurrency=2)
            fresh.restore_state(source)
            assert fresh.state_dict() == source
