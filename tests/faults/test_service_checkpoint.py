"""service.checkpoint: crash-transparent snapshots of a running campaign.

The §2.4 pin: a service resumed from a checkpoint finishes the campaign
bit-identically to one that never stopped, and re-pays not a single
unique-node query for the rows the checkpoint carried.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig
from repro.crawl.clock import drive
from repro.errors import CheckpointError
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI
from repro.service import CHECKPOINT_VERSION, SamplingService, ServiceConfig
from repro.service import checkpoint as checkpoint_module

LATENCY = [1.0, 0.25, 0.5, 2.0, 0.75]

WALK = WalkEstimateConfig(
    walk_length=5,
    crawl_hops=0,
    backward_repetitions=3,
    refine_repetitions=0,
    calibration_walks=4,
)


@pytest.fixture(scope="module")
def hidden():
    return barabasi_albert_graph(200, 4, seed=9).relabeled()


def job_spec(tenant, budget=120):
    return EstimationJobSpec(
        tenant=tenant,
        query_budget=budget,
        error_target=0.8,
        design="srw",
        samples=30,
        walk=WALK,
        engine=EngineConfig(backend="batch"),
    )


def make_service(hidden, *, config=None):
    api = SocialNetworkAPI(hidden)
    return SamplingService(
        api,
        0,
        config=config if config is not None else ServiceConfig(rows_per_epoch=30),
        latency=LATENCY,
        seed=5,
    )


def step(service):
    return drive(service.clock, service.step())


def finish(service):
    while service.scheduler.has_work:
        step(service)


def result_fingerprint(result):
    return (
        result.job_id,
        result.tenant,
        result.state.value,
        result.estimate,
        result.stderr,
        result.samples,
        result.rounds,
        result.query_cost,
        result.met_target,
        result.reason,
        result.clock_seconds,
    )


def campaign_fingerprint(service):
    return (
        [
            result_fingerprint(job.result)
            for _, job in sorted(service.jobs.items())
            if job.result is not None
        ],
        service.api.counter.state(),
        service.ledger.charges(),
    )


class TestResumeParity:
    def test_resumed_campaign_is_bit_identical_and_repays_nothing(self, hidden):
        # Reference: the same two-tenant campaign, never interrupted.
        with make_service(hidden) as reference:
            reference.run([job_spec("alice"), job_spec("bob")])
            expected = campaign_fingerprint(reference)

        # Interrupted: two epochs, checkpoint, "crash".
        with make_service(hidden) as service:
            service.submit_nowait(job_spec("alice"))
            service.submit_nowait(job_spec("bob"))
            step(service)
            step(service)
            document = json.loads(json.dumps(service.checkpoint()))
            cost_at_checkpoint = service.api.query_cost

        # A fresh process: a new API over the same hidden network.
        resumed = SamplingService.resume(
            SocialNetworkAPI(hidden), document, latency=LATENCY
        )
        try:
            # Every row the checkpoint carried is already paid for.
            assert resumed.api.query_cost == cost_at_checkpoint
            assert resumed.epochs_run == 2
            resumed.ledger.assert_balanced()
            finish(resumed)
            assert campaign_fingerprint(resumed) == expected
            resumed.ledger.assert_balanced()
        finally:
            resumed.close()

    def test_checkpoint_write_load_round_trip(self, hidden, tmp_path):
        path = tmp_path / "service.ckpt.json"
        with make_service(hidden) as service:
            service.submit_nowait(job_spec("alice"))
            step(service)
            document = service.checkpoint(path)
            assert path.is_file()
            assert checkpoint_module.load(path) == json.loads(json.dumps(document))

        resumed = SamplingService.resume(
            SocialNetworkAPI(hidden), path, latency=LATENCY
        )
        try:
            finish(resumed)
            assert resumed.jobs["job-1"].result is not None
        finally:
            resumed.close()

    def test_periodic_checkpoints_during_serve(self, hidden, tmp_path):
        path = tmp_path / "auto.ckpt.json"
        config = ServiceConfig(
            rows_per_epoch=30,
            checkpoint_path=str(path),
            checkpoint_every=2,
        )
        with make_service(hidden, config=config) as service:
            service.run([job_spec("alice")])
            assert service.epochs_run >= 2
            document = checkpoint_module.load(path)
        # The last auto-checkpoint is a valid resume source.
        resumed = SamplingService.resume(
            SocialNetworkAPI(hidden), document, latency=LATENCY
        )
        try:
            finish(resumed)
        finally:
            resumed.close()


class TestValidation:
    def _document(self, hidden):
        with make_service(hidden) as service:
            service.submit_nowait(job_spec("alice"))
            step(service)
            return service.checkpoint()

    def test_version_and_keys_checked(self, hidden):
        document = self._document(hidden)
        assert document["version"] == CHECKPOINT_VERSION
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_module.validate({**document, "version": 99})
        with pytest.raises(CheckpointError, match="missing keys"):
            checkpoint_module.validate(
                {k: v for k, v in document.items() if k != "counter"}
            )
        with pytest.raises(CheckpointError, match="unknown keys"):
            checkpoint_module.validate({**document, "extra": 1})
        with pytest.raises(CheckpointError, match="mapping"):
            checkpoint_module.validate([1, 2])

    def test_version_2_document_refused(self, hidden):
        # Version 2 job specs carried engine.batch_backward; such a
        # document must fail loudly, never half-load.
        document = self._document(hidden)
        for job in document["jobs"]:
            job["spec"]["engine"]["batch_backward"] = False
        document["version"] = 2
        with pytest.raises(CheckpointError, match="version 2"):
            SamplingService.resume(SocialNetworkAPI(hidden), document, latency=LATENCY)

    def test_restore_refuses_used_service_and_wrong_start(self, hidden):
        document = self._document(hidden)
        with make_service(hidden) as used:
            used.run([job_spec("carol")])
            with pytest.raises(CheckpointError, match="freshly constructed"):
                checkpoint_module.restore(used, document)
        api = SocialNetworkAPI(hidden)
        other = SamplingService(
            api, 1, config=ServiceConfig(rows_per_epoch=30), latency=LATENCY
        )
        try:
            with pytest.raises(CheckpointError, match="start node"):
                checkpoint_module.restore(other, document)
        finally:
            other.close()

    def test_restore_refuses_foreign_rng_and_bad_scheduler_refs(self, hidden):
        document = self._document(hidden)
        corrupted = dict(document)
        corrupted["rng_state"] = {
            **document["rng_state"],
            "bit_generator": "MT19937",
        }
        fresh = make_service(hidden)
        try:
            with pytest.raises(CheckpointError, match="bit generator"):
                checkpoint_module.restore(fresh, corrupted)
        finally:
            fresh.close()
        dangling = dict(document)
        dangling["pending"] = list(document["pending"]) + ["job-999"]
        fresh = make_service(hidden)
        try:
            with pytest.raises(CheckpointError, match="unknown job"):
                checkpoint_module.restore(fresh, dangling)
        finally:
            fresh.close()

    def test_checkpoint_every_validated(self):
        with pytest.raises(Exception):
            ServiceConfig(checkpoint_every=0)


class TestFileSlabResume:
    """A checkpointed file slab resumes without re-crawling or re-compacting."""

    def _config(self, slab_dir):
        return ServiceConfig(
            rows_per_epoch=60, slab_storage="file", slab_dir=str(slab_dir)
        )

    def _demanding_jobs(self):
        # Targets tight enough that refinement outlives the crawl budget:
        # post-checkpoint work is walks only, so an adopted topology is
        # never superseded and compactions can stay at zero end to end.
        return [
            replace(job_spec("alice", budget=60), error_target=0.05),
            replace(job_spec("bob", budget=60), error_target=0.05),
        ]

    def _crash_after_stall(self, hidden, slab_dir):
        """Run until the crawl stops growing, checkpoint, 'crash'.

        Tenant budgets fund the crawl; once they run dry the fetched
        frontier freezes, every later publish is growth-gated, and the
        remaining work is walks only — the regime where an adopted slab
        must never be re-compacted.  The crashed service is returned
        un-closed (a real crash never unlinks) and must stay referenced
        until the test ends, or its GC finalizer would sweep the slab
        file out from under the resume.
        """
        service = make_service(hidden, config=self._config(slab_dir))
        for spec in self._demanding_jobs():
            service.submit_nowait(spec)
        previous = -1
        while service.api.discovered.fetched_count != previous:
            previous = service.api.discovered.fetched_count
            step(service)
        assert service.scheduler.has_work, "jobs must outlast the crawl"
        document = json.loads(json.dumps(service.checkpoint()))
        return service, document

    def test_resume_reattaches_slab_with_zero_recompactions(self, hidden, tmp_path):
        with make_service(hidden, config=self._config(tmp_path / "ref")) as ref:
            ref.run(self._demanding_jobs())
            expected = campaign_fingerprint(ref)

        crashed, document = self._crash_after_stall(hidden, tmp_path / "live")
        topology = document["topology"]
        assert topology is not None and topology["storage"] == "file"
        assert Path(topology["path"]).is_file()
        cost_at_checkpoint = crashed.api.query_cost

        resumed = SamplingService.resume(
            SocialNetworkAPI(hidden), document, latency=LATENCY
        )
        try:
            # The persisted topology was adopted, not rebuilt: zero
            # re-paid queries AND zero re-compactions.
            assert resumed.publisher.compactions == 0
            current = resumed.publisher.current
            assert current is not None
            assert current.spec.segment == topology["path"]
            assert current.epoch == topology["epoch"]
            assert resumed.api.query_cost == cost_at_checkpoint
            finish(resumed)
            assert resumed.publisher.compactions == 0
            assert resumed.api.query_cost == cost_at_checkpoint
            assert campaign_fingerprint(resumed) == expected
            resumed.ledger.assert_balanced()
        finally:
            resumed.close()
            crashed.close()

    def test_digest_mismatch_falls_back_to_rebuild(self, hidden, tmp_path):
        with make_service(hidden, config=self._config(tmp_path / "ref")) as ref:
            ref.run(self._demanding_jobs())
            expected = campaign_fingerprint(ref)

        crashed, document = self._crash_after_stall(hidden, tmp_path / "live")
        path = Path(document["topology"]["path"])
        # Same size, different bytes: the size gate passes, the digest
        # refuses, and resume rebuilds from rows — never a wrong graph.
        blob = bytearray(path.read_bytes())
        blob[: len(blob) // 2] = bytes(len(blob) // 2)
        path.write_bytes(bytes(blob))

        resumed = SamplingService.resume(
            SocialNetworkAPI(hidden), document, latency=LATENCY
        )
        try:
            current = resumed.publisher.current
            assert current is None or current.spec.segment != str(path)
            finish(resumed)
            assert resumed.publisher.compactions >= 1
            assert campaign_fingerprint(resumed) == expected
        finally:
            resumed.close()
            crashed.close()

    def test_missing_slab_file_falls_back_to_rebuild(self, hidden, tmp_path):
        with make_service(hidden, config=self._config(tmp_path / "ref")) as ref:
            ref.run(self._demanding_jobs())
            expected = campaign_fingerprint(ref)

        crashed, document = self._crash_after_stall(hidden, tmp_path / "live")
        Path(document["topology"]["path"]).unlink()

        resumed = SamplingService.resume(
            SocialNetworkAPI(hidden), document, latency=LATENCY
        )
        try:
            finish(resumed)
            assert resumed.publisher.compactions >= 1
            assert campaign_fingerprint(resumed) == expected
        finally:
            resumed.close()
            crashed.close()

    def test_shm_checkpoint_records_no_topology(self, hidden):
        with make_service(hidden) as service:
            service.submit_nowait(job_spec("alice"))
            step(service)
            document = service.checkpoint()
            assert document["topology"] is None
