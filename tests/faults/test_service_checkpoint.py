"""service.checkpoint: crash-transparent snapshots of a running campaign.

The §2.4 pin: a service resumed from a checkpoint finishes the campaign
bit-identically to one that never stopped, and re-pays not a single
unique-node query for the rows the checkpoint carried.
"""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig
from repro.crawl.clock import drive
from repro.errors import CheckpointError
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.graph import Graph
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


def job_spec(tenant, budget=120, backend="batch"):
    return EstimationJobSpec(
        tenant=tenant,
        query_budget=budget,
        error_target=0.8,
        design="srw",
        samples=30,
        walk=WALK,
        engine=EngineConfig(backend=backend),
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


def exact(value):
    """Floats by their bits, so a NaN compares equal to itself."""
    return struct.pack("<d", value) if isinstance(value, float) else value


def exact_fields(record):
    if record is None:
        return None
    return tuple(exact(v) for v in vars(record).values())


def exact_fingerprint(service):
    """Every partial (epoch label included) and result, bit for bit."""
    return (
        [
            (
                job_id,
                job.state.value,
                [exact_fields(partial) for partial in job.partials],
                exact_fields(job.result),
            )
            for job_id, job in sorted(service.jobs.items())
        ],
        service.api.counter.state(),
        service.ledger.charges(),
    )


def partial_epochs(service):
    return {
        job_id: [partial.epoch for partial in job.partials]
        for job_id, job in sorted(service.jobs.items())
    }


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

    def test_resume_before_the_first_publish_is_bit_identical(self, hidden):
        # A checkpoint taken before any epoch records no topology; the
        # resumed service publishes epoch 1 itself.
        with make_service(hidden) as reference:
            reference.run([job_spec("alice")])
            expected = exact_fingerprint(reference)
            expected_epochs = partial_epochs(reference)

        with make_service(hidden) as service:
            service.submit_nowait(job_spec("alice"))
            document = json.loads(json.dumps(service.checkpoint()))
        assert document["topology"] is None

        resumed = SamplingService.resume(
            SocialNetworkAPI(hidden), document, latency=LATENCY
        )
        try:
            assert resumed.publisher.current is None
            finish(resumed)
            assert partial_epochs(resumed) == expected_epochs
            assert exact_fingerprint(resumed) == expected
        finally:
            resumed.close()

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_resume_keeps_epoch_labels_with_a_sharded_tenant(self, hidden, n_workers):
        # A rebuilt /dev/shm epoch keeps its number: partials streamed
        # after the resume carry the labels an uninterrupted run streams.
        config = ServiceConfig(rows_per_epoch=30, n_workers=n_workers)
        specs = [job_spec("alice"), job_spec("bob", backend="sharded")]
        with make_service(hidden, config=config) as reference:
            reference.run(specs)
            expected = exact_fingerprint(reference)
            expected_epochs = partial_epochs(reference)
        assert expected_epochs["job-2"][:5] == [1, 2, 3, 4, 5]

        with make_service(hidden, config=config) as service:
            for spec in specs:
                service.submit_nowait(spec)
            step(service)
            step(service)
            document = json.loads(json.dumps(service.checkpoint()))

        resumed = SamplingService.resume(
            SocialNetworkAPI(hidden), document, latency=LATENCY
        )
        try:
            assert resumed.publisher.current_epoch == 2
            finish(resumed)
            assert partial_epochs(resumed) == expected_epochs
            assert exact_fingerprint(resumed) == expected
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

    def test_checkpoint_to_a_path_captures_once(self, hidden, tmp_path, monkeypatch):
        capture = checkpoint_module.capture
        captured = []

        def counted(service):
            captured.append(capture(service))
            return captured[-1]

        monkeypatch.setattr(checkpoint_module, "capture", counted)
        path = tmp_path / "service.ckpt.json"
        with make_service(hidden) as service:
            service.submit_nowait(job_spec("alice"))
            step(service)
            document = service.checkpoint(path)
        assert captured == [document]
        assert json.loads(path.read_text()) == json.loads(json.dumps(document))

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

    def test_version_3_document_refused(self, hidden):
        # Version 3 wrote samples as nested lists of JSON numbers and the
        # discovered rows as [node, [neighbors]] pairs; such a document
        # must fail loudly, never half-load.
        document = self._document(hidden)
        for job in document["jobs"]:
            job["values"] = [[1.0, 2.0]]
            job["weights"] = [[0.5, 0.5]]
        document["discovered"] = {"rows": [[0, [1, 2]]], "marked": []}
        document["version"] = 3
        with pytest.raises(CheckpointError, match="version 3"):
            SamplingService.resume(SocialNetworkAPI(hidden), document, latency=LATENCY)

    def test_version_4_document_refused(self, hidden):
        # Version 4 recorded no topology for /dev/shm slabs, so a resume
        # renumbered the epochs from 1; such a document must fail loudly,
        # never half-load.
        document = self._document(hidden)
        document["topology"] = None
        document["version"] = 4
        with pytest.raises(CheckpointError, match="version 4"):
            SamplingService.resume(SocialNetworkAPI(hidden), document, latency=LATENCY)

    def test_version_5_document_refused(self, hidden):
        # Version 5 job specs carried engine.mp_context, slab_storage and
        # slab_dir; such a document must fail loudly, never half-load.
        document = self._document(hidden)
        for job in document["jobs"]:
            job["spec"]["engine"].update(
                mp_context="spawn", slab_storage="shm", slab_dir=None
            )
        document["version"] = 5
        with pytest.raises(CheckpointError, match="version 5"):
            SamplingService.resume(SocialNetworkAPI(hidden), document, latency=LATENCY)

    def test_version_6_document_refused(self, hidden):
        # Version 6 recorded the live epoch's slab storage alongside its
        # number and watermark, and the service config's slab_dir; such a
        # document must fail loudly, never half-load.
        document = self._document(hidden)
        document["topology"]["storage"] = "shm"
        document["config"]["slab_dir"] = None
        document["version"] = 6
        with pytest.raises(CheckpointError, match="version 6"):
            SamplingService.resume(SocialNetworkAPI(hidden), document, latency=LATENCY)

    def test_version_7_document_refused(self, hidden):
        # Version 7 job specs carried walk.batch_backward and
        # engine.kernel_backend; such a document must fail loudly, never
        # half-load.
        document = self._document(hidden)
        for job in document["jobs"]:
            job["spec"]["walk"]["batch_backward"] = False
            job["spec"]["engine"]["kernel_backend"] = "numpy"
        document["version"] = 7
        with pytest.raises(CheckpointError, match="version 7"):
            SamplingService.resume(SocialNetworkAPI(hidden), document, latency=LATENCY)

    def test_topology_watermark_must_match_the_rows(self, hidden):
        # The rebuilt epoch must be the recorded graph: a watermark that
        # disagrees with the restored rows refuses instead.
        document = self._document(hidden)
        document["topology"]["rows"] += 1
        fresh = make_service(hidden)
        try:
            with pytest.raises(CheckpointError, match="rebuild"):
                checkpoint_module.restore(fresh, document)
        finally:
            fresh.close()

    def test_corrupt_blob_refused(self, hidden):
        document = self._document(hidden)
        document["jobs"][0]["values"] = "not base64!"
        fresh = make_service(hidden)
        try:
            with pytest.raises(CheckpointError, match="blob"):
                checkpoint_module.restore(fresh, document)
        finally:
            fresh.close()

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


class TestTopologyResume:
    """Resume rebuilds the live epoch from the restored rows."""

    def test_shm_checkpoint_records_epoch_and_rows(self, hidden):
        with make_service(hidden) as service:
            service.submit_nowait(job_spec("alice"))
            assert service.checkpoint()["topology"] is None
            step(service)
            step(service)
            current = service.publisher.current
            document = service.checkpoint()
        # Epoch and watermark only: the epoch is an in-process graph that
        # dies with the process, so resume rebuilds it from the rows.
        assert document["topology"] == {"epoch": current.epoch, "rows": current.rows}
        assert current.epoch == 2

    def test_resumed_shm_epoch_is_rebuilt_under_its_number(self, hidden):
        with make_service(hidden) as service:
            service.submit_nowait(job_spec("alice"))
            step(service)
            step(service)
            # Copies, so the comparison below cannot see the same arrays.
            graph = service.publisher.current.graph
            expected = [a.copy() for a in (graph.node_ids, graph.indptr, graph.indices)]
            document = service.checkpoint()
        resumed = SamplingService.resume(
            SocialNetworkAPI(hidden), document, latency=LATENCY
        )
        try:
            current = resumed.publisher.current
            assert current.epoch == document["topology"]["epoch"]
            assert current.rows == document["topology"]["rows"]
            assert resumed.publisher.compactions == 1
            assert resumed._topology.epoch == current.epoch
            graph = current.graph
            rebuilt = [graph.node_ids, graph.indptr, graph.indices]
            assert all(map(np.array_equal, rebuilt, expected))
        finally:
            resumed.close()

    def test_resumed_publisher_gates_then_numbers_after_the_recorded_epoch(
        self, hidden
    ):
        with make_service(hidden) as service:
            service.submit_nowait(job_spec("alice"))
            step(service)
            step(service)
            document = service.checkpoint()
        epoch, rows = document["topology"]["epoch"], document["topology"]["rows"]
        resumed = SamplingService.resume(
            SocialNetworkAPI(hidden), document, latency=LATENCY
        )
        try:
            publisher = resumed.publisher
            # No row arrived since the checkpoint: the rebuilt epoch stands.
            assert publisher.publish() is None
            assert publisher.compactions == 1
            resumed.crawler.crawl(max_new_rows=5)
            grown = publisher.publish()
            assert (grown.epoch, grown.rows) == (epoch + 1, rows + 5)
        finally:
            resumed.close()

    def test_config_records_slab_storage_but_no_slab_dir(self, hidden):
        with make_service(hidden) as service:
            service.submit_nowait(job_spec("alice"))
            step(service)
            document = json.loads(json.dumps(service.checkpoint()))
        assert document["config"]["slab_storage"] == "shm"
        assert "slab_dir" not in document["config"]
        assert ServiceConfig(**document["config"]) == service.config


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestBlobFormat:
    """Version 4 writes bulk arrays as base64 blobs of exact bits."""

    SPECIAL = [
        0.0,
        -0.0,
        np.inf,
        -np.inf,
        np.nan,
        -np.nan,
        5e-324,  # smallest subnormal
        2.225073858507201e-308,  # largest subnormal
        -1.5e-320,
        1.7976931348623157e308,
        0.1,
    ]

    def test_float64_blobs_round_trip_bit_for_bit(self):
        payload_nan = np.frombuffer(
            struct.pack("<Q", 0x7FF0_0000_0000_1234), dtype=np.float64
        )
        values = np.concatenate((np.array(self.SPECIAL), payload_nan))
        blob = checkpoint_module._encode(values, checkpoint_module._FLOAT64)
        decoded = checkpoint_module._decode(
            json.loads(json.dumps(blob)), checkpoint_module._FLOAT64
        )
        assert decoded.tobytes() == values.tobytes()
        assert decoded.dtype == np.float64 and decoded.flags.writeable

    def test_int64_blobs_round_trip(self):
        values = np.array([0, -1, 2**63 - 1, -(2**63), 1 << 40], dtype=np.int64)
        blob = checkpoint_module._encode(values, checkpoint_module._INT64)
        decoded = checkpoint_module._decode(blob, checkpoint_module._INT64)
        assert decoded.tobytes() == values.tobytes()

    @pytest.mark.parametrize("dtype", ["_FLOAT64", "_INT64"])
    def test_empty_arrays_round_trip(self, dtype):
        dtype = getattr(checkpoint_module, dtype)
        blob = checkpoint_module._encode(np.zeros(0), dtype)
        assert blob == ""
        decoded = checkpoint_module._decode(blob, dtype)
        assert decoded.size == 0 and decoded.dtype == dtype

    def test_blob_bytes_are_little_endian(self):
        blob = checkpoint_module._encode([1.0], checkpoint_module._FLOAT64)
        assert blob == "AAAAAAAA8D8="  # 0x3FF0000000000000, low byte first

    @pytest.mark.parametrize("value", SPECIAL)
    def test_scalar_floats_round_trip_through_strict_json(self, value):
        value = float(value)
        doc = checkpoint_module._float_document(value)
        assert isinstance(doc, str) != bool(np.isfinite(value))
        text = json.dumps(doc, allow_nan=False)
        back = checkpoint_module._float_from(json.loads(text))
        assert bits([back]) == bits([value])

    def test_corrupt_blob_raises_checkpoint_error(self):
        with pytest.raises(CheckpointError, match="blob"):
            checkpoint_module._decode("AAAA", checkpoint_module._FLOAT64)
        with pytest.raises(CheckpointError, match="one float64"):
            checkpoint_module._float_from(
                checkpoint_module._encode([1.0, 2.0], checkpoint_module._FLOAT64)
            )

    def test_checkpoint_file_is_one_line_of_strict_json(self, hidden, tmp_path):
        path = tmp_path / "service.ckpt.json"
        with make_service(hidden) as service:
            service.submit_nowait(job_spec("alice"))
            step(service)
            step(service)
            service.checkpoint(path)
            values, _ = service.jobs["job-1"].sample_arrays()
        text = path.read_text()
        assert text.count("\n") == 1

        def refuse(token):
            raise AssertionError(f"non-strict JSON token {token}")

        document = json.loads(text, parse_constant=refuse)
        assert isinstance(document["jobs"][0]["values"], str)
        assert set(document["discovered"]) == {"ids", "lengths", "flat", "marked"}
        decoded = checkpoint_module._decode(
            document["jobs"][0]["values"], checkpoint_module._FLOAT64
        )
        assert decoded.tobytes() == values.tobytes()

    def test_identical_campaigns_write_identical_files(self, hidden, tmp_path):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            with make_service(hidden) as service:
                service.submit_nowait(job_spec("alice"))
                service.submit_nowait(job_spec("bob"))
                step(service)
                step(service)
                service.checkpoint(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestNonFiniteEstimates:
    """Jobs resolved before their first sample report ``(nan, inf)``.

    Such a job must not break the checkpoints that follow it: the file
    stays strict JSON, and a resumed campaign reproduces the NaN and
    infinity bit for bit.
    """

    @pytest.fixture(scope="class")
    def islands(self):
        # Two triangles; the crawl from 0 reaches {0, 1, 2, 3} only, so
        # a job starting at 10 fails once the crawl finishes.
        graph = Graph()
        graph.add_edges_from(
            [(0, 1), (1, 2), (0, 2), (2, 3), (10, 11), (11, 12), (10, 12)]
        )
        return graph

    def _campaign(self, islands, path):
        config = ServiceConfig(
            rows_per_epoch=1,
            max_rounds_per_job=6,
            checkpoint_path=str(path),
            checkpoint_every=1,
        )
        service = SamplingService(
            SocialNetworkAPI(islands), 0, config=config, latency=LATENCY, seed=3
        )
        home = replace(job_spec("home", budget=10), error_target=None)
        service.submit_nowait(home)
        service.submit_nowait(replace(home, tenant="lost", start=10))
        cancelled = service.submit_nowait(replace(home, tenant="gone"))
        assert service.cancel(cancelled.job_id)
        return service

    def test_checkpoints_and_resume_keep_nan_and_inf(self, islands, tmp_path):
        with self._campaign(islands, tmp_path / "reference.json") as reference:
            finish(reference)
            expected = exact_fingerprint(reference)
        lost = reference.jobs["job-2"].result
        assert lost.reason == "start-not-walkable"
        assert np.isnan(lost.estimate) and lost.stderr == np.inf
        assert reference.jobs["job-3"].result.reason == "cancelled"

        path = tmp_path / "live.json"
        with self._campaign(islands, path) as service:
            while service.jobs["job-2"].result is None:
                step(service)
            assert service.scheduler.has_work, "checkpoint before the end"
            document = checkpoint_module.load(path)
            result = document["jobs"][1]["result"]
            assert isinstance(result["estimate"], str)
            assert isinstance(result["stderr"], str)

        resumed = SamplingService.resume(
            SocialNetworkAPI(islands), path, latency=LATENCY
        )
        try:
            assert exact_fields(resumed.jobs["job-2"].result) == exact_fields(
                service.jobs["job-2"].result
            )
            finish(resumed)
            assert exact_fingerprint(resumed) == expected
        finally:
            resumed.close()
