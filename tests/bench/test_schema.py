"""The normalized artifact envelope: flattening, round-trip, refusals."""

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    flatten_metrics,
    host_metadata,
    load_artifact,
    make_envelope,
    write_artifact,
)

RECORD = {
    "benchmark": "walk_throughput",
    "graph": {"model": "barabasi_albert", "nodes": 2000, "seed": 42},
    "host": {"cpu_count": 64},  # environment, not a result
    "designs": {
        "srw": {
            "scalar": {"walks": 200, "steps_per_sec": 716405.07},
            "batch": {"1024": {"k": 1024, "speedup_steps_per_sec": 46.4}},
        }
    },
    "estimates": [13.9, 11.1],
    "converged": True,
    "note": "strings are not metrics",
    "missing": None,
}


class TestFlatten:
    def test_nested_dicts_flatten_to_dotted_keys(self):
        flat = flatten_metrics(RECORD)
        assert flat["graph.nodes"] == 2000
        assert flat["designs.srw.scalar.steps_per_sec"] == 716405.07
        assert flat["designs.srw.batch.1024.speedup_steps_per_sec"] == 46.4

    def test_lists_flatten_by_index(self):
        assert flatten_metrics(RECORD)["estimates.1"] == 11.1

    def test_booleans_kept_strings_and_none_skipped(self):
        flat = flatten_metrics(RECORD)
        assert flat["converged"] is True
        assert "note" not in flat
        assert "missing" not in flat
        assert "benchmark" not in flat

    def test_host_subtree_excluded(self):
        # Host facts are environment; they never diff as metrics (a
        # 2-core runner vs a 1-core baseline must not "fail" on
        # host.cpu_count).
        flat = flatten_metrics(RECORD)
        assert not any(key.startswith("host.") for key in flat)

    def test_nested_host_keys_are_not_excluded(self):
        # Only the top-level host block is environment metadata.
        flat = flatten_metrics({"sweep": {"host": {"cpu_count": 4}}})
        assert flat == {"sweep.host.cpu_count": 4}

    def test_timing_subtrees_excluded_at_any_depth(self):
        record = {
            "timing": {"seconds": 1.5},
            "rows": [{"walks": 3, "timing": {"steps_per_sec": 9.0}}],
            "sweep": {"4": {"query_cost": 7, "timing": {"real_seconds": 0.2}}},
        }
        assert flatten_metrics(record) == {"rows.0.walks": 3, "sweep.4.query_cost": 7}

    def test_timing_is_skipped_whatever_its_shape(self):
        # A scalar or list under ``timing`` is as much wall-clock as a block.
        record = {"walks": 2, "timing": 0.5, "sweep": {"timing": [1.0, 2.0]}}
        assert flatten_metrics(record) == {"walks": 2}


class TestEnvelope:
    def test_make_envelope_fields(self):
        envelope = make_envelope(RECORD, scale="smoke")
        assert envelope.benchmark == "walk_throughput"
        assert envelope.scale == "smoke"
        assert envelope.schema_version == SCHEMA_VERSION
        assert envelope.host == host_metadata()

    def test_rejects_non_dict_records(self):
        with pytest.raises(TypeError, match="dicts"):
            make_envelope([1, 2, 3], scale="smoke")

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_throughput.json"
        written = write_artifact(RECORD, path, scale="smoke")
        loaded = load_artifact(path)
        assert loaded.benchmark == written.benchmark
        assert loaded.scale == "smoke"
        assert loaded.metrics == written.metrics
        assert loaded.record == RECORD
        assert loaded.path == path

    def test_on_disk_layout_is_the_documented_envelope(self, tmp_path):
        path = tmp_path / "BENCH_throughput.json"
        write_artifact(RECORD, path, scale="full")
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "schema_version",
            "benchmark",
            "scale",
            "host",
            "metrics",
            "record",
        }
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["record"]["designs"]["srw"]["scalar"]["walks"] == 200

    def test_bare_record_without_schema_version_is_rejected(self, tmp_path):
        path = tmp_path / "BENCH_legacy.json"
        path.write_text(json.dumps(RECORD))
        with pytest.raises(ValueError, match="schema_version None"):
            load_artifact(path)

    def test_future_schema_version_is_rejected(self, tmp_path):
        path = tmp_path / "BENCH_future.json"
        path.write_text(json.dumps({"schema_version": 99, "record": {}}))
        with pytest.raises(ValueError, match="schema_version"):
            load_artifact(path)

    def test_envelope_missing_record_is_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(ValueError, match="record"):
            load_artifact(path)

    def test_non_object_document_is_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON objects"):
            load_artifact(path)


def test_host_metadata_shape():
    host = host_metadata()
    assert set(host) == {
        "cpu_count",
        "pid_cpu_count",
        "platform",
        "python",
        "kernel_backend",
    }
    assert host["cpu_count"] >= 1
    assert host["kernel_backend"] == "numpy"  # the process default
