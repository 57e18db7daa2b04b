"""The atomic write-temp-then-rename discipline every artifact goes through."""

import json
import os
from pathlib import Path

import pytest

from repro.bench import atomic_write_json, load_json

REPO_ROOT = Path(__file__).resolve().parents[2]


def _tmp_droppings(directory):
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


def test_round_trips_and_leaves_no_temp_files(tmp_path):
    target = tmp_path / "BENCH_x.json"
    atomic_write_json(target, {"a": 1, "b": [1.5, True]})
    assert load_json(target) == {"a": 1, "b": [1.5, True]}
    assert _tmp_droppings(tmp_path) == []
    # File ends with a newline (plays nicely with git diffs).
    assert target.read_text().endswith("\n")


def test_overwrite_replaces_whole_document(tmp_path):
    target = tmp_path / "BENCH_x.json"
    atomic_write_json(target, {"generation": 1, "extra": "long" * 100})
    atomic_write_json(target, {"generation": 2})
    assert load_json(target) == {"generation": 2}


def test_missing_directory_fails_loudly(tmp_path):
    with pytest.raises(FileNotFoundError, match="does not exist"):
        atomic_write_json(tmp_path / "nope" / "BENCH_x.json", {})


def test_parent_is_a_file_fails_loudly(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    with pytest.raises(FileNotFoundError, match="does not exist"):
        atomic_write_json(blocker / "BENCH_x.json", {})


def test_failed_serialization_preserves_old_artifact(tmp_path):
    # A crash mid-dump must leave the previous baseline bytes intact and
    # clean up its temporary file — never a truncated/corrupt JSON.
    target = tmp_path / "BENCH_x.json"
    atomic_write_json(target, {"good": 1})
    with pytest.raises(ValueError):
        atomic_write_json(target, {"bad": float("nan")})
    assert load_json(target) == {"good": 1}
    assert _tmp_droppings(tmp_path) == []


def test_unserializable_document_never_creates_target(tmp_path):
    target = tmp_path / "BENCH_x.json"
    with pytest.raises(TypeError):
        atomic_write_json(target, {"bad": object()})
    assert not target.exists()
    assert _tmp_droppings(tmp_path) == []


def test_load_json_reports_corrupt_file_with_path(tmp_path):
    target = tmp_path / "BENCH_x.json"
    target.write_text('{"truncated": ')
    with pytest.raises(ValueError, match="BENCH_x.json"):
        load_json(target)


def test_accepts_string_paths(tmp_path):
    target = str(tmp_path / "BENCH_x.json")
    atomic_write_json(target, [1, 2, 3])
    assert json.loads(open(target).read()) == [1, 2, 3]


def test_indented_text_matches_json_dump(tmp_path):
    # The text is built with json.dumps; at indent=2 it must be the
    # bytes the streaming json.dump writer produced.
    document = {"a": [1, 2.5, -0.0, 1e-310], "b": {"c": None, "d": "é"}, "e": []}
    target = tmp_path / "doc.json"
    atomic_write_json(target, document)
    with open(tmp_path / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, allow_nan=False)
        handle.write("\n")
    assert target.read_bytes() == (tmp_path / "reference.json").read_bytes()


@pytest.mark.parametrize(
    "name", sorted(path.name for path in REPO_ROOT.glob("BENCH_*.json"))
)
def test_committed_artifacts_rewrite_byte_identically(tmp_path, name):
    committed = REPO_ROOT / name
    target = tmp_path / name
    atomic_write_json(target, load_json(committed))
    assert target.read_bytes() == committed.read_bytes()


def test_compact_indent_writes_one_line(tmp_path):
    document = {"values": "AAAAAAAA+H8=", "rows": [[1, [2, 3]]], "x": 0.1}
    target = tmp_path / "doc.json"
    atomic_write_json(target, document, indent=None)
    text = target.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert load_json(target) == document
