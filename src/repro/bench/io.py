"""Atomic JSON artifact IO.

Every benchmark artifact, trajectory file and service checkpoint in the
repository is written through :func:`atomic_write_json`: the document is
serialized in memory, written into a temporary file *in the destination
directory*, fsync'd, then moved over the target with :func:`os.replace`.
A crash mid-write therefore never leaves a truncated or corrupt
``BENCH_*.json`` behind — the committed baseline either keeps its old
bytes or gets the complete new ones.

Failure behavior is deliberately loud: an unwritable or missing
destination directory raises immediately (no silent fallback path), and
non-finite floats are rejected (``allow_nan=False``) rather than being
smuggled into a file that a strict JSON parser would then refuse.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

PathLike = Union[str, os.PathLike]


def atomic_write_json(
    path: PathLike, document: object, *, indent: Optional[int] = 2
) -> Path:
    """Atomically serialize *document* as JSON to *path*; return the path.

    The text is built with :func:`json.dumps` before any file exists, so
    a document that cannot be serialized never creates a temporary file.
    ``indent=2`` (the default, for committed artifacts) writes the same
    bytes :func:`json.dump` would.  ``indent=None`` writes one compact
    line through CPython's C encoder, which :func:`json.dump` never uses
    and :func:`json.dumps` uses only without an indent — the choice for
    large machine-read documents such as service checkpoints.

    The temporary file lives next to the target so the final
    :func:`os.replace` is a same-filesystem rename (atomic on POSIX).
    On any failure the temporary file is removed and the original target
    is left untouched.
    """
    target = Path(path)
    directory = target.parent
    if not directory.is_dir():
        raise FileNotFoundError(
            f"cannot write {target}: directory {directory} does not exist"
        )
    text = json.dumps(document, indent=indent, allow_nan=False)
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def load_json(path: PathLike) -> object:
    """Parse one JSON document; errors carry the offending path."""
    target = Path(path)
    try:
        with open(target, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{target} is not valid JSON: {exc}") from exc
