"""Service checkpointing: crash-transparent snapshots of a running campaign.

A long multi-tenant campaign accumulates three kinds of state worth real
money and real time: the **rows** the charged API already paid for (§2.4:
re-fetching them after a restart would be paying twice for cached data),
the **accounting** that proves who paid (counter + per-tenant ledger), and
the **refinement** each job has accumulated (sample values/weights, RNG
stream positions, partial history).  This module captures all of it as one
JSON document and rebuilds a :class:`~repro.service.server.SamplingService`
from it such that the resumed service finishes the campaign **bit-identically**
to one that never stopped — and, when the crawl had already completed,
without issuing a single additional unique-node query.

Checkpoints are taken at epoch boundaries (no crawl batches in flight, no
walk round half-absorbed), which is why every captured structure has an
exact, replayable meaning: the crawler's FIFO frontier, the scheduler's
queue and rotation cursor, each RNG's bit-generator state, the discovered
store's insertion order.  Documents are written through
:func:`repro.bench.io.atomic_write_json`, so a crash mid-write leaves the
previous checkpoint intact, never a torn one.

**Format (version 8).**  The document is strict JSON on one line,
serialized by CPython's C encoder (``indent=None``).  The two bulk
payloads are written as bytes, not as numbers: each job's accepted
``values`` and ``weights`` are one base64 blob of little-endian float64
apiece, and the discovered rows (``ids``, ``lengths``, ``flat``,
``marked`` from
:meth:`~repro.graphs.discovered.DiscoveredGraph.snapshot_rows`) are
base64 blobs of little-endian int64.  A late-campaign checkpoint holds
hundreds of thousands of samples; formatting each one as a decimal
number made the write grow with the campaign, while a blob is one copy
of the array's bytes.  Blobs also carry the exact bits — every NaN,
``-0.0`` and subnormal — so the resumed estimates stay bit-identical.  The
estimate and stderr of partials and results stay JSON numbers when they
are finite; a non-finite one (``(nan, inf)`` for a job resolved before
its first sample) is written as a one-value float64 blob, since strict
JSON has no NaN or infinity.  The small lists — counter, ledger,
crawler frontier, specs and partials — stay plain JSON.

**Topology.**  The ``topology`` record names the live epoch: its number
and its row watermark.  An epoch is an in-process graph that dies with
the process, so :func:`restore` rebuilds it from the restored rows
through :meth:`~repro.crawl.publisher.TopologyPublisher.rebuild` (free,
the rows are local, but it re-pays the compaction) and installs it under
the recorded number: partials streamed after a resume carry the epoch
labels an uninterrupted run streams, and the next publish is N + 1 only
if the graph grew.  Live stream subscriptions are never captured (a
handle is a connection, not state; ``partials`` history is preserved,
replay is the caller's choice).

**Reading refuses, never coerces.**  :func:`restore` reads each record
through :func:`~repro.errors.checked_fields`: a missing or unknown key, or
a field of the wrong kind, NaN or below its floor, raises
:class:`~repro.errors.CheckpointError` naming it, and nothing is cast, so
a valid document loads to exactly what :func:`capture` wrote.
"""

from __future__ import annotations

import base64
import math
from dataclasses import asdict
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro.bench.io import atomic_write_json, load_json
from repro.core.dispatch import EstimationJobSpec
from repro.errors import CheckpointError, check_field, check_fields, checked_fields
from repro.service.jobs import Job, JobResult, JobState, PartialEstimate

#: Schema version stamped into every checkpoint document.  Version 2
#: added the ``topology`` record (persisted file-slab path + digest);
#: version 3 dropped ``batch_backward`` from the job specs' engine config;
#: version 4 writes samples and discovered rows as base64 blobs and
#: non-finite estimates as one-value blobs; version 5 records the live
#: epoch's number and watermark for ``/dev/shm`` slabs too; version 6
#: dropped ``mp_context``, ``slab_storage`` and ``slab_dir`` from the job
#: specs' engine config; version 7 reduced the ``topology`` record to the
#: epoch number and row watermark (no storage, path, digest or slab spec)
#: and dropped ``slab_dir`` from the service config; version 8 dropped
#: ``batch_backward`` from the job specs' walk config and
#: ``kernel_backend`` from their engine config.
CHECKPOINT_VERSION = 8

#: Kind, floor and optionality of each top-level field of a checkpoint
#: document, whose keys are the document's (:func:`read_record`); each
#: nested record is checked where it is read.
_FIELDS = {
    "version": (Integral,),
    "config": (Mapping,),
    "start": (Integral,),
    "clock_now": (Real,),
    "rng_state": (Mapping,),
    "job_sequence": (Integral, 0),
    "epochs_run": (Integral, 0),
    "budget_exhausted": (bool,),
    "jobs": ([Mapping],),
    "pending": ([str],),
    "running": ([str],),
    "driver_cursor": (Integral, 0),
    "counter": (Mapping,),
    "ledger": (Mapping,),
    "discovered": (Mapping,),
    "crawler": (Mapping,),
    "topology": (Mapping, None, True),
}

#: The same for each job's record (:func:`_job_document`).
_JOB_FIELDS = {
    "job_id": (str,),
    "spec": (Mapping,),
    "rng_state": (Mapping,),
    "state": (str,),
    "rounds": (Integral, 0),
    "exhausted_rounds": (Integral, 0),
    "submitted_at": (Real,),
    "first_partial_at": (Real, None, True),
    "values": (str,),
    "weights": (str,),
    "partials": ([Mapping],),
    "result": (Mapping, None, True),
}

#: The counter's, ledger's, live epoch's and discovered rows' records.
_COUNTER_FIELDS = {"seen": ([Integral],), "raw_calls": (Integral, 0)}
_LEDGER_FIELDS = {"baseline": (Integral, 0), "charges": (Mapping,)}
_TOPOLOGY_FIELDS = {"epoch": (Integral, 0), "rows": (Integral, 0)}
_ROW_FIELDS = dict.fromkeys(("ids", "lengths", "flat", "marked"), (str,))

_FLOAT64 = np.dtype("<f8")
_INT64 = np.dtype("<i8")

#: Float fields of partials and results that may be non-finite.
_NONFINITE_FIELDS = ("estimate", "stderr")


def _encode(array, dtype: np.dtype) -> str:
    """Base64 of *array*'s little-endian bytes: exact, compact, JSON-safe."""
    raw = np.ascontiguousarray(array, dtype=dtype).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _decode(blob: str, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`_encode`: a fresh native-order array."""
    try:
        raw = base64.b64decode(blob, validate=True)
        return np.frombuffer(raw, dtype=dtype).astype(dtype.newbyteorder("="))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"corrupt {dtype.name} blob in checkpoint: {exc}"
        ) from exc


def _float_document(value: float) -> Union[float, str]:
    """*value* as a JSON number, or as a one-value blob when non-finite."""
    return value if math.isfinite(value) else _encode([value], _FLOAT64)


def _float_from(value: Union[float, str]) -> float:
    """Inverse of :func:`_float_document`, bit for bit."""
    if not isinstance(value, str):
        return float(value)
    decoded = _decode(value, _FLOAT64)
    if decoded.size != 1:
        raise CheckpointError(f"expected one float64, got {decoded.size}")
    return float(decoded[0])


def _record_document(record) -> Dict[str, Any]:
    """A partial's or result's fields, non-finite floats as blobs."""
    doc = dict(vars(record))
    for field in _NONFINITE_FIELDS:
        doc[field] = _float_document(doc[field])
    return doc


def _record_from(owner: str, cls, doc: Any):
    """Inverse of :func:`_record_document`: a *cls* record."""
    fields = read_record(owner, doc, cls.__dataclass_fields__.keys())
    check_fields(owner, fields, cls, CheckpointError)
    for field in _NONFINITE_FIELDS:
        if not isinstance(fields[field], str):
            check_field(owner, field, fields[field], Real, error=CheckpointError)
        fields[field] = _float_from(fields[field])
    if "state" in fields:
        fields["state"] = rebuild(f"{owner} state", JobState, fields["state"])
    return cls(**fields)


def read_record(owner: str, doc: Any, keys) -> Dict[str, Any]:
    """:func:`~repro.errors.checked_fields`, refusing with a
    :class:`CheckpointError`: how every record of a checkpoint is read."""
    return checked_fields(owner, doc, keys, CheckpointError)


def rebuild(what: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ``ValueError`` it raises (a
    ``ConfigurationError`` included) is refused as a
    :class:`CheckpointError` naming *what*, chained from it."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise CheckpointError(f"cannot rebuild the {what}: {exc}") from exc


def _rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """A generator's full bit-generator state (plain ints, JSON-safe)."""
    return rng.bit_generator.state


def _restore_rng(rng: np.random.Generator, state: Mapping[str, Any]) -> None:
    """Put *rng* exactly where the snapshot left it."""
    expected = rng.bit_generator.state["bit_generator"]
    if state.get("bit_generator") != expected:
        raise CheckpointError(
            f"checkpoint rng uses bit generator "
            f"{state.get('bit_generator')!r}, this build uses {expected!r}"
        )
    try:
        rng.bit_generator.state = dict(state)
    except (TypeError, KeyError, ValueError) as exc:
        raise CheckpointError(f"corrupt rng state in checkpoint: {exc!r}") from exc


def _job_document(job: Job) -> Dict[str, Any]:
    """One job's full resumable state (spec, stream position, samples)."""
    values, weights = job.sample_arrays()
    doc: Dict[str, Any] = {
        "job_id": job.job_id,
        "spec": job.spec.to_dict(),
        "rng_state": _rng_state(job.rng),
        "state": job.state.value,
        "rounds": job.rounds,
        "exhausted_rounds": job.exhausted_rounds,
        "submitted_at": job.submitted_at,
        "first_partial_at": job.first_partial_at,
        "values": _encode(values, _FLOAT64),
        "weights": _encode(weights, _FLOAT64),
        "partials": [_record_document(partial) for partial in job.partials],
        "result": None,
    }
    if job.result is not None:
        result = _record_document(job.result)
        result["state"] = job.result.state.value
        doc["result"] = result
    return doc


def _rebuild_job(doc: Any) -> Job:
    """Inverse of :meth:`_job_document`: a job mid-flight, bit for bit."""
    doc = read_record("checkpoint job", doc, _JOB_FIELDS)
    owner = f"checkpoint job {doc['job_id']!r}"
    spec = rebuild(f"{owner} spec", EstimationJobSpec.from_dict, doc["spec"])
    state = rebuild(f"{owner} state", JobState, doc["state"])
    job = Job(doc["job_id"], spec, np.random.default_rng())
    _restore_rng(job.rng, doc["rng_state"])
    job.rounds = doc["rounds"]
    job.exhausted_rounds = doc["exhausted_rounds"]
    job.submitted_at = doc["submitted_at"]
    job.first_partial_at = doc["first_partial_at"]
    # One absorb of the concatenated samples: the job keeps every absorbed
    # round in one contiguous buffer, so current_estimate() sums the
    # identical float64 sequence the original service would have.
    values, weights = (_decode(doc[key], _FLOAT64) for key in ("values", "weights"))
    rebuild(f"{owner} samples", job.absorb, values, weights)
    job.partials = [
        _record_from(f"{owner} partial", PartialEstimate, partial)
        for partial in doc["partials"]
    ]
    if doc["result"] is None:
        job.state = state
    else:
        result = _record_from(f"{owner} result", JobResult, doc["result"])
        rebuild(f"{owner} result", job.resolve, result)
    return job


def _topology_document(service) -> Optional[Dict[str, int]]:
    """The live epoch's number and row watermark, or ``None`` before the
    first publish."""
    current = service.publisher.current
    if current is None:
        return None
    return {"epoch": int(current.epoch), "rows": int(current.rows)}


def _restore_topology(service, document: Any) -> None:
    """Rebuild the checkpoint's live epoch from the restored rows under its
    recorded number, and point the service's rounds at it."""
    if document is None:
        return
    topology = read_record("checkpoint topology", document, _TOPOLOGY_FIELDS)
    rebuild("checkpoint's live epoch", service.publisher.rebuild, **topology)
    service._swap_topology()


def capture(service) -> Dict[str, Any]:
    """Snapshot *service* into a JSON-safe checkpoint document.

    Call at an epoch boundary — between :meth:`SamplingService.step`
    calls, or from the service's own periodic checkpoint hook — when no
    crawl batch is in flight.  The document is self-contained modulo the
    hidden network: resuming needs a fresh charged API over the *same*
    network, and nothing else.
    """
    counter_state = service.api.counter.state()
    return {
        "version": CHECKPOINT_VERSION,
        "config": asdict(service.config),
        "start": int(service.start),
        "clock_now": float(service.clock.now),
        "rng_state": _rng_state(service._rng),
        "job_sequence": int(service._job_sequence),
        "epochs_run": int(service.epochs_run),
        "budget_exhausted": bool(service.budget_exhausted),
        "jobs": [_job_document(job) for job in service.jobs.values()],
        "pending": [job.job_id for job in service.scheduler.pending],
        "running": [job.job_id for job in service.scheduler.running],
        "driver_cursor": int(service.scheduler._driver_cursor),
        "counter": {
            "seen": list(counter_state[0]),
            "raw_calls": int(counter_state[1]),
        },
        "ledger": {
            "baseline": int(service.ledger.baseline),
            "charges": service.ledger.charges(),
        },
        "discovered": {
            key: _encode(array, _INT64)
            for key, array in service.api.discovered.snapshot_rows().items()
        },
        "crawler": service.crawler.state_dict(),
        "topology": _topology_document(service),
    }


def write(service, path: Union[str, Path]) -> Path:
    """Capture *service* and :func:`save` the document to *path*."""
    return save(capture(service), path)


def save(document: Mapping[str, Any], path: Union[str, Path]) -> Path:
    """Write a captured *document* atomically to *path*.

    Same writer as every benchmark artifact
    (:func:`repro.bench.io.atomic_write_json`): the document lands whole
    or not at all, so the previous checkpoint survives a crash mid-write.
    It is written compact (``indent=None``), through the C encoder.
    """
    return atomic_write_json(path, document, indent=None)


def load(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a checkpoint document from disk."""
    document = load_json(path)
    return validate(document)


def validate(document: Any) -> Dict[str, Any]:
    """Check a checkpoint document's version, keys and top-level fields;
    raise :class:`CheckpointError`."""
    if isinstance(document, Mapping) and document.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {document.get('version')!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    return read_record("checkpoint", document, _FIELDS)


def restore(service, document: Any) -> None:
    """Load a *document* into a freshly constructed *service*.

    The service must have been built over an API whose discovered store
    is empty (the row restore refuses otherwise) and must not have run
    any epoch or accepted any job yet.  Restore order matters: rows and
    counter first (the §2.4 cache and its proof of payment), then the
    ledger (whose balance check reads the counter), then crawler, jobs,
    and scheduler.  Each record is checked as it is read, and nothing
    is coerced: a document that fails a check raises
    :class:`CheckpointError`, naming the key or field.
    """
    document = validate(document)
    if service.jobs or service.epochs_run:
        raise CheckpointError(
            "restore targets must be freshly constructed services "
            f"(this one has {len(service.jobs)} jobs and "
            f"{service.epochs_run} epochs run)"
        )
    if document["start"] != service.start:
        raise CheckpointError(
            f"checkpoint was captured for start node {document['start']}, "
            f"but this service starts at {service.start}"
        )
    rows = read_record("checkpoint discovered", document["discovered"], _ROW_FIELDS)
    service.api.discovered.restore_rows(
        {key: _decode(blob, _INT64) for key, blob in rows.items()}
    )
    counter = read_record("checkpoint counter", document["counter"], _COUNTER_FIELDS)
    service.api.counter.restore(counter["seen"], counter["raw_calls"])
    owner = "checkpoint ledger"
    ledger = read_record(owner, document["ledger"], _LEDGER_FIELDS)
    rebuild(owner, service.ledger.restore, ledger["baseline"], ledger["charges"])
    service.crawler.restore_state(document["crawler"])
    if document["clock_now"] > service.clock.now:
        service.clock.advance_to(document["clock_now"])
    _restore_rng(service._rng, document["rng_state"])
    service._job_sequence = document["job_sequence"]
    service.epochs_run = document["epochs_run"]
    service.budget_exhausted = document["budget_exhausted"]
    for doc in document["jobs"]:
        job = _rebuild_job(doc)
        service.jobs[job.job_id] = job
    pending, running = document["pending"], document["running"]
    for job_id in pending + running:
        if job_id not in service.jobs:
            raise CheckpointError(
                f"scheduler references unknown job {job_id!r}"
            )
    service.scheduler.pending.extend(service.jobs[job_id] for job_id in pending)
    service.scheduler.running.extend(service.jobs[job_id] for job_id in running)
    service.scheduler._driver_cursor = document["driver_cursor"]
    # Last, once rows and jobs are in place: rebuild the live epoch from
    # the rows restored above.
    _restore_topology(service, document["topology"])
