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
"""

from __future__ import annotations

import base64
import math
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.bench.io import atomic_write_json, load_json
from repro.core.dispatch import EstimationJobSpec
from repro.errors import CheckpointError, ConfigurationError
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

#: Top-level keys every checkpoint document carries.
CHECKPOINT_KEYS = frozenset(
    {
        "version",
        "config",
        "start",
        "clock_now",
        "rng_state",
        "job_sequence",
        "epochs_run",
        "budget_exhausted",
        "jobs",
        "pending",
        "running",
        "driver_cursor",
        "counter",
        "ledger",
        "discovered",
        "crawler",
        "topology",
    }
)


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


def _record_fields(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`_record_document`: constructor keyword arguments."""
    fields = dict(doc)
    for field in _NONFINITE_FIELDS:
        fields[field] = _float_from(fields[field])
    return fields


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
    rng.bit_generator.state = dict(state)


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


def _rebuild_job(doc: Mapping[str, Any]) -> Job:
    """Inverse of :meth:`_job_document`: a job mid-flight, bit for bit."""
    job = Job(
        str(doc["job_id"]),
        EstimationJobSpec.from_dict(doc["spec"]),
        np.random.default_rng(),
    )
    _restore_rng(job.rng, doc["rng_state"])
    job.rounds = int(doc["rounds"])
    job.exhausted_rounds = int(doc["exhausted_rounds"])
    job.submitted_at = float(doc["submitted_at"])
    first_partial = doc["first_partial_at"]
    job.first_partial_at = None if first_partial is None else float(first_partial)
    # One absorb of the concatenated samples: the job keeps every absorbed
    # round in one contiguous buffer, so current_estimate() sums the
    # identical float64 sequence the original service would have.
    job.absorb(_decode(doc["values"], _FLOAT64), _decode(doc["weights"], _FLOAT64))
    job.partials = [
        PartialEstimate(**_record_fields(partial)) for partial in doc["partials"]
    ]
    result = doc["result"]
    if result is not None:
        rebuilt = _record_fields(result)
        rebuilt["state"] = JobState(rebuilt["state"])
        job.resolve(JobResult(**rebuilt))
    else:
        job.state = JobState(doc["state"])
    return job


def _topology_document(service) -> Optional[Dict[str, int]]:
    """The live epoch's number and row watermark, or ``None`` before the
    first publish."""
    current = service.publisher.current
    if current is None:
        return None
    return {"epoch": int(current.epoch), "rows": int(current.rows)}


def _restore_topology(service, document: Optional[Mapping[str, Any]]) -> None:
    """Rebuild the checkpoint's live epoch from the restored rows under its
    recorded number, and point the service's rounds at it."""
    if document is None:
        return
    try:
        service.publisher.rebuild(
            rows=int(document["rows"]), epoch=int(document["epoch"])
        )
    except ConfigurationError as exc:
        raise CheckpointError(f"cannot rebuild the live epoch: {exc}") from exc
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


def validate(document: Mapping[str, Any]) -> Dict[str, Any]:
    """Check a checkpoint document's shape; raise :class:`CheckpointError`."""
    if not isinstance(document, Mapping):
        raise CheckpointError(
            f"checkpoint must be a mapping, got {type(document).__name__}"
        )
    version = document.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    missing = CHECKPOINT_KEYS - set(document)
    if missing:
        raise CheckpointError(f"checkpoint is missing keys: {sorted(missing)}")
    unknown = set(document) - CHECKPOINT_KEYS
    if unknown:
        raise CheckpointError(f"checkpoint has unknown keys: {sorted(unknown)}")
    return dict(document)


def restore(service, document: Mapping[str, Any]) -> None:
    """Load a validated *document* into a freshly constructed *service*.

    The service must have been built over an API whose discovered store
    is empty (the row restore refuses otherwise) and must not have run
    any epoch or accepted any job yet.  Restore order matters: rows and
    counter first (the §2.4 cache and its proof of payment), then the
    ledger (whose balance check reads the counter), then crawler, jobs,
    and scheduler.
    """
    if service.jobs or service.epochs_run:
        raise CheckpointError(
            "restore targets must be freshly constructed services "
            f"(this one has {len(service.jobs)} jobs and "
            f"{service.epochs_run} epochs run)"
        )
    if int(document["start"]) != int(service.start):
        raise CheckpointError(
            f"checkpoint was captured for start node {document['start']}, "
            f"but this service starts at {service.start}"
        )
    service.api.discovered.restore_rows(
        {key: _decode(blob, _INT64) for key, blob in document["discovered"].items()}
    )
    counter = document["counter"]
    service.api.counter.restore(counter["seen"], int(counter["raw_calls"]))
    ledger = document["ledger"]
    service.ledger.restore(int(ledger["baseline"]), ledger["charges"])
    service.crawler.restore_state(dict(document["crawler"]))
    if float(document["clock_now"]) > service.clock.now:
        service.clock.advance_to(float(document["clock_now"]))
    _restore_rng(service._rng, document["rng_state"])
    service._job_sequence = int(document["job_sequence"])
    service.epochs_run = int(document["epochs_run"])
    service.budget_exhausted = bool(document["budget_exhausted"])
    for doc in document["jobs"]:
        job = _rebuild_job(doc)
        service.jobs[job.job_id] = job
    pending: List[str] = list(document["pending"])
    running: List[str] = list(document["running"])
    for job_id in pending + running:
        if job_id not in service.jobs:
            raise CheckpointError(
                f"scheduler references unknown job {job_id!r}"
            )
    service.scheduler.pending.extend(service.jobs[job_id] for job_id in pending)
    service.scheduler.running.extend(service.jobs[job_id] for job_id in running)
    service.scheduler._driver_cursor = int(document["driver_cursor"])
    # Last, once rows and jobs are in place: rebuild the live epoch from
    # the rows restored above.
    _restore_topology(service, document["topology"])
