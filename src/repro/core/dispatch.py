"""One front door for every WALK-ESTIMATE engine: ``estimate(job)``.

The estimation entry points come in two shapes: the charged sampler
(:class:`~repro.core.walk_estimate.WalkEstimateSampler`, or its long-run
twin) and the free-graph rounds
(:func:`~repro.core.walk_estimate.walk_estimate_batch` /
:func:`~repro.core.long_run_we.long_run_walk_estimate_batch`), which run
in process over a graph or on the worker pool of a
:class:`~repro.walks.parallel.ShardedWalkEngine`.  Each is the right tool
for one regime, but a *caller* — the CLI, the serving layer, a notebook
— should not have to know every signature to pick one.

This module is the unification:

* :class:`EngineConfig` names the regime — ``backend`` (``charged`` /
  ``batch`` / ``sharded``) × ``long_run`` — plus the worker count.
  Each engine choice has one knob: ``backend`` alone picks the engine,
  and the job's walk config alone names the kernel backend
  (:attr:`~repro.core.config.WalkEstimateConfig.kernel_backend`);
* :class:`EstimationJobSpec` is one complete, JSON-round-trippable job
  description: transition design, sample count, estimand, error target,
  query budget, tenant, seed, walk knobs, engine config.  It is the wire
  format of :mod:`repro.service` and the file format of the
  ``walk-not-wait estimate`` CLI — one schema for both;
* :func:`estimate` dispatches a spec to the matching front end and wraps
  the native result in an :class:`EstimateResult` with normalized
  accessors.

**Parity contract.**  The dispatcher adds *zero* behavior: for any spec it
calls exactly one of the historical front ends with the same arguments and
the same seed, so its raw output is bit-identical to the direct call —
pinned per engine row in ``tests/core/test_dispatch.py``.  The old entry
points remain importable as the compatibility surface; new code should
route through :func:`estimate`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from numbers import Integral, Real
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro.core.config import WalkEstimateConfig
from repro.core.long_run_we import (
    LongRunWalkEstimateSampler,
    long_run_walk_estimate_batch,
)
from repro.core.walk_estimate import (
    BatchWalkEstimateResult,
    WalkEstimateSampler,
    walk_estimate_batch,
)
from repro.errors import ConfigurationError, check_field, check_fields, checked
from repro.errors import checked_fields
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.rng import RngLike
from repro.walks.kernels import MAXDEG, MHRW, SRW, compile_design
from repro.walks.kernels import require_backend as require_kernel_backend
from repro.walks.samplers import SampleBatch
from repro.walks.transitions import (
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
    TransitionDesign,
)

#: Backends the dispatcher knows.  ``charged`` is the one charged-API
#: engine, the scalar sampler; ``batch`` and ``sharded`` run free-graph
#: rounds.
BACKENDS = ("charged", "batch", "sharded")

#: Estimands the serving layer can evaluate for free (from the discovered
#: store, no API charges).  The spec carries the name; the service maps it.
ESTIMANDS = ("degree",)


# ----------------------------------------------------------------------
# Transition-design specs (the JSON form of a TransitionDesign)
# ----------------------------------------------------------------------
#: The keys each design's spec may carry besides its name.
_DESIGN_KEYS = {
    "srw": (),
    "mhrw": (),
    "maxdeg": ("max_degree",),
    "lazy": ("inner", "laziness"),
}


def design_from_spec(spec: Union[str, Mapping[str, Any]]) -> TransitionDesign:
    """Build a transition design from its JSON-safe spec.

    Accepted forms::

        "srw"                                   # shorthand for {"name": "srw"}
        {"name": "mhrw"}
        {"name": "maxdeg", "max_degree": 40}    # any finite real >= 1
        {"name": "lazy", "laziness": 0.5, "inner": "srw"}   # inner nests

    Only the WALK-ESTIMATE-capable designs are constructible here (SRW,
    MHRW, LazyWalk over any of them, MaxDegreeWalk) — the rows of the
    ROADMAP engine table the batch/sharded front ends support.
    """
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, Mapping) or "name" not in spec:
        raise ConfigurationError(
            f"design spec must be a name or a mapping with a 'name', got {spec!r}"
        )
    name = spec["name"]
    check_field("design spec", "design", name, tuple(_DESIGN_KEYS))
    unexpected = set(spec) - {"name", *_DESIGN_KEYS[name]}
    if unexpected:
        raise ConfigurationError(
            f"unexpected keys for design {name!r}: {sorted(unexpected)}"
        )
    if name == "maxdeg":
        bound = spec.get("max_degree")
        check_field("maxdeg design", "max_degree", bound, Real, 1)
        if bound == float("inf"):
            raise ConfigurationError(f"maxdeg 'max_degree' must be finite, got {bound}")
        return MaxDegreeWalk(max_degree=bound)
    if name == "lazy":
        if "inner" not in spec:
            raise ConfigurationError("lazy design spec needs an 'inner' design")
        laziness = spec.get("laziness", 0.5)
        check_field("lazy design", "laziness", laziness, Real)
        return LazyWalk(design_from_spec(spec["inner"]), laziness=float(laziness))
    return SimpleRandomWalk() if name == "srw" else MetropolisHastingsWalk()


#: The spec name of each inner design code :func:`compile_design` returns.
_SPEC_NAMES = {SRW: "srw", MHRW: "mhrw", MAXDEG: "maxdeg"}


def design_to_spec(design: TransitionDesign) -> Dict[str, Any]:
    """The inverse of :func:`design_from_spec`: a JSON-safe design spec.

    Read off :func:`~repro.walks.kernels.compile_design`'s record: a
    subclass, whose law may differ from its parent's, has no spec.  A
    max-degree bound is written unchanged, as an int when integral.
    """
    compiled = compile_design(design)
    if compiled is None:
        raise ConfigurationError(
            f"design {design!r} has no spec form (specs name SRW, MHRW, "
            "MaxDegreeWalk and LazyWalk by exact type)"
        )
    spec: Dict[str, Any] = {"name": _SPEC_NAMES[compiled.code]}
    if compiled.code == MAXDEG:
        bound = compiled.max_degree
        spec["max_degree"] = int(bound) if float(bound).is_integer() else float(bound)
    for laziness in reversed(compiled.laziness):
        spec = {"name": "lazy", "laziness": laziness, "inner": spec}
    return spec


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineConfig:
    """Which estimation engine a job runs on, and its shape.

    Attributes
    ----------
    backend:
        ``charged`` — the scalar WALK-ESTIMATE sampler over a charged
        :class:`~repro.osn.api.SocialNetworkAPI`, one forward walk,
        estimate and coin per candidate; ``batch`` — the vectorized
        free-graph round over a compiled
        :class:`~repro.graphs.csr.CSRGraph`; ``sharded`` — the same
        round split into a shard plan and run on an executor: in
        process, as the CLI and :mod:`repro.service` do, or on a
        :class:`~repro.walks.parallel.ShardedWalkEngine`.
    long_run:
        Segment one (or K) continuous walks instead of restarting per
        sample (§6.1 future work) — selects the long-run twin of the
        chosen backend.
    n_workers:
        Shard count of a ``sharded`` job the CLI runs in process (one
        when unset).  The shards run one after another, so the count
        picks the plan's random streams, not parallelism.
        :func:`estimate` takes its executor from the caller, and it and
        :mod:`repro.service` ignore this field (the service takes its
        shard count from ``ServiceConfig.n_workers``).

    The kernel backend of the free-graph rounds is not an engine field:
    the job's :class:`~repro.core.config.WalkEstimateConfig` names it.
    """

    backend: str = checked(BACKENDS, default="batch")
    long_run: bool = checked(bool, default=False)
    n_workers: Optional[int] = checked(Integral, 1, optional=True, default=None)

    def __post_init__(self) -> None:
        check_fields("EngineConfig", vars(self), EngineConfig)

    def with_overrides(self, **changes) -> "EngineConfig":
        """Copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form (the wire/CLI schema)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        return cls(**checked_fields(cls, data))


# ----------------------------------------------------------------------
# Job specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EstimationJobSpec:
    """One complete estimation job, as data.

    The single schema shared by the :func:`estimate` dispatcher, the
    ``walk-not-wait estimate --job job.json`` CLI, and the
    :mod:`repro.service` wire format — a spec built in code round-trips
    through :meth:`to_json` / :meth:`from_json` unchanged.

    Attributes
    ----------
    design:
        Transition-design spec (see :func:`design_from_spec`); stored
        canonically as a dict, accepted as a shorthand string too.
    samples:
        Charged: samples to draw.  Batch/sharded: walks per round
        (``k_walks``), or continuous runs (``k_runs``) under ``long_run``.
    start:
        Walk origin.
    segments:
        Segments per continuous run (``long_run`` engines only).
    estimand:
        What the serving layer evaluates on the accepted samples —
        ``degree`` (true discovered degree, free per §2.4) is built in;
        the dispatcher itself only carries the name.
    error_target:
        Stop refining once the running estimate's standard error is at or
        under this (service-level semantics; ``None`` = run to budget).
    query_budget:
        Unique-node budget for this job's *tenant* (service-level
        admission/preemption input; the charged backend also honors the
        API's own budget).
    tenant:
        Accounting principal for :class:`~repro.osn.accounting.TenantLedger`
        attribution.
    seed:
        Deterministic seed; ``None`` lets the caller supply a stream.
    walk:
        The :class:`~repro.core.config.WalkEstimateConfig` knobs, the
        kernel backend included.  The backend must be available on this
        host: ``native`` without numba fails here, with the install
        hint, rather than mid-job.
    engine:
        The :class:`EngineConfig` regime selection.
    """

    design: Union[str, Mapping[str, Any]] = "srw"
    samples: int = checked(Integral, 1, default=1)
    start: int = checked(Integral, default=0)
    segments: int = checked(Integral, 1, default=1)
    estimand: str = checked(ESTIMANDS, default="degree")
    error_target: Optional[float] = checked(Real, optional=True, default=None)
    query_budget: Optional[int] = checked(Integral, 0, optional=True, default=None)
    tenant: str = "default"
    seed: Optional[int] = checked(Integral, optional=True, default=None)
    walk: WalkEstimateConfig = checked(
        WalkEstimateConfig, default_factory=WalkEstimateConfig
    )
    engine: EngineConfig = checked(EngineConfig, default_factory=EngineConfig)

    def __post_init__(self) -> None:
        # Canonicalize the design spec eagerly: errors surface at spec
        # construction, not mid-dispatch, and to_dict() is total.
        canonical = design_to_spec(design_from_spec(self.design))
        object.__setattr__(self, "design", canonical)
        check_fields("EstimationJobSpec", vars(self), EstimationJobSpec)
        if self.error_target is not None and not 0 < self.error_target:
            raise ConfigurationError(
                f"error_target must be > 0 or None, got {self.error_target}"
            )
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ConfigurationError(
                f"EstimationJobSpec 'tenant' must be a non-empty string, "
                f"got {self.tenant!r}"
            )
        require_kernel_backend(self.walk.kernel_backend)

    def build_design(self) -> TransitionDesign:
        """The spec's transition design, constructed fresh."""
        return design_from_spec(self.design)

    def with_overrides(self, **changes) -> "EstimationJobSpec":
        """Copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form — the service wire format and CLI schema."""
        return {
            "design": dict(self.design),
            "samples": self.samples,
            "start": self.start,
            "segments": self.segments,
            "estimand": self.estimand,
            "error_target": self.error_target,
            "query_budget": self.query_budget,
            "tenant": self.tenant,
            "seed": self.seed,
            "walk": asdict(self.walk),
            "engine": self.engine.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EstimationJobSpec":
        """Inverse of :meth:`to_dict`; nested configs rebuild and re-validate."""
        fields = checked_fields(cls, data)
        if "walk" in fields and isinstance(fields["walk"], Mapping):
            fields["walk"] = WalkEstimateConfig(
                **checked_fields(WalkEstimateConfig, fields["walk"])
            )
        if "engine" in fields and isinstance(fields["engine"], Mapping):
            fields["engine"] = EngineConfig.from_dict(fields["engine"])
        return cls(**fields)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to JSON (one job per document)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "EstimationJobSpec":
        """Parse a :meth:`to_json` document (or any dict matching the schema)."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"job JSON must be an object, got {type(data).__name__}"
            )
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EstimateResult:
    """Normalized view over whichever front end a job dispatched to.

    :attr:`raw` is the front end's native return value, untouched — the
    parity tests compare it field for field against a direct call.  The
    accessors below give every backend one shape: accepted sample nodes,
    their target weights, and the cost/effort counters that exist for the
    backend (zero where the regime has none, e.g. query cost on free
    graphs).  Both raw types answer the same accessors, so each one
    delegates without asking which type it holds.
    """

    spec: EstimationJobSpec
    raw: Union[SampleBatch, BatchWalkEstimateResult]

    @property
    def nodes(self) -> np.ndarray:
        """Accepted sample node ids, as an int64 array."""
        return np.asarray(self.raw.nodes, dtype=np.int64)

    @property
    def weights(self) -> np.ndarray:
        """Target weights aligned to :attr:`nodes` (feed
        :func:`~repro.estimators.aggregates.average_estimate_arrays`)."""
        return np.asarray(self.raw.weights, dtype=np.float64)

    @property
    def accepted(self) -> int:
        """Number of accepted samples."""
        return int(self.nodes.size)

    @property
    def attempts(self) -> int:
        """Accept/reject decisions made (== candidates judged)."""
        return int(self.raw.attempts)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of candidates accepted."""
        return float(self.raw.acceptance_rate)

    @property
    def query_cost(self) -> int:
        """Unique-node queries the round charged (0 on free graphs)."""
        return int(self.raw.query_cost)

    @property
    def walk_steps(self) -> int:
        """Forward + backward transitions taken."""
        return int(self.raw.walk_steps)

    def to_sample_batch(self) -> SampleBatch:
        """The result as a :class:`SampleBatch` (scalar-era tooling)."""
        return self.raw.to_sample_batch()


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
def estimate(
    job: EstimationJobSpec,
    *,
    api=None,
    graph: Optional[Union[Graph, CSRGraph]] = None,
    engine=None,
    seed: RngLike = None,
) -> EstimateResult:
    """Run one estimation job on whichever engine its spec selects.

    The resource matching the spec's backend must be supplied; the
    others are ignored, so a caller serving several backends (the
    serving layer) may pass them all:

    ========== =====================================================
    backend     required resource
    ========== =====================================================
    charged     ``api`` — a charged :class:`~repro.osn.api.SocialNetworkAPI`
    batch       ``graph`` — a :class:`~repro.graphs.graph.Graph` or
                compiled :class:`~repro.graphs.csr.CSRGraph`
    sharded     ``engine`` — an executor: an
                :class:`~repro.walks.parallel.InlineExecutor` (the CLI
                and the service pass one) or a live
                :class:`~repro.walks.parallel.ShardedWalkEngine`
    ========== =====================================================

    *seed* overrides the spec's seed when given — the hook callers that
    manage their own RNG streams (the serving layer's per-job generators)
    use; with neither, randomness is unseeded.

    The dispatch is a pure fan-out: the selected front end receives the
    same design, start, counts, config, and seed a direct call would, so
    ``result.raw`` is bit-identical to that direct call — the parity
    contract ``tests/core/test_dispatch.py`` pins for every engine row.
    """
    design = job.build_design()
    config = job.walk
    backend = job.engine.backend
    run_seed = seed if seed is not None else job.seed

    if backend == "charged":
        if api is None:
            raise ConfigurationError(
                f"backend {backend!r} estimates against a charged API; pass api=..."
            )
        if job.engine.long_run:
            sampler: Any = LongRunWalkEstimateSampler(design, config)
        else:
            sampler = WalkEstimateSampler(design, config)
        raw: Union[SampleBatch, BatchWalkEstimateResult] = sampler.sample(
            api, job.start, job.samples, seed=run_seed
        )
    else:  # batch runs the round inline over the graph, sharded on the executor
        name, resource = ("graph", graph) if backend == "batch" else ("engine", engine)
        if resource is None:
            raise ConfigurationError(
                f"backend {backend!r} runs a free-graph round; pass {name}=..."
            )
        if job.engine.long_run:
            raw = long_run_walk_estimate_batch(
                resource,
                design,
                job.start,
                job.samples,
                job.segments,
                config=config,
                seed=run_seed,
            )
        else:
            raw = walk_estimate_batch(
                resource, design, job.start, job.samples, config=config, seed=run_seed
            )
    return EstimateResult(spec=job, raw=raw)
