"""The benchmark's three workloads: inputs from a seed, timed ops, checks.

Each workload builds its hidden graph from the workload seed, hands the
library only the generated inputs, and drives the library's public entry
points: :func:`repro.estimate` for ``we-batch`` and ``charged``, one
:class:`~repro.service.SamplingService` per campaign for ``service``.
``repro.estimate`` is looked up on every call, so a traced run sees the
wrapped dispatcher.

A workload reports three kinds of numbers:

* op latencies and accepted samples, through a :class:`Meter`, which also
  times a fixed reference computation around every op so that latencies
  can be stated at reference speed (:func:`at_reference_speed`);
* named output checks, also through the meter; a failed check fails the
  op it belongs to;
* *exact* metrics (query cost per sample, error against the hidden graph,
  simulated seconds), which depend only on the seed and the run length.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

import repro
from repro.core import EngineConfig, EstimationJobSpec, WalkEstimateConfig
from repro.crawl.clock import drive
from repro.datasets import build_dataset
from repro.errors import ConfigurationError
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI
from repro.service import JobState, SamplingService, ServiceConfig

from tracing import ROOT_BUCKET, Recorder

DESIGNS = ("srw", "mhrw")

#: Free-graph walk settings, shared by ``we-batch`` and ``service`` tenants.
BATCH_WALK = WalkEstimateConfig(
    walk_length=10,
    backward_repetitions=8,
    refine_repetitions=0,
    calibration_walks=15,
)

#: The paper's algorithm against a charged API (``charged``).
CHARGED_WALK = WalkEstimateConfig(
    crawl_hops=1,
    diameter_hint=4,
    backward_repetitions=6,
    calibration_walks=10,
)

#: Per-batch crawl latency, in simulated seconds (``bench_service.py``'s).
LATENCY_SCRIPT = (1.0, 0.25, 0.5, 2.0, 0.75, 1.5)

SHM_DIR = Path("/dev/shm")

#: Real seconds that :func:`reference_seconds` takes on a host of
#: reference speed.  Timings are reported at that speed.
REFERENCE_S = 0.001
_REFERENCE_INPUT = np.arange(30_000, dtype=np.float64)


def reference_seconds() -> float:
    """Real time of a fixed computation that uses nothing from the library.

    It mixes interpreted Python with NumPy sorting, as the workloads do,
    and creates no objects the garbage collector tracks, so the state of
    the library's heap does not change it; the host's speed does.  It is
    part of the benchmark's definition: changing it changes every timing.
    """
    began = perf_counter()
    total = 0
    for i in range(4000):
        total += i * i % 7
    np.cumsum(np.sort(_REFERENCE_INPUT * 1.0001))
    return perf_counter() - began


def at_reference_speed(seconds: float, reference: float) -> float:
    """*seconds* of real time, measured while :func:`reference_seconds`
    took *reference*, restated at reference speed."""
    return seconds * REFERENCE_S / reference


def op_rng(seed: int, stream: int, index: int, part: int = 0) -> np.random.Generator:
    """The generator for one op.  *stream* separates its uses: 0 timed
    ops, 1 warm-up, 2 service campaigns."""
    return np.random.default_rng([seed, stream, index, part])


class Meter:
    """Op latencies, accepted samples, failed ops and named output checks.

    With *every* > 0, *interlude* runs before every *every*-th op, outside
    its timing.  The reference computation is timed before the first op
    and after every op, outside their timing.
    """

    def __init__(
        self,
        recorder: Optional[Recorder] = None,
        interlude: Optional[Callable[[], None]] = None,
        every: int = 0,
    ) -> None:
        self.recorder = recorder
        self.interlude = interlude
        self.every = every
        self.latencies: List[float] = []
        #: Reference times: one before the first op, then one after each.
        self.references: List[float] = []
        #: Accepted samples of the timed ops.
        self.samples = 0
        self.failed: set = set()
        self.errors: List[str] = []
        self.checks: Dict[str, List[int]] = {}

    @contextmanager
    def op(self):
        """Time one op; an exception fails the op instead of the run."""
        index = len(self.latencies)
        if self.every and index and index % self.every == 0:
            self.interlude()
        if not self.references:
            self.references.append(reference_seconds())
        recorder = self.recorder
        start = perf_counter()
        if recorder is not None:
            recorder.active = True
            root = recorder.enter(ROOT_BUCKET, "other")
        try:
            yield
        except Exception as error:  # the op boundary: record, keep running
            self.failed.add(index)
            self.errors.append(f"op {index}: {error!r}")
        finally:
            if recorder is not None:
                recorder.exit(root)
                recorder.active = False
            self.latencies.append(perf_counter() - start)
            self.references.append(reference_seconds())

    def scaled_latencies(self) -> List[float]:
        """Each op's latency at reference speed, by the mean of the
        reference times taken just before and just after it."""
        refs = self.references
        return [
            at_reference_speed(latency, (refs[i] + refs[i + 1]) / 2.0)
            for i, latency in enumerate(self.latencies)
        ]

    def op_failed(self) -> bool:
        """Whether the most recent op failed."""
        return len(self.latencies) - 1 in self.failed

    def check(self, name: str, ok: bool) -> bool:
        """Tally a named check; a failure fails the most recent op."""
        tally = self.checks.setdefault(name, [0, 0])
        tally[0 if ok else 1] += 1
        if not ok and self.latencies:
            self.failed.add(len(self.latencies) - 1)
        return ok


class ImportanceMean:
    """``Σ f/q̃ / Σ 1/q̃``: a population mean from target-weighted samples."""

    def __init__(self) -> None:
        self.weighted = 0.0
        self.weights = 0.0

    def add(self, values, target_weights) -> None:
        inverse = 1.0 / np.asarray(target_weights, dtype=np.float64)
        self.weighted += float(np.dot(inverse, np.asarray(values, dtype=np.float64)))
        self.weights += float(inverse.sum())

    def relative_error(self, truth: float) -> float:
        return abs(self.weighted / self.weights - truth) / truth


def mean_of(values) -> float:
    return float(sum(values) / len(values))


# ----------------------------------------------------------------------
# we-batch: free-graph WALK-ESTIMATE rounds
# ----------------------------------------------------------------------
@dataclass
class WeBatchEnv:
    csr: object
    truth: float
    specs: tuple


class WeBatch:
    """One op: an SRW round then an MHRW round, K = 4096 walks each."""

    name = "we-batch"
    ops_per_second = 23.0
    k_walks = 4096
    nodes, attach = 5000, 5

    def ops(self, seconds: float) -> int:
        return max(4, round(seconds * self.ops_per_second))

    def setup(self, seed: int, seconds: float, workdir: Path) -> WeBatchEnv:
        csr = barabasi_albert_graph(self.nodes, self.attach, seed=seed).compile()
        specs = tuple(
            EstimationJobSpec(
                design=design,
                samples=self.k_walks,
                walk=BATCH_WALK,
                engine=EngineConfig(backend="batch"),
            )
            for design in DESIGNS
        )
        return WeBatchEnv(csr, float(csr.degrees.mean()), specs)

    def warm_up(self, env: WeBatchEnv, seed: int) -> None:
        for part, spec in enumerate(env.specs):
            repro.estimate(spec, graph=env.csr, seed=op_rng(seed, 1, 0, part))

    def run(self, env: WeBatchEnv, seed: int, seconds: float, meter: Meter) -> dict:
        degrees = env.csr.degrees
        means = {design: ImportanceMean() for design in DESIGNS}
        candidates = 0
        for index in range(self.ops(seconds)):
            rngs = [op_rng(seed, 0, index, part) for part in range(len(DESIGNS))]
            results = []
            with meter.op():
                for spec, rng in zip(env.specs, rngs):
                    results.append(repro.estimate(spec, graph=env.csr, seed=rng))
            if meter.op_failed():
                continue
            for design, result in zip(DESIGNS, results):
                nodes = result.nodes
                meter.check(
                    "we-batch.accepted_nodes_in_graph",
                    bool(((nodes >= 0) & (nodes < degrees.size)).all()),
                )
                target = degrees[nodes] if design == "srw" else np.ones(nodes.size)
                meter.check(
                    "we-batch.weights_equal_target",
                    np.array_equal(result.weights, target),
                )
                estimates = result.raw.estimates
                meter.check(
                    "we-batch.estimates_finite_nonnegative",
                    bool(np.isfinite(estimates).all() and (estimates >= 0).all()),
                )
                meter.samples += result.accepted
                candidates += result.attempts
                means[design].add(degrees[nodes], result.weights)
        errors = {d: means[d].relative_error(env.truth) for d in DESIGNS}
        return {
            "ops": len(meter.latencies),
            "samples": meter.samples,
            "acceptance": meter.samples / candidates if candidates else 0.0,
            "truth_mean_degree": env.truth,
            "rel_error_by_design": errors,
            "rel_error": mean_of(errors.values()),
        }

    def close(self, env: WeBatchEnv) -> None:
        pass


# ----------------------------------------------------------------------
# charged: WALK-ESTIMATE campaigns against a charged API
# ----------------------------------------------------------------------
@dataclass
class ChargedEnv:
    graph: object
    truth: Dict[str, float]
    specs: Dict[str, EstimationJobSpec]


class Charged:
    """One op: a 10-sample campaign on a fresh API; SRW and MHRW alternate."""

    name = "charged"
    ops_per_second = 12.0
    samples = 10
    aggregates = ("degree", "stars")

    def ops(self, seconds: float) -> int:
        return max(4, round(seconds * self.ops_per_second))

    def setup(self, seed: int, seconds: float, workdir: Path) -> ChargedEnv:
        dataset = build_dataset("yelp", seed=seed)
        specs = {
            design: EstimationJobSpec(
                design=design,
                samples=self.samples,
                walk=CHARGED_WALK,
                engine=EngineConfig(backend="charged"),
            )
            for design in DESIGNS
        }
        truth = {name: dataset.aggregates[name] for name in self.aggregates}
        return ChargedEnv(dataset.graph, truth, specs)

    def warm_up(self, env: ChargedEnv, seed: int) -> None:
        api = SocialNetworkAPI(env.graph)
        repro.estimate(env.specs["srw"], api=api, seed=op_rng(seed, 1, 0))

    def run(self, env: ChargedEnv, seed: int, seconds: float, meter: Meter) -> dict:
        graph = env.graph
        means = {
            (design, name): ImportanceMean()
            for design in DESIGNS
            for name in self.aggregates
        }
        queries = 0
        for index in range(self.ops(seconds)):
            design = DESIGNS[index % len(DESIGNS)]
            api = SocialNetworkAPI(graph)
            rng = op_rng(seed, 0, index)
            with meter.op():
                result = repro.estimate(env.specs[design], api=api, seed=rng)
            if meter.op_failed():
                continue
            nodes = result.nodes.tolist()
            rows = api.discovered.fetched_count
            meter.check("charged.samples_returned", len(nodes) == self.samples)
            meter.check(
                "charged.query_cost_equals_counter",
                result.query_cost == api.counter.unique_nodes == rows,
            )
            degrees = [graph.degree(node) for node in nodes]
            target = degrees if design == "srw" else [1.0] * len(nodes)
            meter.check(
                "charged.weights_equal_target",
                np.array_equal(result.weights, np.asarray(target, dtype=np.float64)),
            )
            meter.samples += len(nodes)
            queries += result.query_cost
            means[design, "degree"].add(degrees, result.weights)
            stars = [graph.get_attribute("stars", node) for node in nodes]
            means[design, "stars"].add(stars, result.weights)
        errors = {
            f"{design}.{name}": mean.relative_error(env.truth[name])
            for (design, name), mean in means.items()
        }
        return {
            "ops": len(meter.latencies),
            "samples": meter.samples,
            "queries": queries,
            "queries_per_sample": queries / meter.samples if meter.samples else 0.0,
            "truth": env.truth,
            "rel_error_by_design": errors,
            "rel_error": mean_of(errors.values()),
        }

    def close(self, env: ChargedEnv) -> None:
        pass


# ----------------------------------------------------------------------
# service: multi-tenant campaigns
# ----------------------------------------------------------------------
@dataclass
class ServiceEnv:
    truth: float
    campaigns: List[SamplingService]


def shm_entries() -> set:
    """Names under /dev/shm (empty where the host has none)."""
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


class Service:
    """One op: one ``step()`` epoch of a 4-tenant campaign.

    Tenants are {SRW, MHRW} × {``batch``, ``sharded`` on 2 fork workers};
    a campaign runs until every job reaches its round limit.  Longer runs
    add whole campaigns, each on a fresh API over the same hidden graph.
    """

    name = "service"
    seconds_per_campaign = 5.0
    nodes, attach = 4000, 4
    walks_per_round = 256
    tenant_budget = 1200
    #: Every job runs this many rounds, one per epoch.
    rounds_per_job = 120

    def campaigns(self, seconds: float) -> int:
        return max(1, round(seconds / self.seconds_per_campaign))

    def ops(self, seconds: float) -> int:
        return self.campaigns(seconds) * self.rounds_per_job

    def _config(self, workdir: Path) -> ServiceConfig:
        return ServiceConfig(
            rows_per_epoch=40,
            max_rounds_per_job=self.rounds_per_job,
            checkpoint_path=str(workdir / "service-checkpoint.json"),
            checkpoint_every=25,
            slab_storage="shm",
            n_workers=2,
            mp_context="fork",
        )

    def specs(self) -> List[EstimationJobSpec]:
        return [
            EstimationJobSpec(
                design=design,
                samples=self.walks_per_round,
                query_budget=self.tenant_budget,
                tenant=f"{design}-{backend}",
                walk=BATCH_WALK,
                engine=EngineConfig(backend=backend),
            )
            for design in DESIGNS
            for backend in ("batch", "sharded")
        ]

    def setup(self, seed: int, seconds: float, workdir: Path) -> ServiceEnv:
        graph = barabasi_albert_graph(self.nodes, self.attach, seed=seed)
        truth = 2.0 * graph.number_of_edges() / graph.number_of_nodes()
        campaigns = []
        for index in range(self.campaigns(seconds)):
            campaign_dir = workdir / f"campaign-{index}"
            campaign_dir.mkdir(parents=True, exist_ok=True)
            campaigns.append(
                SamplingService(
                    SocialNetworkAPI(graph),
                    0,
                    config=self._config(campaign_dir),
                    latency=list(LATENCY_SCRIPT),
                    seed=op_rng(seed, 2, index),
                )
            )
        return ServiceEnv(truth, campaigns)

    def warm_up(self, env: ServiceEnv, seed: int) -> None:
        pass

    async def _epochs(self, service: SamplingService, meter: Meter) -> None:
        for spec in self.specs():
            service.submit_nowait(spec)
        resolved: set = set()
        while service.scheduler.has_work:
            before = sum(job.samples for job in service.jobs.values())
            with meter.op():
                await service.step()
            if meter.op_failed():
                return
            meter.samples += sum(job.samples for job in service.jobs.values()) - before
            done = [
                job
                for job in service.jobs.values()
                if job.state.terminal and job.job_id not in resolved
            ]
            resolved.update(job.job_id for job in done)
            meter.check(
                "service.epoch_resolves_only_completed",
                all(job.state is JobState.COMPLETED for job in done),
            )

    def run(self, env: ServiceEnv, seed: int, seconds: float, meter: Meter) -> dict:
        shm_before = shm_entries()
        queries, errors, clocks = 0, [], []
        for service in env.campaigns:
            drive(service.clock, self._epochs(service, meter))
            try:
                service.ledger.assert_balanced()
                balanced = True
            except ConfigurationError:
                balanced = False
            meter.check("service.ledger_balanced", balanced)
            meter.check(
                "service.tenant_charges_sum_to_query_cost",
                sum(service.ledger.charges().values()) == service.api.query_cost,
            )
            jobs = list(service.jobs.values())
            meter.check(
                "service.every_job_completed",
                all(job.state is JobState.COMPLETED for job in jobs),
            )
            queries += service.api.query_cost
            clocks.append(service.clock.now)
            errors.extend(
                abs(job.result.estimate - env.truth) / env.truth
                for job in jobs
                if job.result is not None
            )
            service.close()
            meter.check(
                "service.no_shm_segment_after_close", shm_entries() <= shm_before
            )
            checkpoint_dir = Path(service.config.checkpoint_path).parent
            leftovers = [
                path.name
                for path in checkpoint_dir.iterdir()
                if path.suffix in (".tmp", ".slab")
            ]
            meter.check("service.no_temp_file_after_close", not leftovers)
        return {
            "ops": len(meter.latencies),
            "campaigns": len(env.campaigns),
            "samples": meter.samples,
            "queries": queries,
            "queries_per_sample": queries / meter.samples if meter.samples else 0.0,
            "truth_mean_degree": env.truth,
            "rel_error": mean_of(errors) if errors else 0.0,
            "sim_s": mean_of(clocks),
        }

    def close(self, env: ServiceEnv) -> None:
        for service in env.campaigns:
            service.close()


WORKLOADS = {workload.name: workload for workload in (WeBatch(), Charged(), Service())}
