"""The unified estimate() dispatcher: specs, JSON round-trips, parity.

The parity classes pin the ISSUE 6 contract: for every engine row of the
ROADMAP table, ``estimate(spec)`` output is bit-identical to the direct
front-end call with the same arguments and seed.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import rng as rng_module
from repro.core import (
    EngineConfig,
    EstimationJobSpec,
    LongRunWalkEstimateSampler,
    WalkEstimateConfig,
    WalkEstimateSampler,
    design_from_spec,
    design_to_spec,
    estimate,
    long_run_walk_estimate_batch,
    walk_estimate_batch,
)
from repro.errors import ConfigurationError
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI
from repro.walks.batch import run_walk_batch
from repro.walks.parallel import ShardedWalkEngine
from repro.walks.transitions import (
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)

class _SubSRW(SimpleRandomWalk):
    pass


class _SubMaxDegree(MaxDegreeWalk):
    pass


DESIGN_SPECS = {
    "srw": "srw",
    "mhrw": {"name": "mhrw"},
    "lazy-mhrw": {"name": "lazy", "laziness": 0.4, "inner": "mhrw"},
    "maxdeg": {"name": "maxdeg", "max_degree": 40},
}


@pytest.fixture(scope="module")
def hidden():
    return barabasi_albert_graph(150, 4, seed=6).relabeled()


@pytest.fixture(scope="module")
def csr(hidden):
    return hidden.compile()


@pytest.fixture(scope="module")
def config():
    return WalkEstimateConfig(
        walk_length=5,
        crawl_hops=1,
        backward_repetitions=4,
        refine_repetitions=1,
        calibration_walks=5,
    )


def batch_results_equal(a, b):
    return (
        np.array_equal(a.candidates, b.candidates)
        and np.array_equal(a.estimates, b.estimates)
        and np.array_equal(a.target_weights, b.target_weights)
        and np.array_equal(a.acceptance, b.acceptance)
        and np.array_equal(a.accepted, b.accepted)
        and a.forward_steps == b.forward_steps
        and a.backward_steps == b.backward_steps
    )


def sample_batches_equal(a, b):
    return (
        a.nodes == b.nodes
        and a.target_weights == b.target_weights
        and a.query_cost == b.query_cost
        and a.walk_steps == b.walk_steps
    )


def _lazy(laziness):
    """A job document whose lazy design has the given *laziness*."""
    return {"design": {"name": "lazy", "laziness": laziness, "inner": "srw"}}


#: Job documents with a field of the wrong kind, and the field.
WRONG_KINDS = {
    "laziness-str": (_lazy("0.25"), "laziness"),
    "laziness-null": (_lazy(None), "laziness"),
    "laziness-list": (_lazy([0.5]), "laziness"),
    "laziness-object": (_lazy({}), "laziness"),
    "samples-float": ({"samples": 2.5}, "samples"),
    "samples-bool": ({"samples": True}, "samples"),
    "samples-str": ({"samples": "5"}, "samples"),
    "start-str": ({"start": "0"}, "start"),
    "seed-float": ({"seed": 1.5}, "seed"),
    "error_target-str": ({"error_target": "0.1"}, "error_target"),
    "query_budget-bool": ({"query_budget": True}, "query_budget"),
    "tenant-list": ({"tenant": ["a"]}, "tenant"),
    "repetitions-bool": (
        {"walk": {"backward_repetitions": True}},
        "backward_repetitions",
    ),
    "walk_length-float": ({"walk": {"walk_length": 5.0}}, "walk_length"),
    "epsilon-str": ({"walk": {"epsilon": "0.2"}}, "epsilon"),
    "weighted_sampling-int": ({"walk": {"weighted_sampling": 0}}, "weighted_sampling"),
    "walk-str": ({"walk": "fast"}, "walk"),
    "n_workers-str": ({"engine": {"n_workers": "2"}}, "n_workers"),
    "long_run-int": ({"engine": {"long_run": 1}}, "long_run"),
}


class TestDesignSpecs:
    @pytest.mark.parametrize("spec", list(DESIGN_SPECS.values()), ids=DESIGN_SPECS)
    def test_round_trip(self, spec):
        design = design_from_spec(spec)
        canonical = design_to_spec(design)
        rebuilt = design_from_spec(canonical)
        assert design_to_spec(rebuilt) == canonical
        assert rebuilt.name == design.name

    def test_string_shorthand_matches_mapping(self):
        assert design_to_spec(design_from_spec("srw")) == {"name": "srw"}

    def test_nested_lazy(self):
        design = design_from_spec(
            {"name": "lazy", "inner": {"name": "lazy", "inner": "srw"}}
        )
        assert isinstance(design, LazyWalk)
        assert isinstance(design.inner, LazyWalk)
        assert isinstance(design.inner.inner, SimpleRandomWalk)

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown design"):
            design_from_spec("nbrw-ish")

    def test_unexpected_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unexpected keys"):
            design_from_spec({"name": "srw", "laziness": 0.5})

    def test_maxdeg_needs_bound(self):
        with pytest.raises(ConfigurationError, match="max_degree"):
            design_from_spec({"name": "maxdeg"})

    def test_lazy_needs_inner(self):
        with pytest.raises(ConfigurationError, match="inner"):
            design_from_spec({"name": "lazy"})

    def test_unspecable_design_rejected(self):
        with pytest.raises(ConfigurationError, match="no spec form"):
            design_to_spec(object())

    @pytest.mark.parametrize("lazy", [False, True], ids=["bare", "lazy"])
    @pytest.mark.parametrize(
        "subclass", [_SubSRW(), _SubMaxDegree(40)], ids=["srw", "maxdeg"]
    )
    def test_subclass_has_no_spec(self, subclass, lazy):
        # The parent's spec would run the parent's law, which a subclass
        # may override: a subclass has no spec form, bare or nested.
        design = LazyWalk(subclass, laziness=0.5) if lazy else subclass
        with pytest.raises(ConfigurationError, match="no spec form"):
            design_to_spec(design)

    def test_fractional_max_degree_round_trips(self, csr):
        spec = {"name": "maxdeg", "max_degree": 40.5}
        design = design_from_spec(spec)
        assert design.max_degree == 40.5
        assert design_to_spec(design) == spec
        assert EstimationJobSpec(design=spec).design == spec
        assert csr.degrees.max() <= 40
        starts = np.zeros(64, dtype=np.int64)
        built = run_walk_batch(csr, design, starts, 30, seed=3).paths
        declared = run_walk_batch(csr, MaxDegreeWalk(40.5), starts, 30, seed=3).paths
        assert np.array_equal(built, declared)

    def test_integral_max_degree_is_written_as_int(self):
        spec = design_to_spec(MaxDegreeWalk(40.0))
        assert spec == {"name": "maxdeg", "max_degree": 40}
        assert isinstance(spec["max_degree"], int)

    @pytest.mark.parametrize(
        "bound",
        ["40", True, float("nan"), float("inf"), 0.5, None],
        ids=["string", "bool", "nan", "inf", "below-one", "none"],
    )
    def test_bad_max_degree_refused(self, bound):
        with pytest.raises(ConfigurationError, match="max_degree"):
            design_from_spec({"name": "maxdeg", "max_degree": bound})


class TestEngineConfig:
    def test_round_trip(self):
        cfg = EngineConfig(backend="sharded", long_run=True, n_workers=2)
        assert EngineConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            EngineConfig(backend="gpu")

    def test_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown EngineConfig keys"):
            EngineConfig.from_dict({"backend": "batch", "worker_count": 4})
        # The flag that version 2 checkpoints carried, the process-layout
        # keys that version 5 checkpoints carried, and the kernel backend
        # that version 7 checkpoints carried.
        with pytest.raises(ConfigurationError, match="unknown EngineConfig keys"):
            EngineConfig.from_dict({"backend": "charged", "batch_backward": True})
        for key in ("mp_context", "slab_storage", "slab_dir", "kernel_backend"):
            with pytest.raises(ConfigurationError, match="unknown EngineConfig keys"):
                EngineConfig.from_dict({"backend": "batch", key: None})

    def test_scalar_backend_refused(self):
        # A job file naming a value that left the table fails loudly and
        # lists the valid ones; no alias runs it quietly.
        with pytest.raises(
            ConfigurationError,
            match="unknown backend 'scalar'; valid: charged, batch, sharded",
        ):
            EngineConfig(backend="scalar")

    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            EngineConfig(n_workers=0)


class TestJobSpec:
    def test_json_round_trip(self, config):
        spec = EstimationJobSpec(
            design={"name": "lazy", "laziness": 0.3, "inner": "srw"},
            samples=12,
            start=3,
            segments=2,
            error_target=0.5,
            query_budget=400,
            tenant="alice",
            seed=11,
            walk=config,
            engine=EngineConfig(backend="batch", long_run=True),
        )
        assert EstimationJobSpec.from_json(spec.to_json()) == spec
        assert EstimationJobSpec.from_dict(spec.to_dict()) == spec

    def test_design_canonicalized_at_construction(self):
        spec = EstimationJobSpec(design="srw")
        assert spec.design == {"name": "srw"}
        assert isinstance(spec.build_design(), SimpleRandomWalk)

    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [
            ("samples", 0, "samples"),
            ("segments", 0, "segments"),
            ("estimand", "pagerank", "estimand"),
            ("error_target", 0.0, "error_target"),
            ("query_budget", -1, "query_budget"),
            ("tenant", "", "tenant"),
        ],
    )
    def test_validation(self, field, value, match):
        with pytest.raises(ConfigurationError, match=match):
            EstimationJobSpec(**{field: value})

    @pytest.mark.parametrize("case", sorted(WRONG_KINDS))
    def test_wrong_kind_refused_naming_the_field(self, case):
        # A number field takes a number that is not a bool, a flag only a
        # bool, the tenant only a string: outside input of the wrong kind
        # is refused, never coerced and never left to fail as a TypeError
        # inside an engine (a list tenant was admitted by the service and
        # crashed its serve loop as an unhashable ledger key).
        document, field = WRONG_KINDS[case]
        with pytest.raises(ConfigurationError, match=f"'{field}'"):
            EstimationJobSpec.from_json(json.dumps(document))

    def test_json_must_be_object(self):
        with pytest.raises(ConfigurationError, match="object"):
            EstimationJobSpec.from_json("[1, 2]")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown EstimationJobSpec"):
            EstimationJobSpec.from_dict({"designs": "srw"})
        # Nested knobs that version 7 checkpoints carried.
        with pytest.raises(ConfigurationError, match="unknown WalkEstimateConfig"):
            EstimationJobSpec.from_dict({"walk": {"batch_backward": True}})
        with pytest.raises(ConfigurationError, match="unknown EngineConfig"):
            EstimationJobSpec.from_dict({"engine": {"kernel_backend": "numpy"}})

    def test_with_overrides_revalidates(self):
        spec = EstimationJobSpec(design="srw", samples=5)
        assert spec.with_overrides(samples=9).samples == 9
        with pytest.raises(ConfigurationError, match="samples"):
            spec.with_overrides(samples=0)


class TestChargedParity:
    @pytest.mark.parametrize("name", list(DESIGN_SPECS), ids=list(DESIGN_SPECS))
    def test_charged_matches_direct_sampler(self, name, hidden, config):
        spec = EstimationJobSpec(
            design=DESIGN_SPECS[name],
            samples=6,
            walk=config,
            engine=EngineConfig(backend="charged"),
        )
        rng = np.random.default_rng(21)
        via_dispatch = estimate(spec, api=SocialNetworkAPI(hidden), seed=rng)
        direct_rng = np.random.default_rng(21)
        direct = WalkEstimateSampler(spec.build_design(), config).sample(
            SocialNetworkAPI(hidden), 0, 6, seed=direct_rng
        )
        assert sample_batches_equal(via_dispatch.raw, direct)
        assert via_dispatch.query_cost == direct.query_cost
        assert via_dispatch.attempts == direct.attempts
        assert rng.bit_generator.state == direct_rng.bit_generator.state
        assert via_dispatch.to_sample_batch() is via_dispatch.raw

    def test_charged_long_run_matches_direct(self, hidden, config):
        spec = EstimationJobSpec(
            design="mhrw",
            samples=5,
            walk=config,
            engine=EngineConfig(backend="charged", long_run=True),
        )
        rng = np.random.default_rng(9)
        via_dispatch = estimate(spec, api=SocialNetworkAPI(hidden), seed=rng)
        direct_rng = np.random.default_rng(9)
        direct = LongRunWalkEstimateSampler(
            MetropolisHastingsWalk(), config
        ).sample(SocialNetworkAPI(hidden), 0, 5, seed=direct_rng)
        assert sample_batches_equal(via_dispatch.raw, direct)
        assert via_dispatch.attempts == direct.attempts
        assert rng.bit_generator.state == direct_rng.bit_generator.state


class TestBatchParity:
    @pytest.mark.parametrize("name", list(DESIGN_SPECS), ids=list(DESIGN_SPECS))
    def test_batch_matches_direct(self, name, csr, config):
        spec = EstimationJobSpec(
            design=DESIGN_SPECS[name],
            samples=25,
            seed=77,
            walk=config,
            engine=EngineConfig(backend="batch"),
        )
        via_dispatch = estimate(spec, graph=csr)
        direct = walk_estimate_batch(
            csr, spec.build_design(), 0, 25, config=config, seed=77
        )
        assert batch_results_equal(via_dispatch.raw, direct)
        assert np.array_equal(via_dispatch.nodes, direct.nodes)
        assert np.array_equal(via_dispatch.weights, direct.weights)
        assert via_dispatch.acceptance_rate == direct.acceptance_rate
        assert via_dispatch.query_cost == 0

    def test_long_run_batch_matches_direct(self, csr, config):
        spec = EstimationJobSpec(
            design="srw",
            samples=8,
            segments=3,
            seed=5,
            walk=config,
            engine=EngineConfig(backend="batch", long_run=True),
        )
        via_dispatch = estimate(spec, graph=csr)
        direct = long_run_walk_estimate_batch(
            csr, SimpleRandomWalk(), 0, 8, 3, config=config, seed=5
        )
        assert batch_results_equal(via_dispatch.raw, direct)

    def test_plain_graph_accepted(self, hidden, config):
        spec = EstimationJobSpec(
            design="srw",
            samples=10,
            seed=4,
            walk=config,
            engine=EngineConfig(backend="batch"),
        )
        via_graph = estimate(spec, graph=hidden)
        via_csr = estimate(spec, graph=hidden.compile())
        assert batch_results_equal(via_graph.raw, via_csr.raw)


class TestShardedParity:
    @pytest.fixture(scope="class")
    def engine(self, csr):
        with ShardedWalkEngine(csr, n_workers=1, mp_context="fork") as eng:
            yield eng

    def test_sharded_matches_direct(self, engine, config):
        spec = EstimationJobSpec(
            design="srw",
            samples=20,
            seed=13,
            walk=config,
            engine=EngineConfig(backend="sharded"),
        )
        via_dispatch = estimate(spec, engine=engine)
        direct = walk_estimate_batch(
            engine, SimpleRandomWalk(), 0, 20, config=config, seed=13
        )
        assert batch_results_equal(via_dispatch.raw, direct)

    def test_sharded_long_run_matches_direct(self, engine, config):
        spec = EstimationJobSpec(
            design="mhrw",
            samples=6,
            segments=2,
            seed=13,
            walk=config,
            engine=EngineConfig(backend="sharded", long_run=True),
        )
        via_dispatch = estimate(spec, engine=engine)
        direct = long_run_walk_estimate_batch(
            engine, MetropolisHastingsWalk(), 0, 6, 2, config=config, seed=13
        )
        assert batch_results_equal(via_dispatch.raw, direct)


class TestDispatchResources:
    def test_missing_api(self, config):
        spec = EstimationJobSpec(design="srw", engine=EngineConfig(backend="charged"))
        with pytest.raises(ConfigurationError, match="api"):
            estimate(spec)

    def test_missing_graph(self):
        spec = EstimationJobSpec(design="srw", engine=EngineConfig(backend="batch"))
        with pytest.raises(ConfigurationError, match="graph"):
            estimate(spec)

    def test_missing_engine(self):
        spec = EstimationJobSpec(design="srw", engine=EngineConfig(backend="sharded"))
        with pytest.raises(ConfigurationError, match="engine"):
            estimate(spec)

    def test_seed_override_wins(self, csr, config):
        spec = EstimationJobSpec(
            design="srw",
            samples=10,
            seed=1,
            walk=config,
            engine=EngineConfig(backend="batch"),
        )
        overridden = estimate(spec, graph=csr, seed=99)
        direct = walk_estimate_batch(
            csr, SimpleRandomWalk(), 0, 10, config=config, seed=99
        )
        assert batch_results_equal(overridden.raw, direct)

    def test_rng_stream_accepted_as_seed(self, csr, config):
        spec = EstimationJobSpec(
            design="srw",
            samples=10,
            walk=config,
            engine=EngineConfig(backend="batch"),
        )
        one = estimate(spec, graph=csr, seed=np.random.default_rng(42))
        two = walk_estimate_batch(
            csr,
            SimpleRandomWalk(),
            0,
            10,
            config=config,
            seed=np.random.default_rng(42),
        )
        assert batch_results_equal(one.raw, two)

    def test_result_walk_steps_and_batch_view(self, csr, config):
        spec = EstimationJobSpec(
            design="srw",
            samples=10,
            seed=2,
            walk=config,
            engine=EngineConfig(backend="batch"),
        )
        result = estimate(spec, graph=csr)
        raw = result.raw
        assert result.walk_steps == raw.forward_steps + raw.backward_steps
        assert result.attempts == raw.accepted.size
        assert result.accepted == raw.nodes.size
        repacked = result.to_sample_batch()
        assert repacked.nodes == [int(n) for n in raw.nodes]


# ----------------------------------------------------------------------
# A wide batch job: the block draw against NumPy's own draw
# ----------------------------------------------------------------------
class TestWideBatchJob:
    """A job of the perfbench ``we-batch`` shape (BA(5000, 5), K = 4096,
    t = 10, 8 backward repetitions, 15 calibration walks) draws its wide
    forward and backward levels as blocks of 32-bit values.  With every
    draw forced onto ``rng.integers`` the job must give the same result,
    field for field, and leave its generator in the same state."""

    @pytest.fixture(scope="class")
    def wide_csr(self):
        return barabasi_albert_graph(5000, 5, seed=42).compile()

    @pytest.mark.parametrize("design", ["srw", "mhrw"])
    def test_same_result_and_state_as_numpys_draw(
        self, design, wide_csr, block_calls, monkeypatch
    ):
        spec = EstimationJobSpec(
            design=design,
            samples=4096,
            walk=WalkEstimateConfig(
                walk_length=10,
                backward_repetitions=8,
                refine_repetitions=0,
                calibration_walks=15,
            ),
            engine=EngineConfig(backend="batch"),
        )
        rng = np.random.default_rng(23)
        block = estimate(spec, graph=wide_csr, seed=rng).raw
        assert len(block_calls) == 10 + 10  # forward steps, backward levels
        monkeypatch.setattr(rng_module, "BLOCK_DRAW_MIN", 2**62)
        rng_numpy = np.random.default_rng(23)
        numpy = estimate(spec, graph=wide_csr, seed=rng_numpy).raw
        assert len(block_calls) == 20
        for field in dataclasses.fields(block):
            ours, theirs = getattr(block, field.name), getattr(numpy, field.name)
            if isinstance(ours, np.ndarray):
                assert ours.dtype == theirs.dtype, field.name
                assert ours.tobytes() == theirs.tobytes(), field.name
            else:
                assert ours == theirs, field.name
        assert rng.bit_generator.state == rng_numpy.bit_generator.state
