"""The kernel-backend table and its cross-backend parity contract.

Three layers under test:

* **The backend table** — lookup, availability, strict resolution, the
  capability report, and the fixed ``numpy`` default.
* **Bit-for-bit parity** — every available backend must produce the
  NumPy reference's trajectories *and* leave the shared generator in
  the same state, for random graphs × designs × seeds (hypothesis) and
  for the error paths (stuck node, over-declared max degree), whose
  messages must match byte for byte.  The ``python`` backend runs the
  native trajectory loop without the JIT, so this parity is proven on
  numba-less hosts too; with numba installed the ``native`` backend
  runs the same cases through the compiled dispatcher.
* **Config plumbing** — ``kernel_backend`` on ``WalkEstimateConfig``
  (name validation, the job spec's actionable unavailability error, the
  JSON round trip) and end-to-end equality of the batch WALK-ESTIMATE
  front ends across backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WalkEstimateConfig
from repro.core.dispatch import EstimationJobSpec
from repro.core.walk_estimate import walk_estimate_batch
from repro.errors import ConfigurationError, GraphError
from repro.graphs.generators import barabasi_albert_graph, watts_strogatz_graph
from repro.graphs.graph import Graph
from repro.rng import BLOCK_DRAW_MIN
from repro.walks import kernels
from repro.walks.batch import run_nbrw_walk_batch, run_walk_batch
from repro.walks.transitions import (
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)

NUMBA_PRESENT = kernels.numba is not None

#: Backends whose trajectories must match the numpy reference; ``native``
#: auto-skips where numba is absent.
ALTERNATE_BACKENDS = [n for n in kernels.backend_names() if n != "numpy"]


def _skip_unless_available(backend: str) -> None:
    if not kernels.get_backend(backend).available:
        pytest.skip(f"kernel backend {backend!r} unavailable (numba not installed)")


def _design_for(code: int, max_degree: int):
    inner = [
        SimpleRandomWalk(),
        MetropolisHastingsWalk(),
        MaxDegreeWalk(max_degree),
    ][code % 3]
    if code >= 3:  # lazy wrap, nested once more for the top codes
        inner = LazyWalk(inner, 0.35)
    if code >= 6:
        inner = LazyWalk(inner, 0.5)
    return inner


# ----------------------------------------------------------------------
# The backend table
# ----------------------------------------------------------------------
class TestRegistry:
    def test_reference_backends_are_registered(self):
        assert {"numpy", "native", "python"} <= set(kernels.backend_names())

    def test_numpy_and_python_are_always_available(self):
        assert kernels.get_backend("numpy").available
        assert kernels.get_backend("python").available

    def test_native_availability_tracks_numba(self):
        assert kernels.get_backend("native").available is NUMBA_PRESENT

    def test_unknown_backend_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            kernels.get_backend("fortran")

    def test_default_backend_is_numpy(self):
        assert kernels.default_backend_name() == "numpy"

    def test_capability_report_shape(self):
        report = kernels.capability_report()
        assert report["default"] == kernels.default_backend_name()
        assert set(report["backends"]) == set(kernels.backend_names())
        native = report["backends"]["native"]
        assert native["jit"] is True
        assert native["available"] is NUMBA_PRESENT
        assert "pip install" in native["requires"]

    def test_every_backend_runs_the_compile_design_closure(self):
        from repro.walks.transitions import BidirectionalWalk

        csr = barabasi_albert_graph(30, 2, seed=1).relabeled().compile()
        for name in kernels.backend_names():
            if not kernels.get_backend(name).available:
                continue
            lazy = LazyWalk(SimpleRandomWalk(), 0.5)
            run_walk_batch(csr, lazy, [0, 1], 4, seed=1, backend=name)
            for design in (BidirectionalWalk(), LazyWalk(BidirectionalWalk(), 0.5)):
                assert kernels.compile_design(design) is None
                with pytest.raises(ConfigurationError, match="no batch kernel"):
                    run_walk_batch(csr, design, [0], 4, seed=1, backend=name)


@pytest.mark.skipif(NUMBA_PRESENT, reason="fallback path needs numba absent")
class TestNumbaLessFallback:
    """The graceful-degradation story on hosts without numba."""

    def test_strict_native_resolution_is_actionable(self):
        with pytest.raises(ConfigurationError) as excinfo:
            kernels.require_backend("native")
        message = str(excinfo.value)
        assert "numba" in message and "pip install" in message

    def test_run_walk_batch_native_raises_actionably(self, triangle):
        with pytest.raises(ConfigurationError, match="pip install"):
            run_walk_batch(
                triangle, SimpleRandomWalk(), [0], 3, seed=0, backend="native"
            )

    def test_engine_config_native_raises_actionably(self):
        with pytest.raises(ConfigurationError) as excinfo:
            EstimationJobSpec(walk=WalkEstimateConfig(kernel_backend="native"))
        message = str(excinfo.value)
        assert "numba" in message and "pip install" in message


# ----------------------------------------------------------------------
# Cross-backend parity
# ----------------------------------------------------------------------
class TestBackendParity:
    @pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
    @given(
        nodes=st.integers(min_value=5, max_value=40),
        attach=st.integers(min_value=1, max_value=4),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        walk_seed=st.integers(min_value=0, max_value=10_000),
        design_code=st.integers(min_value=0, max_value=8),
        steps=st.integers(min_value=0, max_value=25),
    )
    @settings(max_examples=30, deadline=None)
    def test_identical_trajectories_on_random_graphs(
        self, backend, nodes, attach, graph_seed, walk_seed, design_code, steps
    ):
        _skip_unless_available(backend)
        attach = min(attach, nodes - 1)
        graph = barabasi_albert_graph(nodes, attach, seed=graph_seed).relabeled()
        csr = graph.compile()
        design = _design_for(design_code, graph.max_degree())
        starts = np.arange(min(8, nodes), dtype=np.int64)
        rng_ref = np.random.default_rng(walk_seed)
        rng_alt = np.random.default_rng(walk_seed)
        reference = run_walk_batch(
            csr, design, starts, steps, seed=rng_ref, backend="numpy"
        )
        candidate = run_walk_batch(
            csr, design, starts, steps, seed=rng_alt, backend=backend
        )
        assert np.array_equal(reference.paths, candidate.paths)
        # State continuity: a calibration/main-round pair sharing one
        # generator must stay reproducible across backend swaps.
        assert rng_ref.bit_generator.state == rng_alt.bit_generator.state

    @pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
    @pytest.mark.parametrize("seed", [0, 9, 4321])
    def test_nbrw_parity(self, backend, seed):
        _skip_unless_available(backend)
        graph = barabasi_albert_graph(60, 2, seed=3).relabeled()
        csr = graph.compile()
        starts = np.arange(12, dtype=np.int64)
        rng_ref = np.random.default_rng(seed)
        rng_alt = np.random.default_rng(seed)
        reference = run_nbrw_walk_batch(csr, starts, 40, seed=rng_ref, backend="numpy")
        candidate = run_nbrw_walk_batch(csr, starts, 40, seed=rng_alt, backend=backend)
        assert np.array_equal(reference.paths, candidate.paths)
        assert rng_ref.bit_generator.state == rng_alt.bit_generator.state

    @pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
    @pytest.mark.parametrize("design", ["srw", "mhrw", "maxdeg", "lazy-srw", "nbrw"])
    def test_wide_batches_reach_the_block_draw(self, backend, design, block_calls):
        # From BLOCK_DRAW_MIN walkers on, the numpy kernels draw each
        # step's neighbor indices as one block of 32-bit values; the loop
        # backends still make one scalar draw per walker.
        _skip_unless_available(backend)
        graph = watts_strogatz_graph(300, 6, 0.3, seed=4).relabeled()
        csr = graph.compile()
        starts = np.arange(3 * BLOCK_DRAW_MIN, dtype=np.int64) % len(csr)
        paths = {}
        for name in ("numpy", backend):
            rng = np.random.default_rng(21)
            if design == "nbrw":
                result = run_nbrw_walk_batch(csr, starts, 4, seed=rng, backend=name)
            else:
                walk = {
                    "srw": SimpleRandomWalk(),
                    "mhrw": MetropolisHastingsWalk(),
                    "maxdeg": MaxDegreeWalk(graph.max_degree()),
                    "lazy-srw": LazyWalk(SimpleRandomWalk(), 0.35),
                }[design]
                result = run_walk_batch(csr, walk, starts, 4, seed=rng, backend=name)
            paths[name] = (result.paths, rng.bit_generator.state)
            if name == "numpy":
                assert len(block_calls) == 4
        assert np.array_equal(paths["numpy"][0], paths[backend][0])
        assert paths["numpy"][1] == paths[backend][1]

    @pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
    def test_gappy_node_ids_round_trip(self, backend):
        _skip_unless_available(backend)
        g = Graph()
        g.add_edges_from([(10, 20), (20, 40), (40, 10), (40, 70)])
        design = LazyWalk(MaxDegreeWalk(g.max_degree()), 0.3)
        reference = run_walk_batch(g, design, [20, 70], 30, seed=8, backend="numpy")
        candidate = run_walk_batch(g, design, [20, 70], 30, seed=8, backend=backend)
        assert np.array_equal(reference.paths, candidate.paths)

    @pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
    def test_stuck_walk_error_matches_reference(self, backend):
        _skip_unless_available(backend)
        g = Graph()
        g.add_nodes_from([0, 1, 7])
        g.add_edge(0, 1)
        with pytest.raises(GraphError) as reference:
            run_walk_batch(g, SimpleRandomWalk(), [7], 5, seed=0, backend="numpy")
        with pytest.raises(GraphError) as candidate:
            run_walk_batch(g, SimpleRandomWalk(), [7], 5, seed=0, backend=backend)
        assert str(candidate.value) == str(reference.value)

    @pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
    def test_overdeclared_degree_error_matches_reference(self, backend):
        _skip_unless_available(backend)
        g = Graph()
        g.add_edges_from([(0, 1), (0, 2), (0, 3), (1, 2)])
        with pytest.raises(ConfigurationError) as reference:
            run_walk_batch(g, MaxDegreeWalk(2), [0], 5, seed=0, backend="numpy")
        with pytest.raises(ConfigurationError) as candidate:
            run_walk_batch(g, MaxDegreeWalk(2), [0], 5, seed=0, backend=backend)
        assert str(candidate.value) == str(reference.value)

    @pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
    def test_lazily_parked_walk_survives_until_it_moves(self, backend):
        _skip_unless_available(backend)
        g = Graph()
        g.add_nodes_from([0, 1, 2])
        g.add_edge(0, 1)
        design = LazyWalk(SimpleRandomWalk(), 0.3)
        with pytest.raises(GraphError, match="no neighbors"):
            run_walk_batch(g.compile(), design, [2], 50, seed=0, backend=backend)

    @pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
    def test_zero_steps_and_empty_batch(self, backend):
        _skip_unless_available(backend)
        graph = barabasi_albert_graph(20, 2, seed=1).relabeled()
        csr = graph.compile()
        zero = run_walk_batch(
            csr, SimpleRandomWalk(), [3, 5], 0, seed=2, backend=backend
        )
        assert np.array_equal(zero.paths, np.array([[3], [5]]))
        empty = run_walk_batch(
            csr,
            SimpleRandomWalk(),
            np.empty(0, dtype=np.int64),
            4,
            seed=2,
            backend=backend,
        )
        assert empty.paths.shape == (0, 5)


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_walk_estimate_config_validates_backend_name(self):
        assert WalkEstimateConfig(kernel_backend="python").kernel_backend == "python"
        with pytest.raises(ConfigurationError, match="unknown kernel_backend"):
            WalkEstimateConfig(kernel_backend="cuda")

    def test_job_spec_json_round_trip_carries_backend(self):
        job = EstimationJobSpec(walk=WalkEstimateConfig(kernel_backend="python"))
        restored = EstimationJobSpec.from_json(job.to_json())
        assert restored.walk.kernel_backend == "python"
        assert restored == job

    @pytest.mark.parametrize("backend", ALTERNATE_BACKENDS)
    def test_walk_estimate_batch_is_backend_invariant(self, backend):
        _skip_unless_available(backend)
        graph = barabasi_albert_graph(80, 3, seed=11).relabeled()
        csr = graph.compile()
        config = WalkEstimateConfig(diameter_hint=3, calibration_walks=4)
        reference = walk_estimate_batch(
            csr, SimpleRandomWalk(), 0, 16, config=config, seed=123
        )
        candidate = walk_estimate_batch(
            csr,
            SimpleRandomWalk(),
            0,
            16,
            config=config.with_overrides(kernel_backend=backend),
            seed=123,
        )
        assert np.array_equal(reference.nodes, candidate.nodes)
        assert np.array_equal(reference.weights, candidate.weights)
        assert np.array_equal(reference.accepted, candidate.accepted)
