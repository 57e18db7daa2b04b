"""Cross-engine parity suite: every batch kernel vs. its scalar twin.

Two properties pin the batch engine to the scalar one for **every**
TransitionDesign with a vectorized kernel:

* **K=1 stream parity** — with the same seed, a one-walk batch reproduces
  the scalar trajectory node for node, across random graph models and
  seeds.  This is what licenses swapping engines mid-experiment.
* **K=1024 stationarity** — wide batches converge to the design's
  theoretical stationary distribution (degree-proportional for SRW-target
  designs, uniform for MHRW/MaxDegreeWalk targets), so the vectorized
  step law is not just seed-compatible but distribution-correct.

A degenerate-topology section exercises the shapes that historically
break vectorized engines: isolated nodes, star graphs, dangling
degree-1 nodes, and MaxDegreeWalk's virtual-degree padding.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, GraphError
from repro.estimators.metrics import empirical_distribution, l_infinity_bias
from repro.graphs import largest_connected_component
from repro.graphs.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    star_graph,
    watts_strogatz_graph,
)
from repro.graphs.graph import Graph
from repro.walks.batch import (
    has_batch_kernel,
    run_walk_batch,
    target_weights_batch,
)
from repro.walks.kernels import backend_names, get_backend
from repro.walks.transitions import (
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)
from repro.walks.walker import run_walk

# Every design with a batch kernel, as factories taking the graph (the
# max-degree designs need its degree bound).
DESIGN_FACTORIES = {
    "srw": lambda g: SimpleRandomWalk(),
    "mhrw": lambda g: MetropolisHastingsWalk(),
    "lazy-srw": lambda g: LazyWalk(SimpleRandomWalk(), 0.3),
    "lazy-mhrw": lambda g: LazyWalk(MetropolisHastingsWalk(), 0.25),
    "maxdeg": lambda g: MaxDegreeWalk(g.max_degree()),
    "lazy-maxdeg": lambda g: LazyWalk(MaxDegreeWalk(g.max_degree()), 0.4),
    "lazy-lazy-srw": lambda g: LazyWalk(LazyWalk(SimpleRandomWalk(), 0.2), 0.5),
}

GRAPH_FACTORIES = {
    "ba": lambda: barabasi_albert_graph(150, 4, seed=13).relabeled(),
    "ws": lambda: watts_strogatz_graph(80, 4, 0.15, seed=3).relabeled(),
    "er": lambda: largest_connected_component(
        erdos_renyi_graph(90, 0.08, seed=7)
    ).relabeled(),
}


@pytest.fixture(scope="module", params=sorted(GRAPH_FACTORIES))
def graph_pair(request):
    graph = GRAPH_FACTORIES[request.param]()
    return graph, graph.compile()


class TestK1StreamParity:
    """Same seed, K=1 -> node-for-node identical to the scalar walker.

    Parametrized over every kernel backend: the scalar pin is
    the ground truth all executors — vectorized NumPy, the compiled
    trajectory loop, and its no-JIT twin — must hit on the same stream.
    """

    @pytest.mark.parametrize("backend", backend_names())
    @pytest.mark.parametrize("design_name", sorted(DESIGN_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_k1_matches_scalar(self, graph_pair, design_name, seed, backend):
        if not get_backend(backend).available:
            pytest.skip(f"kernel backend {backend!r} unavailable")
        graph, csr = graph_pair
        design = DESIGN_FACTORIES[design_name](graph)
        scalar = run_walk(graph, design, 3, 150, seed=seed)
        batch = run_walk_batch(csr, design, [3], 150, seed=seed, backend=backend)
        assert scalar.path == tuple(batch.paths[0])

    @pytest.mark.parametrize("design_name", sorted(DESIGN_FACTORIES))
    def test_every_kernel_is_registered(self, graph_pair, design_name):
        graph, _ = graph_pair
        assert has_batch_kernel(DESIGN_FACTORIES[design_name](graph))

    def test_lazy_over_unsupported_inner_stays_scalar(self, graph_pair):
        from repro.walks.transitions import BidirectionalWalk

        _, csr = graph_pair
        design = LazyWalk(BidirectionalWalk(), 0.5)
        assert not has_batch_kernel(design)
        with pytest.raises(ConfigurationError, match="no batch kernel"):
            run_walk_batch(csr, design, [0], 5, seed=1)

    def test_k1_rows_of_wide_batch_are_independent_walks(self, graph_pair):
        # Widening the batch must not change any single walk's law: each
        # row remains a valid trajectory over graph edges / self-stays.
        graph, csr = graph_pair
        design = LazyWalk(MaxDegreeWalk(graph.max_degree()), 0.4)
        result = run_walk_batch(csr, design, np.zeros(16, dtype=np.int64), 60, seed=5)
        for walk in result.paths:
            for u, v in zip(walk[:-1], walk[1:]):
                assert u == v or graph.has_edge(int(u), int(v))


class TestStationaryFrequencies:
    """K=1024 visit frequencies match the theoretical stationary law."""

    STEPS = 80
    BURN_IN = 40
    K = 1024

    def _tail_pdf(self, csr, design, seed):
        starts = np.zeros(self.K, dtype=np.int64)
        result = run_walk_batch(csr, design, starts, self.STEPS, seed=seed)
        tail = result.paths[:, self.BURN_IN :].ravel()
        return empirical_distribution([int(v) for v in tail], len(csr))

    @pytest.mark.parametrize("design_name", sorted(DESIGN_FACTORIES))
    def test_visits_match_target(self, design_name):
        graph = watts_strogatz_graph(40, 4, 0.3, seed=11).relabeled()
        csr = graph.compile()
        design = DESIGN_FACTORIES[design_name](graph)
        weights = target_weights_batch(csr, design, np.arange(len(csr)))
        target = weights / weights.sum()
        pdf = self._tail_pdf(csr, design, seed=29)
        samples = self.K * (self.STEPS - self.BURN_IN + 1)
        # Tail positions are heavily correlated within a walk; budget the
        # tolerance on the number of independent walks, not raw visits.
        noise = np.sqrt(target.max() * samples / self.K) / np.sqrt(samples)
        assert l_infinity_bias(pdf, target) < 8 * max(noise, 1e-3)

    def test_lazy_fixes_periodicity_on_bipartite_graph(self):
        # A cycle of even length is bipartite: plain SRW started from one
        # node alternates sides forever — after any even number of steps
        # every walk sits on an even node — while the lazy wrap mixes to
        # the uniform stationary law.  The batch kernels must reproduce
        # both the pathology and its fix.
        from repro.graphs.generators import cycle_graph

        graph = cycle_graph(20)
        csr = graph.compile()
        starts = np.zeros(1024, dtype=np.int64)
        plain = run_walk_batch(csr, SimpleRandomWalk(), starts, 200, seed=17)
        assert np.all(plain.positions_at(200) % 2 == 0)
        lazy = run_walk_batch(
            csr, LazyWalk(SimpleRandomWalk(), 0.5), starts, 200, seed=17
        )
        pdf = empirical_distribution([int(v) for v in lazy.positions_at(200)], 20)
        uniform = np.full(20, 1 / 20)
        plain_pdf = empirical_distribution(
            [int(v) for v in plain.positions_at(200)], 20
        )
        assert l_infinity_bias(plain_pdf, uniform) >= 1 / 20  # odd side empty
        assert l_infinity_bias(pdf, uniform) < 0.02


class TestDegenerateTopologies:
    """Shapes that historically break vectorized engines."""

    def test_isolated_start_raises_for_movers(self):
        g = Graph()
        g.add_nodes_from([0, 1, 2])
        g.add_edge(0, 1)
        for design in (SimpleRandomWalk(), MaxDegreeWalk(1)):
            with pytest.raises(GraphError, match="no neighbors"):
                run_walk_batch(g, design, [2], 5, seed=0)

    def test_lazy_walk_on_isolated_node_fails_only_on_a_move(self):
        # The laziness coin is drawn before the neighbor row is touched, so
        # a parked walk survives until it first tries to move — the scalar
        # semantics, step for step.
        g = Graph()
        g.add_nodes_from([0, 1, 2])
        g.add_edge(0, 1)
        design = LazyWalk(SimpleRandomWalk(), 0.3)
        with pytest.raises(GraphError, match="no neighbors"):
            run_walk_batch(g, design, [2], 50, seed=0)
        scalar_raised = batch_raised = None
        try:
            run_walk(g, design, 2, 50, seed=0)
        except GraphError:
            scalar_raised = True
        try:
            run_walk_batch(g.compile(), design, [2], 50, seed=0)
        except GraphError:
            batch_raised = True
        assert scalar_raised and batch_raised

    @pytest.mark.parametrize(
        "design_name", ["srw", "mhrw", "maxdeg", "lazy-srw", "lazy-maxdeg"]
    )
    def test_star_graph_parity_and_center_pivot(self, design_name):
        # Star: one hub, n-1 leaves of degree 1 — the extreme degree skew.
        graph = star_graph(33)
        csr = graph.compile()
        design = DESIGN_FACTORIES[design_name](graph)
        for seed in (0, 5):
            scalar = run_walk(graph, design, 1, 100, seed=seed)
            batch = run_walk_batch(csr, design, [1], 100, seed=seed)
            assert scalar.path == tuple(batch.paths[0])

    def test_maxdeg_virtual_degree_padding_parks_leaves(self):
        # A leaf under MaxDegreeWalk moves with probability 1/d_max: its
        # virtual self-loops dominate, so a dangling node mostly idles.
        graph = star_graph(65)  # d_max = 64
        csr = graph.compile()
        design = MaxDegreeWalk(graph.max_degree())
        result = run_walk_batch(
            csr, design, np.full(512, 1, dtype=np.int64), 40, seed=3
        )
        stays = (result.paths[:, :-1] == result.paths[:, 1:]).mean()
        # Walks spend most steps parked on leaves; the expected stay rate
        # is far above 0.9 and far below the all-stays degenerate 1.0.
        assert 0.9 < stays < 1.0

    def test_maxdeg_rejects_underdeclared_bound_like_scalar(self):
        graph = barabasi_albert_graph(60, 3, seed=2).relabeled()
        design = MaxDegreeWalk(2)
        with pytest.raises(ConfigurationError, match="max_degree"):
            run_walk(graph, design, 0, 20, seed=1)
        with pytest.raises(ConfigurationError, match="max_degree"):
            run_walk_batch(graph.compile(), design, [0], 20, seed=1)

    def test_dangling_chain_parity(self):
        # A clique with a 3-node dangling path: low-degree tail nodes force
        # frequent MHRW rejections and maxdeg self-stays.
        g = Graph()
        g.add_edges_from(
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]
        )
        csr = g.compile()
        for design in (
            MetropolisHastingsWalk(),
            MaxDegreeWalk(g.max_degree()),
            LazyWalk(MaxDegreeWalk(g.max_degree()), 0.35),
        ):
            for seed in (0, 9):
                scalar = run_walk(g, design, 6, 120, seed=seed)
                batch = run_walk_batch(csr, design, [6], 120, seed=seed)
                assert scalar.path == tuple(batch.paths[0])

    def test_gappy_ids_round_trip_for_new_kernels(self):
        g = Graph()
        g.add_edges_from([(10, 20), (20, 40), (40, 10), (40, 70)])
        design = LazyWalk(MaxDegreeWalk(g.max_degree()), 0.3)
        result = run_walk_batch(g, design, [20, 70], 30, seed=8)
        assert set(int(v) for v in result.paths.ravel()) <= {10, 20, 40, 70}
        scalar = run_walk(g, design, 20, 30, seed=8)
        k1 = run_walk_batch(g, design, [20], 30, seed=8)
        assert scalar.path == tuple(k1.paths[0])
