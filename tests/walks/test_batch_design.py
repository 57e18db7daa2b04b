"""One classifier for the batch engines: ``compile_design``.

:func:`repro.walks.kernels.compile_design` matches designs by exact type
and flattens each into the record every batch path runs: the step
kernels, the trajectory loops, the backward candidate table, the charged
WS-BW pricing and the target weights.  A subclass may override any part
of its parent's law, so every batch path refuses it; the ``charged``
engine walks node by node and prices the subclass's own law.  The last
class scans ``src/repro`` so that no other module classifies designs by
type.
"""

import ast
import contextlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.unbiased import unbiased_estimate_batch
from repro.core.weighted import ws_bw_batch
from repro.errors import ConfigurationError
from repro.graphs.generators import barabasi_albert_graph
from repro.osn.api import SocialNetworkAPI
from repro.walks.batch import run_walk_batch, target_weights_batch
from repro.walks.kernels import MAXDEG, MHRW, SRW, BatchDesign, compile_design
from repro.walks.transitions import (
    BidirectionalWalk,
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)


class _HalfLazySRW(SimpleRandomWalk):
    """SRW that stays put with probability ½: a law SRW's pricing misses."""

    name = "half-lazy-srw"
    may_self_loop = True

    def transition_row(self, view, node):
        row = {v: 0.5 * p for v, p in super().transition_row(view, node).items()}
        row[node] = 0.5
        return row

    def transition_probability(self, view, source, destination):
        if destination == source:
            return 0.5
        return 0.5 * super().transition_probability(view, source, destination)

    def step(self, view, node, rng):
        return node if rng.random() < 0.5 else super().step(view, node, rng)


class _SRW(SimpleRandomWalk):
    pass


class _MHRW(MetropolisHastingsWalk):
    pass


class _MaxDegree(MaxDegreeWalk):
    pass


class _Lazy(LazyWalk):
    pass


#: A bare subclass of each batch design, a lazy walk over one, and a
#: subclass with a law of its own.
SUBCLASSES = {
    "srw": _SRW(),
    "mhrw": _MHRW(),
    "maxdeg": _MaxDegree(40),
    "lazy": _Lazy(SimpleRandomWalk(), 0.5),
    "lazy-over-subclass": LazyWalk(_SRW(), 0.5),
    "half-lazy-srw": _HalfLazySRW(),
}

REFUSED = {
    "bidirectional": BidirectionalWalk(),
    "lazy-bidirectional": LazyWalk(BidirectionalWalk(), 0.5),
    **SUBCLASSES,
}


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(60, 3, seed=1)


# ----------------------------------------------------------------------
# The classifier
# ----------------------------------------------------------------------
class TestCompileDesign:
    @pytest.mark.parametrize(
        "design, expected",
        [
            (SimpleRandomWalk(), BatchDesign(SRW, (), 0, False)),
            (MetropolisHastingsWalk(), BatchDesign(MHRW, (), 0, True)),
            (MaxDegreeWalk(7), BatchDesign(MAXDEG, (), 7, True)),
            (LazyWalk(SimpleRandomWalk(), 0.3), BatchDesign(SRW, (0.3,), 0, True)),
            (
                LazyWalk(MetropolisHastingsWalk(), 0.4),
                BatchDesign(MHRW, (0.4,), 0, True),
            ),
            (LazyWalk(MaxDegreeWalk(5), 0.25), BatchDesign(MAXDEG, (0.25,), 5, True)),
            (
                LazyWalk(LazyWalk(SimpleRandomWalk(), 0.2), 0.6),
                BatchDesign(SRW, (0.6, 0.2), 0, True),
            ),
            (
                LazyWalk(LazyWalk(MaxDegreeWalk(9), 0.1), 0.5),
                BatchDesign(MAXDEG, (0.5, 0.1), 9, True),
            ),
        ],
        ids=repr,
    )
    def test_exact_designs_flatten(self, design, expected):
        record = compile_design(design)
        assert record == expected
        assert record.may_self_loop == design.may_self_loop

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_everything_else_is_refused(self, name):
        assert compile_design(REFUSED[name]) is None

    def test_every_backend_walks_the_declared_bound(self, graph):
        # The trajectory loops used to truncate a non-integer bound that
        # the NumPy kernel and the scalar design use as declared.
        csr = graph.compile()
        design = LazyWalk(MaxDegreeWalk(graph.max_degree() + 0.5), 0.3)
        assert compile_design(design).max_degree == graph.max_degree() + 0.5
        numpy, python = (
            run_walk_batch(csr, design, np.arange(60), 30, seed=3, backend=name)
            for name in ("numpy", "python")
        )
        assert numpy.paths.tobytes() == python.paths.tobytes()


# ----------------------------------------------------------------------
# Every batch entry point refuses a subclass, with its own message
# ----------------------------------------------------------------------
class TestSubclassRefused:
    @pytest.mark.parametrize("name", sorted(SUBCLASSES))
    def test_run_walk_batch(self, graph, name):
        with pytest.raises(ConfigurationError, match="no batch kernel"):
            run_walk_batch(graph.compile(), SUBCLASSES[name], [0, 1], 3, seed=1)

    @pytest.mark.parametrize("name", sorted(SUBCLASSES))
    def test_unbiased_estimate_batch(self, graph, name):
        csr = graph.compile()
        with pytest.raises(ConfigurationError, match="no vectorized transition"):
            unbiased_estimate_batch(csr, SUBCLASSES[name], [5], 0, 4, seed=1)
        assert csr._backward_tables == {}

    @pytest.mark.parametrize("name", sorted(SUBCLASSES))
    def test_ws_bw_batch(self, graph, name):
        api = SocialNetworkAPI(graph)
        with pytest.raises(ConfigurationError, match="no batched transition"):
            ws_bw_batch(api, SUBCLASSES[name], np.array([5, 6]), 0, 4, seed=1)
        assert api.query_cost == 0

    @pytest.mark.parametrize("name", sorted(SUBCLASSES))
    def test_target_weights_batch(self, graph, name):
        with pytest.raises(ConfigurationError, match="no vectorized target weight"):
            target_weights_batch(graph.compile(), SUBCLASSES[name], [0, 1])


# ----------------------------------------------------------------------
# The defects a type-blind classifier let through
# ----------------------------------------------------------------------
class TestNoParentPricing:
    def test_a_subclass_leaves_no_table_for_its_parent(self, graph):
        # A self-looping subclass used to build a table with self slots
        # under plain SRW's memo key, which later SRW estimates then read.
        csr = graph.compile()
        with contextlib.suppress(ConfigurationError):
            unbiased_estimate_batch(
                csr, _HalfLazySRW(), [5], 0, 4, seed=1, repetitions=2000
            )
        after = unbiased_estimate_batch(
            csr, SimpleRandomWalk(), [5], 0, 4, seed=2, repetitions=2000
        )
        fresh = unbiased_estimate_batch(
            graph.compile(), SimpleRandomWalk(), [5], 0, 4, seed=2, repetitions=2000
        )
        assert after.tobytes() == fresh.tobytes()


# ----------------------------------------------------------------------
# Guard: one module classifies designs for batch execution
# ----------------------------------------------------------------------
BATCH_DESIGNS = {
    "SimpleRandomWalk",
    "MetropolisHastingsWalk",
    "MaxDegreeWalk",
    "LazyWalk",
}

#: The classifier (design specs are read off its record).
ALLOWED = {"walks/kernels.py"}


def _names(node) -> set:
    """Every plain or dotted name mentioned inside *node*."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def _is_type_call(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "type"
    )


def _classifies(tree) -> bool:
    """Whether *tree* matches a batch design class by type anywhere."""
    designs = set(BATCH_DESIGNS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            designs |= {a.asname for a in node.names if a.name in designs and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("isinstance", "issubclass") and len(node.args) == 2:
                if _names(node.args[1]) & designs:
                    return True
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            others = [side for side in sides if not _is_type_call(side)]
            if len(others) < len(sides) and any(_names(s) & designs for s in others):
                return True
        if isinstance(node, ast.Dict):
            if any(key is not None and _names(key) & designs for key in node.keys):
                return True
    return False


class TestOneClassifier:
    def test_only_the_classifier_and_the_spec_names_match_design_types(self):
        root = Path(repro.__file__).parent
        classifying = {
            path.relative_to(root).as_posix()
            for path in root.rglob("*.py")
            if _classifies(ast.parse(path.read_text(encoding="utf-8")))
        }
        assert classifying == ALLOWED

    def test_the_scan_sees_each_kind_of_match(self):
        for source in (
            "isinstance(d, (SimpleRandomWalk, MaxDegreeWalk))",
            "issubclass(type(d), transitions.LazyWalk)",
            "type(d) is MetropolisHastingsWalk",
            "LazyWalk == type(d)",
            "{SimpleRandomWalk: 0}",
            "from repro.walks.transitions import LazyWalk as L\nisinstance(d, L)",
        ):
            assert _classifies(ast.parse(source)), source
        for source in ("SimpleRandomWalk()", "isinstance(d, Graph)", "type(d) is int"):
            assert not _classifies(ast.parse(source)), source
