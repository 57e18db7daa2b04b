"""RNG-stream regression: golden trajectories pin each kernel's draw order.

The batch kernels promise to consume the seeded generator stream *exactly*
as their scalar twins — that contract is what every parity test and every
"reproducible experiment" claim rests on.  A refactor that keeps the step
law but reorders, batches, or conditions the draws differently would pass
statistical tests and silently change every seeded result in the repo.

These tests freeze the contract: the fixture file commits the exact
trajectories each kernel produces on a fixed graph, seed, and batch
width.  The graph's edge list is stored literally in the fixture (not
re-generated), so generator changes cannot disturb the pin.  If a change
is *supposed* to alter sampling behavior, regenerate deliberately:

    PYTHONPATH=src python tests/walks/test_batch_rng_regression.py

and review the fixture diff like any other behavioral change.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.walks.batch import run_nbrw_walk_batch, run_walk_batch
from repro.walks.kernels import backend_names, get_backend
from repro.walks.transitions import (
    LazyWalk,
    MaxDegreeWalk,
    MetropolisHastingsWalk,
    SimpleRandomWalk,
)

FIXTURE = Path(__file__).parent / "fixtures" / "batch_golden_trajectories.json"

SEED = 20240716
K = 4
STEPS = 12

#: Every kernel backend must reproduce the committed stream
#: bit for bit (unavailable ones — native without numba — auto-skip).
BACKENDS = backend_names()


def _require_backend_or_skip(backend: str) -> None:
    if not get_backend(backend).available:
        pytest.skip(f"kernel backend {backend!r} unavailable (numba not installed)")


def _designs(graph):
    return {
        "srw": SimpleRandomWalk(),
        "mhrw": MetropolisHastingsWalk(),
        "lazy-srw": LazyWalk(SimpleRandomWalk(), 0.3),
        "lazy-mhrw": LazyWalk(MetropolisHastingsWalk(), 0.25),
        "maxdeg": MaxDegreeWalk(graph.max_degree()),
        "lazy-maxdeg": LazyWalk(MaxDegreeWalk(graph.max_degree()), 0.4),
    }


def _build_graph(edges) -> Graph:
    graph = Graph(name="golden")
    graph.add_edges_from([(int(u), int(v)) for u, v in edges])
    return graph


def _compute_trajectories(graph, backend=None):
    csr = graph.compile()
    starts = np.array([0, 3, 7, 11], dtype=np.int64)
    paths = {
        name: run_walk_batch(
            csr, design, starts, STEPS, seed=SEED, backend=backend
        ).paths.tolist()
        for name, design in _designs(graph).items()
    }
    paths["nbrw"] = run_nbrw_walk_batch(
        csr, starts, STEPS, seed=SEED, backend=backend
    ).paths.tolist()
    return paths


#: Per-backend trajectory cache: each backend computes all kernels once.
_COMPUTED = {}


def _computed(graph, backend):
    if backend not in _COMPUTED:
        _COMPUTED[backend] = _compute_trajectories(graph, backend=backend)
    return _COMPUTED[backend]


@pytest.fixture(scope="module")
def fixture_data():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden_graph(fixture_data):
    return _build_graph(fixture_data["edges"])


def test_fixture_metadata_matches_test_setup(fixture_data):
    assert fixture_data["seed"] == SEED
    assert fixture_data["k"] == K
    assert fixture_data["steps"] == STEPS


def test_fixture_covers_every_kernel(fixture_data, golden_graph):
    expected = set(_designs(golden_graph)) | {"nbrw"}
    assert set(fixture_data["trajectories"]) == expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "kernel",
    ["srw", "mhrw", "nbrw", "lazy-srw", "lazy-mhrw", "maxdeg", "lazy-maxdeg"],
)
def test_kernel_reproduces_golden_trajectory(
    fixture_data, golden_graph, kernel, backend
):
    _require_backend_or_skip(backend)
    computed = _computed(golden_graph, backend)[kernel]
    golden = fixture_data["trajectories"][kernel]
    assert computed == golden, (
        f"kernel {kernel!r} on backend {backend!r} no longer consumes the "
        "RNG stream as committed; if this change is intentional, regenerate "
        "the fixture (see module docstring) and flag the behavioral break "
        "in review"
    )


def test_trajectories_have_committed_shape(fixture_data):
    for kernel, paths in fixture_data["trajectories"].items():
        assert len(paths) == K, kernel
        assert all(len(row) == STEPS + 1 for row in paths), kernel


def _regenerate() -> None:
    from repro.graphs.generators import barabasi_albert_graph

    graph = barabasi_albert_graph(30, 3, seed=5).relabeled()
    edges = sorted(
        (u, v) for u in graph.nodes() for v in graph.neighbors(u) if u < v
    )
    record = {
        "comment": (
            "Golden RNG-stream trajectories for the batch kernels; "
            "regenerate ONLY for intentional sampling-behavior changes "
            "(python tests/walks/test_batch_rng_regression.py)"
        ),
        "seed": SEED,
        "k": K,
        "steps": STEPS,
        "edges": [[u, v] for u, v in edges],
        "trajectories": _compute_trajectories(_build_graph(edges)),
    }
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    # One edge / one trajectory row per line: reviewable diffs without the
    # vertical blow-up of a fully indented dump.
    lines = [
        "{",
        f' "comment": {json.dumps(record["comment"])},',
        f' "seed": {SEED}, "k": {K}, "steps": {STEPS},',
        ' "edges": [',
        *(
            f"  {json.dumps(edge)}{',' if i + 1 < len(edges) else ''}"
            for i, edge in enumerate(record["edges"])
        ),
        " ],",
        ' "trajectories": {',
    ]
    kernels = list(record["trajectories"])
    for j, kernel in enumerate(kernels):
        lines.append(f"  {json.dumps(kernel)}: [")
        rows = record["trajectories"][kernel]
        for i, row in enumerate(rows):
            comma = "," if i + 1 < len(rows) else ""
            lines.append(f"   {json.dumps(row)}{comma}")
        lines.append("  ]" + ("," if j + 1 < len(kernels) else ""))
    lines += [" }", "}"]
    FIXTURE.write_text("\n".join(lines) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    _regenerate()
