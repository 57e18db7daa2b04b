"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import rng as rng_module
from repro.graphs.generators import barabasi_albert_graph, cycle_graph
from repro.graphs.graph import Graph


@pytest.fixture
def triangle() -> Graph:
    """Smallest interesting graph: a 3-cycle."""
    g = Graph(name="triangle")
    g.add_edges_from([(0, 1), (1, 2), (2, 0)])
    return g


@pytest.fixture
def path4() -> Graph:
    """Path 0-1-2-3 (non-regular, bipartite)."""
    g = Graph(name="path4")
    g.add_edges_from([(0, 1), (1, 2), (2, 3)])
    return g


@pytest.fixture
def star5() -> Graph:
    """Hub 0 with 4 leaves — extreme degree skew."""
    g = Graph(name="star5")
    g.add_edges_from([(0, i) for i in range(1, 5)])
    return g


@pytest.fixture
def small_ba() -> Graph:
    """A 30-node scale-free graph, the workhorse for statistical tests."""
    return barabasi_albert_graph(30, 3, seed=7).relabeled()


@pytest.fixture
def small_cycle() -> Graph:
    """An 11-node (odd, hence aperiodic) cycle."""
    return cycle_graph(11).relabeled()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for test randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def block_calls(monkeypatch) -> list:
    """Widths of the bounded draws that take ``repro.rng``'s block path."""
    calls = []
    block = rng_module._lemire_block

    def counting(rng, bounds):
        calls.append(bounds.size)
        return block(rng, bounds)

    monkeypatch.setattr(rng_module, "_lemire_block", counting)
    return calls
