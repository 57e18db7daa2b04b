"""WS-BW: history bookkeeping, smoothed proposal, unbiasedness."""

import numpy as np
import pytest

from repro.core.crawl import InitialCrawl
from repro.core.weighted import (
    BackwardStats,
    ForwardHistory,
    smoothing_constant,
    weighted_backward_estimate,
)
from repro.errors import ConfigurationError
from repro.markov.matrix import TransitionMatrix
from repro.osn.api import SocialNetworkAPI
from repro.walks.transitions import MetropolisHastingsWalk, SimpleRandomWalk
from repro.walks.walker import run_walk


def make_history(graph, design, start, t, walks, rng):
    history = ForwardHistory(start, t)
    for _ in range(walks):
        history.record(run_walk(graph, design, start, t, seed=rng))
    return history


def test_history_counts(small_ba, rng):
    design = SimpleRandomWalk()
    history = make_history(small_ba, design, 0, 5, 30, rng)
    assert history.total_walks == 30
    assert history.count(0, 0) == 30  # every walk starts at the start
    step1_total = sum(history.count(v, 1) for v in small_ba.nodes())
    assert step1_total == 30  # exactly one position per walk per step
    assert history.count(0, 99) == 0  # out-of-range step


def test_history_rejects_mismatched_walks(small_ba, rng):
    history = ForwardHistory(0, 5)
    wrong_start = run_walk(small_ba, SimpleRandomWalk(), 1, 5, seed=rng)
    with pytest.raises(ConfigurationError):
        history.record(wrong_start)
    wrong_length = run_walk(small_ba, SimpleRandomWalk(), 0, 4, seed=rng)
    with pytest.raises(ConfigurationError):
        history.record(wrong_length)


def test_smoothing_constant_limits():
    # No history: Laplace floor.
    assert smoothing_constant(0, 10, 0.2) == 1.0
    # Rich history: uniform share tends to epsilon.
    c = smoothing_constant(10000, 10, 0.2)
    uniform_share = c * 10 / (10000 + c * 10)
    assert uniform_share == pytest.approx(0.2, rel=0.01)


@pytest.mark.parametrize(
    "design", [SimpleRandomWalk(), MetropolisHastingsWalk()], ids=lambda d: d.name
)
def test_ws_bw_unbiased_monte_carlo(design, small_ba, rng):
    matrix = TransitionMatrix(small_ba, design)
    t, start, node = 4, 0, 15
    truth = matrix.step_distribution(start, t)[node]
    history = make_history(small_ba, design, start, t, 40, rng)
    draws = np.array(
        [
            weighted_backward_estimate(
                small_ba, design, node, start, t, history=history, seed=rng
            )
            for _ in range(30000)
        ]
    )
    standard_error = draws.std() / np.sqrt(len(draws))
    assert abs(draws.mean() - truth) < 5 * standard_error + 1e-9


def test_ws_bw_without_history_matches_uniform_law(small_ba, rng):
    # With history=None the estimator is the plain uniform backward walk.
    design = SimpleRandomWalk()
    matrix = TransitionMatrix(small_ba, design)
    truth = matrix.step_distribution(0, 3)[10]
    draws = [
        weighted_backward_estimate(
            small_ba, design, 10, 0, 3, history=None, seed=rng
        )
        for _ in range(20000)
    ]
    assert np.mean(draws) == pytest.approx(truth, rel=0.25)


def test_ws_bw_with_crawl_terminates_early(small_ba, rng):
    design = SimpleRandomWalk()
    crawl = InitialCrawl(SocialNetworkAPI(small_ba), design, 0, 2)
    stats = BackwardStats()
    weighted_backward_estimate(
        small_ba, design, 12, 0, 5, history=None, crawl=crawl, seed=rng, stats=stats
    )
    assert stats.walks == 1
    assert stats.steps <= 5 - 2  # stops when depth hits the crawl horizon


def test_ws_bw_validates_inputs(small_ba, rng):
    design = SimpleRandomWalk()
    with pytest.raises(ValueError):
        weighted_backward_estimate(small_ba, design, 1, 0, -1, None, seed=rng)
    with pytest.raises(ConfigurationError):
        weighted_backward_estimate(
            small_ba, design, 1, 0, 2, None, epsilon=0.0, seed=rng
        )


def test_stats_accumulate_across_walks(small_ba, rng):
    design = SimpleRandomWalk()
    stats = BackwardStats()
    for _ in range(5):
        weighted_backward_estimate(
            small_ba, design, 9, 0, 4, history=None, seed=rng, stats=stats
        )
    assert stats.walks == 5
    assert stats.steps <= 20
    assert stats.steps >= 5  # at least one step unless start==node at t=0
