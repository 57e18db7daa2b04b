"""Acceptance-rejection with the bootstrapped scale factor."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rejection
from repro.core.rejection import RejectionSampler, ScaleFactorBootstrap
from repro.errors import ConfigurationError, EstimationError


def test_bootstrap_percentile():
    bootstrap = ScaleFactorBootstrap(percentile=10.0, minimum_observations=5)
    for ratio in np.linspace(1.0, 100.0, 100):
        bootstrap.observe(ratio)
    assert bootstrap.scale_factor() == pytest.approx(
        np.percentile(np.linspace(1.0, 100.0, 100), 10.0)
    )


def test_bootstrap_filters_degenerate_ratios():
    bootstrap = ScaleFactorBootstrap(minimum_observations=1)
    bootstrap.observe(0.0)
    bootstrap.observe(-1.0)
    bootstrap.observe(float("inf"))
    bootstrap.observe(float("nan"))
    assert bootstrap.observation_count == 0
    bootstrap.observe(2.0)
    assert bootstrap.observation_count == 1
    assert bootstrap.scale_factor() == 2.0


def test_bootstrap_not_ready_raises():
    bootstrap = ScaleFactorBootstrap(minimum_observations=3)
    bootstrap.observe(1.0)
    with pytest.raises(EstimationError):
        bootstrap.scale_factor()
    empty = ScaleFactorBootstrap()
    with pytest.raises(EstimationError):
        empty.scale_factor()


def test_bootstrap_validates_configuration():
    with pytest.raises(ConfigurationError):
        ScaleFactorBootstrap(percentile=0.0)
    with pytest.raises(ConfigurationError):
        ScaleFactorBootstrap(percentile=100.0)
    with pytest.raises(ConfigurationError):
        ScaleFactorBootstrap(minimum_observations=0)


def _ready_bootstrap(scale=1.0):
    bootstrap = ScaleFactorBootstrap(minimum_observations=1)
    bootstrap.observe(scale)
    return bootstrap


def test_acceptance_probability_formula(rng):
    sampler = RejectionSampler(_ready_bootstrap(scale=2.0), seed=rng)
    # beta = scale / (p / q) = 2.0 / (4.0 / 1.0) = 0.5
    assert sampler.acceptance_probability(4.0, 1.0) == pytest.approx(0.5)
    # Clamped at 1 when the ratio is below the scale.
    assert sampler.acceptance_probability(1.0, 1.0) == 1.0


def test_zero_estimate_accepted(rng):
    sampler = RejectionSampler(_ready_bootstrap(), seed=rng)
    assert sampler.acceptance_probability(0.0, 1.0) == 1.0


def test_invalid_inputs(rng):
    sampler = RejectionSampler(_ready_bootstrap(), seed=rng)
    with pytest.raises(ConfigurationError):
        sampler.acceptance_probability(1.0, 0.0)
    with pytest.raises(EstimationError):
        sampler.acceptance_probability(-1.0, 1.0)


def test_accept_rate_tracks_beta(rng):
    # Prime the pool heavily so the decisions' own ratio feedback (2.0 per
    # accept call) cannot move the percentile during the test.
    bootstrap = ScaleFactorBootstrap(minimum_observations=1)
    for _ in range(10000):
        bootstrap.observe(1.0)
    sampler = RejectionSampler(bootstrap, seed=rng)
    accepted = sum(sampler.accept(2.0, 1.0) for _ in range(4000))
    # beta = 1/2; binomial CI comfortably within +-0.05.
    assert abs(accepted / 4000 - 0.5) < 0.05
    assert sampler.accepted + sampler.rejected == 4000
    assert sampler.acceptance_rate == pytest.approx(accepted / 4000)


def test_accept_feeds_bootstrap(rng):
    bootstrap = ScaleFactorBootstrap(minimum_observations=1)
    bootstrap.observe(1.0)
    sampler = RejectionSampler(bootstrap, seed=rng)
    sampler.accept(3.0, 1.0)
    assert bootstrap.observation_count == 2  # initial + the decision's ratio


def test_rejection_corrects_distribution(rng):
    """End-to-end law check: rejection turns a skewed draw into the target.

    Proposal draws node A with 0.8, node B with 0.2; target is uniform.
    With exact probabilities and scale = min(p/q), accepted samples must
    be ~50/50.
    """
    p = {"A": 0.8, "B": 0.2}
    q = {"A": 1.0, "B": 1.0}
    bootstrap = ScaleFactorBootstrap(minimum_observations=1)
    bootstrap.observe(min(p[x] / q[x] for x in p))
    sampler = RejectionSampler(bootstrap, seed=rng)
    counts = {"A": 0, "B": 0}
    for _ in range(20000):
        node = "A" if rng.random() < 0.8 else "B"
        # Feed the exact sampling probability; keep the bootstrap pinned by
        # never observing ratios (acceptance_probability only).
        beta = sampler.acceptance_probability(p[node], q[node])
        if rng.random() < beta:
            counts[node] += 1
    total = counts["A"] + counts["B"]
    assert abs(counts["A"] / total - 0.5) < 0.03


# ----------------------------------------------------------------------
# The scale factor is computed once per state of the ratio pool
# ----------------------------------------------------------------------
RATIOS = st.one_of(
    st.floats(min_value=1e-6, max_value=1e3),
    st.sampled_from([0.0, -1.0, float("inf"), float("-inf"), float("nan")]),
)
POOL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), RATIOS),
        st.tuples(st.just("observe_many"), st.lists(RATIOS, max_size=6)),
        st.tuples(st.just("ensure_ready"), st.sampled_from([1.0, 0.25])),
    ),
    max_size=25,
)


def _usable(ratios):
    return [ratio for ratio in ratios if ratio > 0.0 and np.isfinite(ratio)]


@settings(max_examples=200, deadline=None)
@given(
    ops=POOL_OPS,
    percentile=st.one_of(
        st.sampled_from([1.0, 10.0, 25.0, 50.0, 90.0]),
        st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
    ),
    minimum=st.integers(1, 6),
)
def test_scale_factor_is_the_pool_percentile_after_every_change(
    ops, percentile, minimum
):
    bootstrap = ScaleFactorBootstrap(percentile, minimum_observations=minimum)
    pool = []
    for op, arg in ops:
        if op == "observe":
            bootstrap.observe(arg)
            pool += _usable([arg])
        elif op == "observe_many":
            bootstrap.observe_many(np.asarray(arg, dtype=float))
            pool += _usable(arg)
        else:
            bootstrap.ensure_ready(arg)
            pool += [arg] * max(0, minimum - len(pool))
        if len(pool) < minimum:
            with pytest.raises(EstimationError):
                bootstrap.scale_factor()
            continue
        expected = float(np.percentile(pool, percentile))
        assert bootstrap.scale_factor() == expected
        assert bootstrap.scale_factor() == expected


def test_scale_factor_recomputes_only_when_a_ratio_is_added(monkeypatch):
    computed = []
    percentile = rejection._linear_percentile

    def counted(ordered, p):
        computed.append(ordered.tolist())
        return percentile(ordered, p)

    monkeypatch.setattr(rejection, "_linear_percentile", counted)
    bootstrap = ScaleFactorBootstrap(minimum_observations=2)
    bootstrap.observe_many([3.0, 1.0])
    first = bootstrap.scale_factor()
    assert bootstrap.scale_factor() == first and computed == [[1.0, 3.0]]
    bootstrap.observe_many([0.0, -2.0, np.nan, np.inf])  # all filtered out
    bootstrap.observe(0.0)
    assert bootstrap.scale_factor() == first and len(computed) == 1
    bootstrap.observe(0.5)
    assert bootstrap.scale_factor() == np.percentile([3.0, 1.0, 0.5], 10.0)
    assert len(computed) == 2
    bootstrap.observe_many([2.0])
    bootstrap.ensure_ready()
    assert bootstrap.scale_factor() == np.percentile([3.0, 1.0, 0.5, 2.0], 10.0)
    assert len(computed) == 3 and computed[-1] == [0.5, 1.0, 2.0, 3.0]


def test_linear_percentile_is_numpys_on_random_pools():
    """Ties, one-element pools, magnitudes far apart, any percentile."""
    rng = np.random.default_rng(20)
    for trial in range(3000):
        size = int(rng.integers(1, 40))
        if trial % 3 == 0:
            pool = rng.choice([0.25, 1.0, 2.0, 1e-300, 1e300], size)
        else:
            pool = np.exp(rng.normal(0.0, 20.0, size))
        p = float(rng.choice([1.0, 10.0, 25.0, 50.0, rng.uniform(0.0, 100.0)]))
        got = rejection._linear_percentile(np.sort(pool), p)
        assert got == float(np.percentile(pool, p))


# ----------------------------------------------------------------------
# ensure_ready refuses a neutral ratio the pool would drop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("neutral", [0.0, -1.0, float("nan"), float("inf")])
def test_ensure_ready_refuses_a_neutral_it_would_drop(neutral):
    outcome = []

    def pad():
        try:
            ScaleFactorBootstrap().ensure_ready(neutral=neutral)
        except Exception as exc:  # reported to the test thread below
            outcome.append(exc)
        else:
            outcome.append(None)

    worker = threading.Thread(target=pad, daemon=True)
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive(), "ensure_ready never returned"
    assert len(outcome) == 1 and isinstance(outcome[0], ConfigurationError)
