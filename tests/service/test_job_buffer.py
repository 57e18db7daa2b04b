"""A job keeps its absorbed samples in one growing buffer.

``Job.absorb`` appends each round into two float64 buffers; the running
estimate sums their filled prefix.  Concatenating every absorbed round
— what the job did before — is kept below as the reference: the arrays
and the partial estimates must match it bit for bit, through hundreds of
rounds, empty ones included.
"""

import math

import numpy as np
import pytest

from repro.core import EstimationJobSpec
from repro.service import Job


def make_job() -> Job:
    spec = EstimationJobSpec(design="srw", tenant="alice")
    return Job("job-1", spec, np.random.default_rng(1))


def concatenated_estimate(values, weights):
    """``current_estimate`` over the concatenated rounds, as it was."""
    total = float(np.sum(weights))
    mean = float(np.sum(values * weights) / total)
    residuals = values - mean
    stderr = float(math.sqrt(np.sum((weights * residuals) ** 2)) / total)
    return mean, stderr


def rounds(count=240, seed=5):
    """Seeded rounds of varied sizes, every seventh one empty."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        size = 0 if index % 7 == 3 else int(rng.integers(1, 300))
        yield rng.normal(8.0, 3.0, size), rng.uniform(0.5, 40.0, size)


def test_sample_arrays_and_partials_equal_the_concatenation():
    job = make_job()
    chunks_v, chunks_w = [], []
    for values, weights in rounds():
        job.absorb(values, weights)
        chunks_v.append(values)
        chunks_w.append(weights)
        expected_v = np.concatenate(chunks_v)
        expected_w = np.concatenate(chunks_w)
        got_v, got_w = job.sample_arrays()
        assert got_v.dtype == got_w.dtype == np.float64
        np.testing.assert_array_equal(got_v, expected_v)
        np.testing.assert_array_equal(got_w, expected_w)
        assert job.samples == expected_v.size
        if expected_v.size:
            expected = concatenated_estimate(expected_v, expected_w)
            assert job.current_estimate() == expected


def test_sample_arrays_are_read_only_views():
    job = make_job()
    job.absorb(np.arange(4.0), np.ones(4))
    values, weights = job.sample_arrays()
    for array in (values, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 99.0
    empty_job = make_job()
    assert not empty_job.sample_arrays()[0].flags.writeable


def test_earlier_views_keep_their_contents():
    job = make_job()
    job.absorb(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    before, _ = job.sample_arrays()
    for values, weights in rounds(count=30, seed=9):
        job.absorb(values, weights)
    np.testing.assert_array_equal(before, [1.0, 2.0])
    np.testing.assert_array_equal(job.sample_arrays()[0][:2], [1.0, 2.0])


def test_absorb_copies_the_callers_arrays():
    job = make_job()
    values, weights = np.array([3.0, 5.0]), np.array([1.0, 2.0])
    job.absorb(values, weights)
    values[:] = 0.0
    weights[:] = 0.0
    np.testing.assert_array_equal(job.sample_arrays()[0], [3.0, 5.0])
    np.testing.assert_array_equal(job.sample_arrays()[1], [1.0, 2.0])
    assert job.current_estimate()[0] == pytest.approx(13.0 / 3.0)
