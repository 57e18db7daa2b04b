"""The shared array helpers of :mod:`repro.arrays`."""

import numpy as np
import pytest

from repro.arrays import rows_searchsorted


def ragged_rows(rng, n_rows):
    """*n_rows* sorted rows of distinct ids (some empty), laid out flat in
    shuffled order with gaps between them, as a row pool stores them."""
    rows = [
        np.sort(rng.choice(60, size=rng.integers(0, 12), replace=False))
        for _ in range(n_rows)
    ]
    flat, starts = [], np.empty(n_rows, dtype=np.int64)
    offset = 0
    for i in rng.permutation(n_rows):
        gap = rng.integers(0, 3, size=int(rng.integers(0, 3)))
        flat.extend(gap.tolist())
        offset += gap.size
        starts[i] = offset
        flat.extend(rows[i].tolist())
        offset += rows[i].size
    return rows, np.asarray(flat, dtype=np.int64), starts


@pytest.mark.parametrize("seed", range(8))
def test_matches_per_row_searchsorted(seed):
    rng = np.random.default_rng(seed)
    rows, flat, starts = ragged_rows(rng, 200)
    lengths = np.array([row.size for row in rows], dtype=np.int64)
    assert (lengths == 0).any()
    # Values below, inside and past the end of every row's range.
    values = rng.integers(-5, 66, size=200)
    expected = [np.searchsorted(row, value) for row, value in zip(rows, values)]
    got = rows_searchsorted(flat, starts, lengths, values)
    assert got.dtype == np.int64
    assert got.tolist() == expected


def test_present_values_land_on_their_slot():
    flat = np.array([2, 5, 9, 4])
    starts, lengths = np.array([0, 3, 3]), np.array([3, 0, 1])
    found = rows_searchsorted(flat, starts, lengths, np.array([9, 7, 4]))
    beyond = rows_searchsorted(flat, starts, lengths, np.array([10, -1, 5]))
    assert found.tolist() == [2, 0, 0]
    assert beyond.tolist() == [3, 0, 1]


def test_no_rows():
    empty = np.zeros(0, dtype=np.int64)
    assert rows_searchsorted(empty, empty, empty, empty).size == 0
