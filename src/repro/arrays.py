"""Tiny shared array helpers for the batch layers.

One idiom shows up everywhere a batch component asks "which of these ids
do I know about?" — a binary search into a sorted id array followed by a
clamped equality check.  It is subtle enough (the ``np.minimum`` clamp is
what keeps the probe of past-the-end positions in bounds) that every
copy is a bug waiting to happen, so it lives here once.  So does its
ragged twin, one binary search per row of a flat array of sorted rows.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def sorted_lookup(sorted_ids: np.ndarray, values) -> Tuple[np.ndarray, np.ndarray]:
    """Locate *values* in the sorted array *sorted_ids*.

    Returns ``(positions, found)``: ``positions[i]`` is the insertion
    point of ``values[i]`` and is only a valid index into *sorted_ids*
    where ``found[i]`` is True (i.e. the value is actually present).
    """
    values = np.asarray(values)
    positions = np.searchsorted(sorted_ids, values)
    if sorted_ids.size == 0:
        return positions, np.zeros(values.shape, dtype=bool)
    found = (positions < sorted_ids.size) & (
        sorted_ids[np.minimum(positions, sorted_ids.size - 1)] == values
    )
    return positions, found


def rows_searchsorted(flat: np.ndarray, starts, lengths, values) -> np.ndarray:
    """Per-row ``searchsorted``: where ``values[i]`` goes in its sorted row.

    Row ``i`` is ``flat[starts[i] : starts[i] + lengths[i]]``; the result
    is the left insertion point of ``values[i]`` within it, in
    ``[0, lengths[i]]``.  A vectorized binary search over the ragged
    rows — O(log max length) array passes instead of a loop per row.
    """
    lo = np.zeros(len(lengths), dtype=np.int64)
    hi = np.array(lengths, dtype=np.int64)
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) >> 1
        less = np.zeros(lo.size, dtype=bool)
        less[active] = flat[starts[active] + mid[active]] < values[active]
        lo = np.where(active & less, mid + 1, lo)
        hi = np.where(active & ~less, mid, hi)
