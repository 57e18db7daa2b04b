"""``repro.rng.bounded_integers`` against NumPy's own ``rng.integers(0, high)``.

The helper draws a wide batch's 32-bit values as one block and applies
Lemire's multiply-and-reject rule as array arithmetic.  NumPy applies the
same rule one element at a time, so both must give the same integers, the
same dtype and leave the generator in the same state: across the width
threshold, with bounds of 1 (which draw nothing), bounds just above 2**31
(where about half of all 32-bit values are rejected), bounds up to
2**32 − 1, a generator holding a buffered 32-bit half, and every bit
generator NumPy ships.  Bounds the block cannot take go to NumPy's call.

A PCG64 block reads its 32-bit values from the generator's raw 64-bit
words and writes back the buffered half NumPy's own calls would leave,
so the whole state dict, a spent (stale) ``uinteger`` included, must
equal NumPy's after every call, at odd and even counts, and after the
one-value top-ups that follow a rejection.  PCG64DXSM and a PCG64
subclass must match NumPy whichever path they take.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng as rng_module
from repro.rng import BLOCK_DRAW_MIN, bounded_integers


class SubclassedPCG64(np.random.PCG64):
    """A PCG64 subclass: it may override how it draws, so it is no PCG64."""


BIT_GENERATORS = [
    np.random.PCG64,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
    np.random.PCG64DXSM,
    SubclassedPCG64,
]
WIDTHS = [BLOCK_DRAW_MIN - 1, BLOCK_DRAW_MIN, BLOCK_DRAW_MIN + 1, 3 * BLOCK_DRAW_MIN]


def _same_state(a: dict, b: dict) -> bool:
    """Equal bit-generator states; MT19937 keeps its key as an array."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _pair(bit_generator, seed: int, buffered_half: bool):
    """Two generators in one state; optionally holding a buffered 32-bit half."""
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    if buffered_half:
        for generator in pair:
            generator.integers(0, 2**32, size=3, dtype=np.uint32)
    return pair


def _assert_matches_numpy(
    high, bit_generator=np.random.PCG64, seed=0, buffered_half=False
):
    ours, numpys = _pair(bit_generator, seed, buffered_half)
    got = bounded_integers(ours, high)
    expected = numpys.integers(0, high)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert _same_state(ours.bit_generator.state, numpys.bit_generator.state)
    # The stream runs on unbroken after the call.
    assert np.array_equal(
        ours.integers(0, 2**32, size=5, dtype=np.uint32),
        numpys.integers(0, 2**32, size=5, dtype=np.uint32),
    )


def _bounds(kind: str, width: int, seed: int) -> np.ndarray:
    draw = np.random.default_rng(seed)
    if kind == "degrees":
        return draw.integers(1, 300, width)
    if kind == "ones-mixed-in":
        return np.where(draw.random(width) < 0.3, 1, draw.integers(2, 50, width))
    if kind == "just-above-2**31":
        return 2**31 + draw.integers(1, 5, width)
    if kind == "up-to-2**32-1":
        return draw.integers(2**32 - 6, 2**32, width)
    if kind == "full-32-bit-range":
        return draw.integers(1, 2**32, width)
    raise AssertionError(kind)


KINDS = [
    "degrees",
    "ones-mixed-in",
    "just-above-2**31",
    "up-to-2**32-1",
    "full-32-bit-range",
]


class TestMatchesNumpy:
    @pytest.mark.parametrize("buffered_half", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_values_dtype_and_state(
        self, bit_generator, width, kind, buffered_half, block_calls
    ):
        high = _bounds(kind, width, seed=width)
        _assert_matches_numpy(high, bit_generator, width + 17, buffered_half)
        # The width alone decides whether the block path ran.
        assert bool(block_calls) is (width >= BLOCK_DRAW_MIN)

    def test_all_ones_draw_nothing(self):
        high = np.ones(BLOCK_DRAW_MIN, dtype=np.int64)
        generator = np.random.default_rng(4)
        before = generator.bit_generator.state
        assert not bounded_integers(generator, high).any()
        assert generator.bit_generator.state == before

    def test_single_bound_takes_the_scalar_path(self):
        for bound in (1, 2, 7, 2**31 + 1, 2**40):
            _assert_matches_numpy(np.array([bound], dtype=np.int64), seed=bound)

    @pytest.mark.parametrize("width", [0, 2, 100])
    def test_narrow_batches(self, width):
        _assert_matches_numpy(_bounds("degrees", width, 5), seed=width)

    @given(
        width=st.integers(min_value=BLOCK_DRAW_MIN, max_value=2 * BLOCK_DRAW_MIN),
        top=st.sampled_from([2, 3, 300, 2**16, 2**31 + 3, 2**32 - 1]),
        ones=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**32),
        bit_generator=st.sampled_from(BIT_GENERATORS),
        buffered_half=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_bounds(self, width, top, ones, seed, bit_generator, buffered_half):
        draw = np.random.default_rng(seed)
        high = np.where(draw.random(width) < ones, 1, draw.integers(1, top + 1, width))
        _assert_matches_numpy(high, bit_generator, seed, buffered_half)


class TestNumpysOwnCall:
    """Bounds the block cannot take, and every error, go to NumPy."""

    @pytest.mark.parametrize("bound", [2**32, 2**32 + 1, 2**40, 2**62])
    def test_bounds_from_2_to_the_32(self, bound, block_calls):
        high = _bounds("degrees", BLOCK_DRAW_MIN, 6)
        high[BLOCK_DRAW_MIN // 2] = bound
        _assert_matches_numpy(high, seed=bound % 1000)
        assert block_calls == []

    @pytest.mark.parametrize("bound", [0, -1, -(2**40)])
    @pytest.mark.parametrize("width", [1, 5, BLOCK_DRAW_MIN])
    def test_bounds_at_or_below_0_raise_the_same_error(self, bound, width, block_calls):
        high = _bounds("degrees", width, 7)
        high[width // 2] = bound
        ours, numpys = _pair(np.random.PCG64, 8, False)
        with pytest.raises(ValueError) as expected:
            numpys.integers(0, high)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            bounded_integers(ours, high)
        assert ours.bit_generator.state == numpys.bit_generator.state
        assert block_calls == []

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.uint64])
    def test_other_dtypes(self, dtype, block_calls):
        high = _bounds("degrees", BLOCK_DRAW_MIN, 9).astype(dtype)
        _assert_matches_numpy(high, seed=10)
        assert block_calls == []

    def test_two_dimensional_bounds(self, block_calls):
        high = _bounds("degrees", 2 * BLOCK_DRAW_MIN, 11).reshape(2, -1)
        _assert_matches_numpy(high, seed=12)
        assert block_calls == []


class TestRawWords:
    """The 32-bit values a block takes, against NumPy's uint32 call."""

    @pytest.mark.parametrize("buffered_half", [False, True])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 2 * BLOCK_DRAW_MIN + 1])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_odd_and_even_counts(self, bit_generator, count, buffered_half):
        ours, numpys = _pair(bit_generator, count + 3, buffered_half)
        got = rng_module._uint32s(ours, count)
        expected = numpys.integers(0, 2**32, size=count, dtype=np.uint32)
        assert np.array_equal(got, expected)
        assert _same_state(ours.bit_generator.state, numpys.bit_generator.state)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_whole_state_after_every_call(self, bit_generator):
        ours, numpys = _pair(bit_generator, 21, False)
        spent = 0
        for call, width in enumerate([BLOCK_DRAW_MIN, BLOCK_DRAW_MIN + 1] * 3 + [7]):
            high = _bounds(KINDS[call % len(KINDS)], width, seed=call)
            got = bounded_integers(ours, high)
            assert np.array_equal(got, numpys.integers(0, high))
            state = numpys.bit_generator.state
            assert _same_state(ours.bit_generator.state, state)
            spent += state.get("has_uint32") == 0 and state.get("uinteger", 0) != 0
        if bit_generator is np.random.PCG64:
            # Some calls ended on a spent high half: its stale value counts.
            assert spent

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_buffered_half_feeds_a_one_value_top_up(self, seed, monkeypatch):
        # Bounds just above 2**31 reject about half of all values, so the
        # last window tops up one value at a time: from a fresh word, whose
        # high half then waits, and from that waiting half.
        top_ups = []
        uint32s = rng_module._uint32s

        def recording(rng, count):
            top_ups.append((count, rng.bit_generator.state["has_uint32"]))
            return uint32s(rng, count)

        monkeypatch.setattr(rng_module, "_uint32s", recording)
        high = _bounds("just-above-2**31", BLOCK_DRAW_MIN, seed)
        _assert_matches_numpy(high, seed=seed)
        assert (1, 0) in top_ups[1:] and (1, 1) in top_ups[1:]
