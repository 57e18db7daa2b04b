"""Random-number-generation helpers.

All stochastic components of the library accept either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy), and
normalize it through :func:`ensure_rng`.  Experiments derive independent
child generators with :func:`spawn` so that adding a new consumer of
randomness does not perturb the streams of existing ones.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``None`` draws fresh OS entropy, an ``int`` produces a deterministic
    generator, and an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive *count* statistically independent child generators from *rng*."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


#: Width from which :func:`bounded_integers` draws one block.  Against
#: NumPy's own call (2-core x86-64 container, NumPy 2.4, PCG64, bounds
#: sized like BA-graph degrees, median of 21 interleaved timings) the
#: block, its values read from raw 64-bit words, breaks even at about
#: 700 bounds when none is 1, and at 1,500–2,000 when a fifth are 1,
#: which costs it a compression pass.  At 2,048 bounds it takes 0.57–0.65
#: of NumPy's time (0.92–0.97 with a fifth 1), at 4,096 0.43–0.49, at
#: 32,768 about 0.32.  This first power of two past both crossovers keeps
#: narrower calls on NumPy.  Rounds shaped like the service's (256 walks
#: × 8 repetitions: 2,048-wide backward levels) ran no slower at 2,048
#: than at 4,096.
BLOCK_DRAW_MIN = 2048

# uint64 scalars keep the rule's arithmetic in uint64 under the value-based
# promotion of NumPy 1.x as well as under NumPy 2's.
_WORD = np.uint64(2**32)
_LOW_WORD = np.uint64(2**32 - 1)
_HIGH_SHIFT = np.uint64(32)


def bounded_integers(rng: np.random.Generator, high: np.ndarray) -> np.ndarray:
    """``rng.integers(0, high)`` for an array of bounds, bit for bit.

    NumPy draws an array of bounds one element at a time.  A bound of 1
    takes no value.  For a bound ``s`` in ``[2, 2**32)`` it takes a
    32-bit value ``v`` and returns ``(v · s) >> 32``, unless Lemire's
    rule rejects ``v`` because the low word of ``v · s`` is below
    ``(2**32 − s) % s``; then it takes the next value (arXiv 1805.10941).
    From :data:`BLOCK_DRAW_MIN` bounds on, this function draws the same
    32-bit values in one call and applies the rule as array arithmetic,
    so it returns the same integers and leaves *rng* in the same state.
    Each rejection adds to its cost, but they come at most once in
    ``2**32 / s`` values: never in practice for bounds the size of node
    degrees.

    A single bound takes NumPy's scalar call, which consumes the same
    bits in about 1.8 µs against 6 µs for the array call.  Narrower
    batches, other shapes and dtypes, bounds outside ``[1, 2**32)`` and
    every error case take NumPy's own call.
    """
    if high.size == 1 and high.ndim == 1:
        return np.array([rng.integers(0, high[0])], dtype=np.int64)
    if high.size < BLOCK_DRAW_MIN or high.ndim != 1 or high.dtype != np.int64:
        return rng.integers(0, high)
    lowest = high.min()
    if lowest < 1 or high.max() >= 2**32:
        return rng.integers(0, high)
    if lowest > 1:
        return _lemire_block(rng, high.view(np.uint64))
    # A bound of 1 takes no value and yields 0.
    out = np.zeros(high.size, dtype=np.int64)
    live = np.flatnonzero(high > 1)
    out[live] = _lemire_block(rng, high[live].view(np.uint64))
    return out


def _uint32s(rng: np.random.Generator, count: int) -> np.ndarray:
    """``rng.integers(0, 2**32, size=count, dtype=np.uint32)``, bit for bit.

    NumPy makes each of these values with one ``next_uint32`` call.
    PCG64 serves them from its 64-bit words, low half first, and keeps
    the high half in its state (``has_uint32``, ``uinteger``) for the
    next call.  So one ``random_raw`` call yields the same values: a
    half already waiting first, then both halves of each word.  The
    state is then written back as NumPy's calls leave it: the last
    word's high half waits after an odd number of its halves, and stays
    behind, spent, after an even one.  Other bit generators, and
    subclasses that may draw otherwise, take NumPy's call.
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64 or count == 0:
        return rng.integers(0, 2**32, size=count, dtype=np.uint32)
    state = bit_generator.state
    waiting = state["has_uint32"]
    words = bit_generator.random_raw((count - waiting + 1) // 2)
    # Little-endian words read as 32-bit pairs put the low half first.
    halves = words.astype("<u8", copy=False).view("<u4")
    if waiting:
        halves = np.concatenate((np.array([state["uinteger"]], "<u4"), halves))
    state = bit_generator.state
    state["has_uint32"] = int(halves.size > count)
    state["uinteger"] = int(halves[-1])
    bit_generator.state = state
    return halves[:count]


def _lemire_block(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """Lemire's bounded draw for uint64 *bounds* in ``[2, 2**32)``, in order."""
    size = bounds.size
    products = np.empty(size, dtype=np.uint64)
    stream = _uint32s(rng, size)  # not yet taken
    # NumPy draws again for a rejected element, so it and every later
    # element take values one further along the stream.  The first window
    # is the whole batch; after a rejection the next one starts at the
    # rejected element with 64 bounds, and a window without one doubles.
    # Products past a rejection are rewritten by a later window.
    done, width = 0, size
    while done < size:
        n = min(width, size - done)
        if stream.size < n:
            # Each remaining element takes at least one value, so this
            # never draws past what NumPy would.
            stream = np.concatenate([stream, _uint32s(rng, n - stream.size)])
        window = products[done : done + n]
        np.multiply(stream[:n], bounds[done : done + n], out=window)
        accepted = _first_rejected(window, bounds[done : done + n])
        done += accepted
        stream = stream[accepted + (accepted < n) :]
        width = 2 * width if accepted == n else 64
    products >>= _HIGH_SHIFT
    return products.view(np.int64)


def _first_rejected(products: np.ndarray, bounds: np.ndarray) -> int:
    """Index of the first value that Lemire's rule rejects, or the size."""
    low = products & _LOW_WORD
    # The threshold (2**32 − s) % s is below s, so only a low word below s
    # can be rejected: about one element in 2**32 / s.
    suspect = low < bounds
    if suspect.any():
        suspects = np.flatnonzero(suspect)
        s = bounds[suspects]
        rejected = suspects[low[suspects] < (_WORD - s) % s]
        if rejected.size:
            return int(rejected[0])
    return bounds.size


def choice_weighted(
    rng: np.random.Generator,
    items: list,
    weights: Optional[list[float]] = None,
):
    """Pick one element of *items*, optionally according to *weights*.

    Weights need not be normalized; they must be non-negative with a
    positive sum.  This is a thin wrapper that keeps call sites readable and
    validates inputs eagerly, which matters because transition bugs would
    otherwise surface as silent sampling bias.
    """
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    if weights is None:
        index = int(rng.integers(0, len(items)))
        return items[index]
    if len(weights) != len(items):
        raise ValueError(
            f"weights length {len(weights)} does not match items length {len(items)}"
        )
    total = float(sum(weights))
    if total <= 0.0:
        raise ValueError("weights must have a positive sum")
    probabilities = np.asarray(weights, dtype=float) / total
    if np.any(probabilities < 0.0):
        raise ValueError("weights must be non-negative")
    index = int(rng.choice(len(items), p=probabilities))
    return items[index]
