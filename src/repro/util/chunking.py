"""Flat pair-index chunking.

The paper's GPU kernel assigns one thread to each of the
``n * (n - 1) / 2`` unordered vertex pairs (§V).  We reproduce that
decomposition with a flat pair index ``k`` in ``[0, n*(n-1)/2)`` and an
analytic inverse mapping ``k -> (i, j)``, so the edge streams, the
coloring validators and the random-graph generators can slice pair
space into chunks without materializing index arrays for the whole
quadratic domain.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np


def num_pairs(n: int) -> int:
    """Number of unordered pairs over ``n`` items, ``n * (n-1) // 2``."""
    return n * (n - 1) // 2


#: Largest ``n`` for which the analytic float64 inverse is exact: the
#: discriminant ``(n - 0.5)^2 - 2k`` mixes quantities up to ``~n^2``,
#: and float64 holds integers (and the 0.25 fraction) exactly only
#: below ``2^52``-ish — so ``n <= 2^26`` keeps ``n^2 <= 2^52`` and the
#: subtraction exact.  Beyond that, pair indices silently lose low bits
#: in the float conversion, so the mapping routes to an exact integer
#: bisection instead.
_ANALYTIC_MAX_N = 1 << 26


#: Cache of row-offset tables keyed by ``n`` (tiny LRU: the driver and
#: the multiprocessing workers each hammer one or two values of ``n``).
_ROW_OFFSET_CACHE: dict[int, np.ndarray] = {}
_ROW_OFFSET_CACHE_MAX = 4


def _row_offsets(n: int) -> np.ndarray:
    """``offset(i) = i*n - i*(i+1)/2`` for ``i`` in ``[0, n)``, cached.

    Strictly increasing for ``i <= n-1``, so it is directly
    searchsorted-able when the analytic inverse lands a row off.
    """
    cached = _ROW_OFFSET_CACHE.get(n)
    if cached is None:
        i = np.arange(n, dtype=np.int64)
        cached = i * n - (i * (i + 1)) // 2
        if len(_ROW_OFFSET_CACHE) >= _ROW_OFFSET_CACHE_MAX:
            _ROW_OFFSET_CACHE.pop(next(iter(_ROW_OFFSET_CACHE)))
        _ROW_OFFSET_CACHE[n] = cached
    return cached


def _rows_by_bisect(k: np.ndarray, n: int) -> np.ndarray:
    """Exact row lookup ``i = max{i : offset(i) <= k}`` in pure int64.

    Vectorized binary search over the *analytic* offset formula — no
    ``O(n)`` offset table (the searchsorted fallback would need one,
    which at the scales that route here would be gigabytes).  All
    arithmetic stays in int64: ``offset(i) = i*(2n - i - 1)/2`` peaks
    at ``~2 * num_pairs(n)``, which the caller has bounded below
    ``2^63``.
    """
    lo = np.zeros(len(k), dtype=np.int64)
    hi = np.full(len(k), max(n - 2, 0), dtype=np.int64)
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi + 1) >> 1
        off = (mid * (2 * n - mid - 1)) >> 1
        go_up = off <= k
        lo = np.where(active & go_up, mid, lo)
        hi = np.where(active & ~go_up, mid - 1, hi)


def pair_index_to_ij(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map flat unordered-pair indices to ``(i, j)`` with ``i < j``.

    Uses the row-major enumeration ``(0,1), (0,2), ..., (0,n-1), (1,2),
    ...``.  For a flat index ``k``, row ``i`` satisfies
    ``offset(i) <= k < offset(i+1)`` where
    ``offset(i) = i*n - i*(i+1)/2``; solving the quadratic gives a
    closed-form inverse, fixed up for floating-point edge error.

    The closed form runs through float64, whose 53-bit mantissa cannot
    hold pair indices once ``n`` exceeds :data:`_ANALYTIC_MAX_N`
    (``2^26`` — pair space ``~2^51``); those sizes route to an exact
    int64 bisection of the offset formula instead of silently losing
    low bits.  Pair spaces at or beyond ``2^62`` (where even the int64
    intermediates of the bisection would wrap) raise ``OverflowError``.

    Parameters
    ----------
    k:
        Integer array of flat pair indices.
    n:
        Number of items.

    Returns
    -------
    (i, j):
        ``int64`` arrays with ``0 <= i < j < n``.
    """
    k = np.asarray(k, dtype=np.int64)
    total = num_pairs(n)
    if total >= 1 << 62:
        raise OverflowError(
            f"pair space of n={n} items ({total} pairs) exceeds the exact "
            "int64 range of the row bisection (2^62)"
        )
    if k.size and (k.min() < 0 or k.max() >= total):
        raise ValueError("pair index out of range")
    if n > _ANALYTIC_MAX_N:
        # Overflow guard: float64 would silently truncate k and the
        # discriminant at this scale — take the exact integer path.
        i = _rows_by_bisect(k, n)
        off = i * n - (i * (i + 1)) // 2
        return i, k - off + i + 1
    nf = float(n)
    # Analytic fast path: i = floor(n - 1/2 - sqrt((n - 1/2)^2 - 2k)).
    disc = (nf - 0.5) ** 2 - 2.0 * k.astype(np.float64)
    i = np.floor(nf - 0.5 - np.sqrt(np.maximum(disc, 0.0))).astype(np.int64)
    np.clip(i, 0, max(n - 2, 0), out=i)
    # Floating point can land a row off near boundaries.  Instead of the
    # old repeated +-1 fixup loops, resolve every misfit in one shot by
    # binary-searching the cached row-offset table.
    off = i * n - (i * (i + 1)) // 2
    bad = (off > k) | (k >= off + (n - 1 - i))
    if bad.any():
        i[bad] = np.searchsorted(_row_offsets(n), k[bad], side="right") - 1
        off = i * n - (i * (i + 1)) // 2
    j = k - off + i + 1
    return i, j


def iter_pair_chunks(n: int, chunk_size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(i, j)`` index arrays covering all unordered pairs.

    Each yielded chunk holds at most ``chunk_size`` pairs.  Chunks are
    contiguous in the flat pair enumeration, which maps to contiguous
    memory traffic over the packed Pauli matrix (the cache-friendliness
    the HPC guide calls for).
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    total = num_pairs(n)
    for start in range(0, total, chunk_size):
        stop = min(start + chunk_size, total)
        k = np.arange(start, stop, dtype=np.int64)
        yield pair_index_to_ij(k, n)
