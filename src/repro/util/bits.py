"""Packed-bitset primitives.

The Picasso paper encodes each Pauli character into 3 bits (an "inverse
one-hot" code) and reduces the anticommutation test between two strings
to ``popcount(a & b) & 1``.  The same packed-word machinery is reused for
palette bitsets: each vertex's candidate color list is a bitset over the
palette, and a conflict edge test is ``popcount(mask_u & mask_v) > 0``.

All routines operate on ``uint64`` words and are fully vectorized.  On
NumPy >= 2.0 we use :func:`numpy.bitwise_count` (a single hardware
``POPCNT`` per word); a portable SWAR fallback is provided and tested
against it.
"""

from __future__ import annotations

import numpy as np

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

# SWAR popcount constants for the uint64 fallback.
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def _popcount_swar(words: np.ndarray) -> np.ndarray:
    """Branch-free SWAR popcount on a uint64 array (portable fallback)."""
    x = words.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & _M1
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return ((x * _H01) >> np.uint64(56)).astype(np.int64)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array.

    Parameters
    ----------
    words:
        Array of ``uint64`` words (any shape).

    Returns
    -------
    numpy.ndarray
        ``int64`` array of the same shape with the number of set bits in
        each word.
    """
    words = np.asarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    return _popcount_swar(words)


def popcount_u8(words: np.ndarray) -> np.ndarray:
    """Per-element population count as ``uint8`` (no ``int64`` widening).

    The block pair kernels accumulate per-word popcounts over whole
    ``(rows, cols)`` blocks; keeping the result at one byte per pair
    instead of eight is most of their memory-bandwidth win, so this
    variant avoids the :func:`popcount` cast to ``int64``.
    """
    words = np.asarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    x = words.copy()
    x -= (x >> np.uint64(1)) & _M1
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return ((x * _H01) >> np.uint64(56)).astype(np.uint8)


def parity_block(
    a: np.ndarray,
    b: np.ndarray,
    tmp: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Popcount-parity of ``a[i] & b[j]`` for every row pair, as uint8.

    Parameters
    ----------
    a, b:
        Packed word matrices of shapes ``(R, W)`` and ``(C, W)``.
    tmp, out:
        Optional preallocated ``(R, C)`` scratch (uint64 word-AND
        buffer, uint8 result) — a sweep reuses them across blocks so
        the hot loop never touches the allocator.

    Returns
    -------
    numpy.ndarray
        ``(R, C)`` uint8 matrix with ``parity(popcount(a[i] & b[j]))``.

    This is the broadcast ("block") form of :func:`parity_rows` used by
    the row-strip sweep: one word column at a time so the scratch
    stays at one ``(R, C)`` temporary instead of ``(R, C, W)``.  The
    per-word popcounts are accumulated with wrapping uint8 addition —
    addition mod 256 preserves parity — and folded to a bit at the end.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = (a.shape[0], b.shape[0])
    if tmp is None:
        tmp = np.empty(shape, dtype=np.uint64)
    if out is None:
        out = np.zeros(shape, dtype=np.uint8)
    else:
        out[...] = 0
    for w in range(a.shape[1]):
        np.bitwise_and(a[:, w, None], b[None, :, w], out=tmp)
        if _HAS_BITWISE_COUNT:
            out += np.bitwise_count(tmp)
        else:
            out += popcount_u8(tmp)
    out &= np.uint8(1)
    return out


def anybit_block(
    a: np.ndarray,
    b: np.ndarray,
    tmp: np.ndarray | None = None,
    tmp_bool: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean ``(R, C)`` matrix: True where ``a[i] & b[j]`` is nonzero.

    Block-broadcast form of the palette-intersection test
    (``popcount(mask_u & mask_v) > 0`` collapses to "any word AND is
    nonzero", so no popcount is needed at all).  ``tmp``/``tmp_bool``/
    ``out`` are optional ``(R, C)`` scratch buffers.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = (a.shape[0], b.shape[0])
    if tmp is None:
        tmp = np.empty(shape, dtype=np.uint64)
    if tmp_bool is None:
        tmp_bool = np.empty(shape, dtype=bool)
    if out is None:
        out = np.zeros(shape, dtype=bool)
    else:
        out[...] = False
    for w in range(a.shape[1]):
        np.bitwise_and(a[:, w, None], b[None, :, w], out=tmp)
        np.not_equal(tmp, 0, out=tmp_bool)
        out |= tmp_bool
    return out


def lowest_set_bit_rows(masks: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit per row of a packed ``(n, W)`` matrix.

    Returns an ``int64`` vector with -1 for all-zero rows.  This is the
    one color-pick primitive shared across the coloring engines: the
    round-synchronous parallel list engine's tentative pick is the
    lowest set bit of ``list & ~forbidden``, and
    :func:`smallest_available_color` is the lowest set bit of the
    complemented presence bitset.

    Fully vectorized: per word column, isolate the lowest bit with
    ``m & (~m + 1)`` and recover its index via ``log2`` (exact — an
    isolated bit is a power of two, which float64 represents exactly).
    """
    masks = np.asarray(masks, dtype=np.uint64)
    if masks.ndim != 2:
        raise ValueError(f"expected a 2-D bitset matrix, got shape {masks.shape}")
    n, nwords = masks.shape
    out = np.full(n, -1, dtype=np.int64)
    remaining = np.arange(n, dtype=np.int64)
    for w in range(nwords):
        if remaining.size == 0:
            break
        col = masks[remaining, w]
        hit = col != 0
        if hit.any():
            words = col[hit]
            iso = words & (~words + np.uint64(1))
            bits = np.log2(iso.astype(np.float64)).astype(np.int64)
            out[remaining[hit]] = 64 * w + bits
            remaining = remaining[~hit]
    return out


def smallest_available_color(forbidden: np.ndarray) -> int:
    """Smallest non-negative integer not present in ``forbidden``.

    ``forbidden`` may contain -1 entries (uncolored neighbors); they are
    ignored.  The answer is at most ``len(forbidden)``, so a presence
    bitset of that width suffices: pack the small forbidden values,
    complement, and take the lowest set bit — the same
    :func:`lowest_set_bit_rows` primitive the list-coloring engines
    pick colors with.
    """
    forbidden = np.asarray(forbidden)
    valid = forbidden[forbidden >= 0]
    if valid.size == 0:
        return 0
    limit = int(valid.size)  # answer is in [0, limit]
    nwords = (limit + 64) // 64
    present = np.zeros(nwords, dtype=np.uint64)
    small = valid[valid <= limit].astype(np.int64)
    np.bitwise_or.at(
        present, small >> 6, np.uint64(1) << (small & 63).astype(np.uint64)
    )
    return int(lowest_set_bit_rows(~present[None, :])[0])


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Total population count along the last axis.

    For a ``(n, W)`` packed matrix this returns the per-row number of set
    bits as an ``int64`` vector of length ``n``.
    """
    return popcount(words).sum(axis=-1)


def parity_rows(words: np.ndarray) -> np.ndarray:
    """Parity (popcount mod 2) along the last axis, as ``uint8``.

    This is the anticommutation oracle: two encoded Pauli strings
    anticommute iff the parity of ``popcount(a & b)`` is odd.
    """
    return (popcount_rows(words) & 1).astype(np.uint8)


def packbits_rows(bits: np.ndarray, width: int | None = None) -> np.ndarray:
    """Pack a boolean/0-1 matrix into rows of uint64 words (LSB-first).

    Parameters
    ----------
    bits:
        ``(n, B)`` array of 0/1 values; row ``i`` holds the bits of item
        ``i``.  Bit ``j`` of row ``i`` lands in word ``j // 64`` at bit
        position ``j % 64``.
    width:
        Optional total bit width; defaults to ``B``.  Extra bits are
        zero-padded so callers can reserve room.

    Returns
    -------
    numpy.ndarray
        ``(n, ceil(width / 64))`` array of ``uint64``.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {bits.shape}")
    n, b = bits.shape
    if width is None:
        width = b
    if width < b:
        raise ValueError(f"width {width} smaller than bit count {b}")
    nwords = (width + 63) // 64
    out = np.zeros((n, nwords), dtype=np.uint64)
    cols = np.arange(b)
    words = cols // 64
    shifts = (cols % 64).astype(np.uint64)
    vals = bits.astype(np.uint64)
    # Accumulate each bit column into its word column.  Grouping by word
    # keeps this vectorized without np.add.at scatter overhead.
    for w in range(nwords):
        sel = words == w
        if not sel.any():
            continue
        contrib = vals[:, sel] << shifts[sel]
        out[:, w] = np.bitwise_or.reduce(contrib, axis=1)
    return out


def bitset_set(masks: np.ndarray, row: int, bit: int) -> None:
    """Set ``bit`` in bitset ``row`` of a packed ``(n, W)`` uint64 matrix."""
    masks[row, bit >> 6] |= np.uint64(1) << np.uint64(bit & 63)


def bitset_clear(masks: np.ndarray, row: int, bit: int) -> None:
    """Clear ``bit`` in bitset ``row`` of a packed ``(n, W)`` uint64 matrix."""
    masks[row, bit >> 6] &= ~(np.uint64(1) << np.uint64(bit & 63))


def bitset_test(masks: np.ndarray, row: int, bit: int) -> bool:
    """Return True iff ``bit`` is set in bitset ``row``."""
    return bool((masks[row, bit >> 6] >> np.uint64(bit & 63)) & np.uint64(1))


def bitset_from_lists(lists: list[np.ndarray] | np.ndarray, nbits: int) -> np.ndarray:
    """Build packed bitsets from per-row integer index lists.

    Parameters
    ----------
    lists:
        Either a ragged list of 1-D integer arrays or a dense ``(n, L)``
        integer matrix; entries are bit indices in ``[0, nbits)``.
        Negative entries in a dense matrix are treated as padding and
        skipped.
    nbits:
        Size of the bit domain (e.g. the palette size).

    Returns
    -------
    numpy.ndarray
        ``(n, ceil(nbits / 64))`` uint64 bitset matrix.
    """
    nwords = (nbits + 63) // 64
    if isinstance(lists, np.ndarray) and lists.ndim == 2:
        n, _ = lists.shape
        out = np.zeros((n, nwords), dtype=np.uint64)
        rows = np.arange(n)
        # One column at a time: within a column every row appears once,
        # so a plain fancy-index OR is exact (no ufunc.at), and the
        # scratch stays O(n) instead of O(n * L).
        for col in lists.T:
            keep = col >= 0
            idx = col[keep].astype(np.int64)
            if idx.size and (idx.max() >= nbits):
                raise ValueError("bit index out of range")
            out[rows[keep], idx >> 6] |= (
                np.uint64(1) << (idx & 63).astype(np.uint64)
            )
        return out
    out = np.zeros((len(lists), nwords), dtype=np.uint64)
    for i, lst in enumerate(lists):
        arr = np.asarray(lst, dtype=np.int64)
        if arr.size == 0:
            continue
        if arr.max() >= nbits or arr.min() < 0:
            raise ValueError("bit index out of range")
        np.bitwise_or.at(
            out[i], arr >> 6, np.uint64(1) << (arr & 63).astype(np.uint64)
        )
    return out
