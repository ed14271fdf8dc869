"""The all-pairs row-strip sweep (§V's conflict kernel).

The paper's §V kernel runs one SIMT thread per unordered pair: test the
two candidate lists for a shared color, then the pair for an edge.  A
literal NumPy port would take flat pair-index chunks, invert ``k -> (i,
j)`` and *gather* the packed operand rows for every pair, duplicating
each of the ``n`` rows ~``n`` times across a sweep.  This module sweeps
the upper triangle in row strips ``[r0, r1) x [r0, n)`` instead: each
strip loads its row slice once and evaluates both tests as word
broadcasts over the strip, with no flat-index inversion and no
quadratic row gather.

- **Palette test.**  With ``L < P`` each strip ANDs the block oracle
  with :func:`repro.util.bits.anybit_block` of the packed palette
  bitsets (the paper's list-intersect test); with ``L = P`` every pair
  shares a color, so the strip skips it (``colmasks=None``).  Without a
  block oracle the strip's palette survivors are decoded and tested
  pairwise through ``edge_mask_fn``.
- **Strip height.**  A strip holds about :data:`SCRATCH_BYTES_PER_PAIR`
  bytes of temporaries per pair (the uint64 word-AND, the boolean
  compare buffer and the boolean hit mask), so :func:`strip_height`
  fits ``budget // (SCRATCH_BYTES_PER_PAIR * n)`` rows, at least one,
  into the :data:`STRIP_BYTES` budget.
- **Device budget.**  On the :class:`~repro.device.sim.DeviceSim` path
  the strip scratch (:func:`strip_scratch`) is a named allocation
  against the device budget, one per worker, reserved *before* the COO
  buffer grabs the remainder (:mod:`repro.device.csr_build`,
  :mod:`repro.device.multi`).
- **Keys.**  Each strip's hits come out as ascending CSR keys
  (:func:`repro.graphs.csr.key_layout`): only the strip's leading
  square holds pairs ``i >= j``, so only it is masked, and a row-major
  scan of the strip is key order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache

import numpy as np

from repro.graphs.csr import key_dtype, key_layout, key_pairs
from repro.util.bits import anybit_block

__all__ = [
    "STRIP_BYTES",
    "SCRATCH_BYTES_PER_PAIR",
    "EdgeBlockFn",
    "strip_height",
    "strip_scratch",
    "strip_keys",
    "sweep_strips",
    "count_block_hits",
    "concat_hits",
]

#: Scratch budget of one strip, in bytes.  768 KiB keeps a strip's
#: uint64 word-AND temporary (8 of the 10 bytes per pair) within a
#: per-core L2, because the palette test writes and re-reads it once
#: per word column.
STRIP_BYTES = 768 * 1024

#: Scratch bytes per pair of a strip: the uint64 word-AND temporary
#: (8), the boolean compare buffer (1) and the boolean hit mask (1).
#: The word loop reuses the same temporaries, so this does not scale
#: with the packed word count.
SCRATCH_BYTES_PER_PAIR = 10

#: Block edge oracle: (r0, r1, c0, c1) -> uint8/bool (r1-r0, c1-c0)
#: matrix over global vertex ids (only entries with i < j are used).
#: The sweep masks the block in place, so it must be fresh or a scratch
#: buffer that the next call overwrites anyway.
EdgeBlockFn = Callable[[int, int, int, int], np.ndarray]


def strip_height(n: int, budget: int = STRIP_BYTES) -> int:
    """Rows per ``[r0, r1) x [r0, n)`` strip whose scratch fits
    ``budget`` bytes: at least one row, at most ``n``."""
    return max(1, min(n, budget // (SCRATCH_BYTES_PER_PAIR * max(n, 1))))


def strip_scratch(
    n: int, available: int, workers: int = 1, block_oracle: bool = False,
) -> tuple[int, int]:
    """``(height, bytes)`` of the strip scratch a build charges with
    ``available`` device bytes left, one strip per worker.

    The scratch is reserved ahead of the COO buffer (which takes all
    remaining memory), sized from at most a quarter of what is left —
    split across workers, each of which owns a private scratch — so the
    COO stream keeps the lion's share.  A strip never drops below one
    row; when even that does not fit, the allocation raises
    :class:`~repro.device.sim.DeviceOutOfMemory`.  A block edge oracle
    brings its own strip of temporaries on top of the palette test's,
    so it doubles the charge.
    """
    height = strip_height(n, min(STRIP_BYTES, available // 4 // workers))
    mult = 2 if block_oracle else 1
    return height, SCRATCH_BYTES_PER_PAIR * height * n * mult * workers


@lru_cache(maxsize=64)
def _triangle_mask(h: int) -> np.ndarray:
    """Read-only ``(h, h)`` mask, True where ``i < j``: the pairs of a
    strip's leading square."""
    mask = np.arange(h)[:, None] < np.arange(h)[None, :]
    mask.setflags(write=False)
    return mask


def _upper_strip(
    n: int,
    r0: int,
    r1: int,
    edge_block_fn: EdgeBlockFn | None = None,
    colmasks: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean ``(r1 - r0, n - r0)`` strip, True at the pairs ``i < j``
    that share a color (every pair when ``colmasks`` is ``None``) and
    that ``edge_block_fn``, when given, marks as edges."""
    blk = None if colmasks is None else anybit_block(colmasks[r0:r1], colmasks[r0:n])
    if edge_block_fn is not None:
        edges = np.asarray(edge_block_fn(r0, r1, r0, n)).astype(bool, copy=False)
        if blk is None:
            blk = edges
        else:
            blk &= edges
    elif blk is None:
        blk = np.ones((r1 - r0, n - r0), dtype=bool)
    h = r1 - r0
    blk[:, :h] &= _triangle_mask(h)
    return blk


def strip_keys(
    n: int,
    r0: int,
    r1: int,
    edge_block_fn: EdgeBlockFn | None = None,
    colmasks: np.ndarray | None = None,
    edge_mask_fn=None,
) -> np.ndarray:
    """Conflict edges of the strip ``[r0, r1) x [r0, n)`` as ascending
    CSR keys ``i << s | j``.

    A pair is a conflict edge when its packed palette bitsets
    (``colmasks``; ``None`` when every pair shares a color) intersect
    and the graph has the edge: ``edge_block_fn`` answers the whole
    strip at once; without it, ``edge_mask_fn`` answers the palette
    test's survivors.
    """
    if edge_block_fn is None and edge_mask_fn is None:
        raise ValueError("need edge_mask_fn or edge_block_fn")
    s = key_layout(n)[0]
    blk = _upper_strip(n, r0, r1, edge_block_fn, colmasks)
    # A flat scan plus per-row key offsets (~4x faster than a 2-D
    # nonzero): position ``lr * w + lc`` is key ``(r0 + lr) << s | r0 + lc``.
    keys = np.flatnonzero(blk)
    rows = np.arange(r0, r1, dtype=np.intp)
    keys += np.repeat((rows << s) - (rows - r0) * (n - r0) + r0,
                      np.count_nonzero(blk, axis=1))
    keys = keys.astype(key_dtype(s), copy=False)
    if edge_block_fn is None and len(keys):
        keys = keys[np.asarray(edge_mask_fn(*key_pairs(keys, n))).astype(bool, copy=False)]
    return keys


def sweep_strips(
    n: int,
    height: int,
    a: int = 0,
    b: int | None = None,
    edge_block_fn: EdgeBlockFn | None = None,
    colmasks: np.ndarray | None = None,
    edge_mask_fn=None,
) -> Iterator[np.ndarray]:
    """The all-pairs sweep: yield :func:`strip_keys` over rows ``[a,
    b)`` (default all), ``height`` rows at a time.  Keys come out
    ascending."""
    stop = n if b is None else b
    for r0 in range(a, stop, height):
        yield strip_keys(
            n, r0, min(r0 + height, stop), edge_block_fn, colmasks, edge_mask_fn
        )


def count_block_hits(n: int, block_fn: EdgeBlockFn, height: int) -> int:
    """Count nonzero upper-triangle pairs of a block predicate, strip
    by strip, without materializing any index arrays."""
    return sum(
        int(np.count_nonzero(_upper_strip(n, r0, min(r0 + height, n), block_fn)))
        for r0 in range(0, n, height)
    )


def concat_hits(chunks, n: int) -> np.ndarray:
    """One key array over ``n`` vertices from a stream of key chunks,
    in stream order (the result of one worker task)."""
    return np.concatenate([np.empty(0, key_layout(n)[1]), *chunks])
