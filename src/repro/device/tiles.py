"""Block-tiled pair-sweep kernels (§V, reimagined as cache tiles).

The paper's §V kernel runs one SIMT thread per unordered pair.  A
literal NumPy port would take flat pair-index chunks, invert ``k -> (i,
j)`` and *gather* the packed operand rows (``packed[i]``, ``packed[j]``)
for every pair — duplicating each of the ``n`` rows ~``n`` times across
a sweep.  This module is the CUDA-style *tiled* formulation of the same
sweep: the upper triangle of pair space is walked in ``(row_block,
col_block)`` tiles, each tile loads its two row slices once (the
"shared memory" staging of a GPU kernel) and computes the pair results
as a word-broadcast ``a[:, None, :] op b[None, :, :]`` — no flat-index
inversion and no quadratic row gather on the hot path.

Design notes (the tiling model):

- **Tile size heuristic.**  A tile of edge ``T`` needs scratch for a
  handful of ``(T, T)`` temporaries: the uint64 word-AND, the boolean
  compare buffer and the boolean hit mask — about
  :data:`SCRATCH_BYTES_PER_PAIR` bytes per pair *independent of the
  word count* because the kernels loop over word columns and reuse the
  same temporary.  :func:`tile_edge` inverts that:
  ``T = sqrt(budget / SCRATCH_BYTES_PER_PAIR)``, snapped down to a
  multiple of 64 (warp-width friendly, keeps word loads aligned) and
  clamped to ``[MIN_TILE, MAX_TILE]``.  The default 768 KiB budget
  lands at ``T = 256``, sized to keep the tile's word-AND temporary
  resident in a per-core L2 the way a CUDA kernel sizes its
  shared-memory staging — the temporary is written and re-read once
  per word column, so its residency dominates the sweep bandwidth.
- **Memory model per tile.**  Input traffic is ``2 * T * W * 8`` bytes
  (two row slices, contiguous), scratch is ``SCRATCH_BYTES_PER_PAIR *
  T^2``, and output is proportional to the tile's *hits* only — the
  same output-proportional shape as Algorithm 3's COO stream.
- **Device-budget interaction.**  On the :class:`~repro.device.sim.DeviceSim`
  path the tile scratch is a named allocation against the device
  budget, one per worker, reserved *before* the COO buffer grabs the
  remainder (:mod:`repro.device.csr_build`, :mod:`repro.device.multi`).
  A budget that cannot hold even a minimum tile per worker raises
  :class:`~repro.device.sim.DeviceOutOfMemory`: every buffer the
  kernel touches is charged.
- **Fused conflict kernel.**  :func:`conflict_hits_block` evaluates the
  cheap palette intersection first (the paper's list-intersect early
  exit) through the sweep's kernel backend
  (:meth:`~repro.device.backends.KernelBackend.lists_intersect_block`;
  :func:`lists_intersect_block` here is the numpy kernel): only
  surviving pairs consult the edge oracle, either as a sparse gathered
  query (few survivors) or as a block oracle call when the tile is
  dense enough that the broadcast beats the gather.  It returns ``(i,
  j)``; the sweeps encode each tile's hits as CSR keys
  (:func:`repro.graphs.csr.key_layout`), like every other sweep.
- **All-pairs sweep.**  :func:`sweep_block_hits` calls the block oracle
  on row strips ``[r0, r1) x [r0, n)`` sized by the same per-pair
  scratch model (:func:`strip_height`) and masks only each strip's
  leading square, so its CSR keys come out ascending.  It serves the
  explicit graph builders and the ``L = P`` conflict sweep.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.csr import key_dtype, key_layout, pair_keys
from repro.util.bits import anybit_block

if TYPE_CHECKING:
    from repro.device.backends.base import KernelBackend

__all__ = [
    "DEFAULT_TILE_BYTES",
    "SCRATCH_BYTES_PER_PAIR",
    "MIN_TILE",
    "MAX_TILE",
    "DENSE_EDGE_FRACTION",
    "tile_edge",
    "tile_scratch_bytes",
    "iter_tiles",
    "upper_triangle_mask",
    "TileScratch",
    "lists_intersect_block",
    "conflict_hits_block",
    "conflict_hits_strip",
    "block_hits",
    "concat_hits",
    "strip_height",
    "sweep_conflict_hits",
    "sweep_block_hits",
    "count_block_hits",
]

#: Default scratch budget for one tile, in bytes.  768 KiB puts the
#: default tile edge at 256, whose uint64 word-AND temporary (512 KiB)
#: stays resident in a per-core L2 — measured ~1.6x faster than
#: L3-sized tiles on a 10k-vertex sweep, because the temporary makes a
#: full write+read round trip per word column.
DEFAULT_TILE_BYTES = 768 * 1024

#: Scratch bytes per pair inside a tile: the uint64 word-AND temporary
#: (8), the boolean compare buffer (1) and the boolean hit accumulator
#: (1) — exactly what :class:`TileScratch` allocates.  The word loop
#: reuses the same temporaries, so this does not scale with the packed
#: word count.
SCRATCH_BYTES_PER_PAIR = 10

#: Tile edges are multiples of this (and never smaller).
MIN_TILE = 64

#: Upper clamp on the tile edge — beyond this the broadcast temporaries
#: stop fitting in last-level cache and the win evaporates.
MAX_TILE = 8192

#: When at least this fraction of a tile survives the palette
#: intersection, the fused kernel evaluates the edge oracle as a block
#: broadcast instead of gathering the survivors pairwise.
DENSE_EDGE_FRACTION = 0.1

_EMPTY = np.empty(0, dtype=np.int64)

#: Block edge oracle: (r0, r1, c0, c1) -> uint8/bool (r1-r0, c1-c0)
#: matrix over global vertex ids (only entries with i != j are used).
#: The all-pairs sweeps mask the block in place, so it must be fresh or
#: a scratch buffer that the next call overwrites anyway.
EdgeBlockFn = Callable[[int, int, int, int], np.ndarray]


def tile_edge(tile_bytes: int = DEFAULT_TILE_BYTES, n: int | None = None) -> int:
    """Tile edge ``T`` whose scratch fits ``tile_bytes``.

    The packed word count does not enter the formula — see the module
    notes on the per-pair scratch model.  ``n`` caps the tile at the
    problem size so tiny problems do not round up to a 64-wide tile of
    mostly out-of-range rows.

    The tile edge never drops below :data:`MIN_TILE` (sub-64 tiles are
    all Python overhead), so budgets under
    ``tile_scratch_bytes(MIN_TILE)`` (~41 KB) are exceeded rather than
    honored — the budget is a sizing hint, not a hard cap.  The device
    path enforces its real cap separately: it charges the resulting
    scratch against the device budget, which raises when it does not
    fit.

    The budget solve is memoized per ``tile_bytes`` (the device build
    probes it repeatedly while fitting the tile scratch next to the COO
    buffer); the ``n`` cap is applied outside the cache.
    """
    t = _tile_edge_base(int(tile_bytes))
    if n is not None:
        t = min(t, max(int(n), 1))
    return t


@lru_cache(maxsize=64)
def _tile_edge_base(tile_bytes: int) -> int:
    """The budget solve of :func:`tile_edge`, before the ``n`` cap."""
    t = int(math.isqrt(max(tile_bytes, 1) // SCRATCH_BYTES_PER_PAIR))
    return max(MIN_TILE, min(t - t % MIN_TILE, MAX_TILE))


def strip_height(n: int, tile_bytes: int = DEFAULT_TILE_BYTES) -> int:
    """Rows per ``[r0, r1) x [r0, n)`` strip of the all-pairs sweep
    whose scratch fits ``tile_bytes`` (at least one row)."""
    return max(1, tile_bytes // (SCRATCH_BYTES_PER_PAIR * max(n, 1)))


def tile_scratch_bytes(tile: int) -> int:
    """Worst-case scratch bytes for one ``tile x tile`` block."""
    return SCRATCH_BYTES_PER_PAIR * tile * tile


def iter_tiles(n: int, tile: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield ``(r0, r1, c0, c1)`` blocks covering the upper triangle.

    Blocks are axis-aligned on a ``tile``-spaced grid; only blocks with
    ``c0 >= r0`` are emitted, so every unordered pair ``i < j`` lands in
    exactly one block (diagonal blocks still contain ``i >= j`` entries
    — mask those with :func:`upper_triangle_mask`).
    """
    if tile <= 0:
        raise ValueError("tile must be positive")
    for r0 in range(0, n, tile):
        r1 = min(r0 + tile, n)
        for c0 in range(r0, n, tile):
            yield r0, r1, c0, min(c0 + tile, n)


def upper_triangle_mask(r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Boolean block mask: True where the global pair has ``i < j``.

    Global ``r0 + li < c0 + lj`` depends only on the block shape and
    the diagonal offset ``c0 - r0``, so every diagonal tile of every
    sweep shares one cached (read-only) mask instead of recomputing the
    broadcast compare per tile.
    """
    return _triangle_mask(r1 - r0, c1 - c0, c0 - r0)


@lru_cache(maxsize=64)
def _triangle_mask(rows: int, cols: int, shift: int) -> np.ndarray:
    mask = (
        np.arange(rows, dtype=np.int64)[:, None]
        < np.arange(cols, dtype=np.int64)[None, :] + shift
    )
    # Callers only read it (the kernels use it as the RHS of ``&=``);
    # freezing the buffer keeps the cache sharable.
    mask.setflags(write=False)
    return mask


class TileScratch:
    """Preallocated per-sweep tile buffers (the "shared memory" of the
    engine): one uint64 word-AND temporary, one boolean compare buffer,
    and one boolean hit accumulator, each ``tile x tile``.  Edge tiles
    use leading views.  Allocating these once per sweep keeps the hot
    loop off the allocator — the buffers are exactly what
    :func:`tile_scratch_bytes` charges against a device budget."""

    def __init__(self, tile: int) -> None:
        self.tile = tile
        self.tmp = np.empty((tile, tile), dtype=np.uint64)
        self.tmp_bool = np.empty((tile, tile), dtype=bool)
        self.hit = np.empty((tile, tile), dtype=bool)

    def views(self, rows: int, cols: int):
        return (
            self.tmp[:rows, :cols],
            self.tmp_bool[:rows, :cols],
            self.hit[:rows, :cols],
        )


def lists_intersect_block(
    colmasks: np.ndarray,
    r0: int,
    r1: int,
    c0: int,
    c1: int,
    scratch: TileScratch | None = None,
) -> np.ndarray:
    """Tiled palette-intersection kernel: boolean block, True where the
    candidate-color bitsets of the row and column vertex intersect."""
    if scratch is None:
        return anybit_block(colmasks[r0:r1], colmasks[c0:c1])
    tmp, tmp_bool, hit = scratch.views(r1 - r0, c1 - c0)
    return anybit_block(colmasks[r0:r1], colmasks[c0:c1], tmp, tmp_bool, hit)


def conflict_hits_block(
    colmasks: np.ndarray,
    r0: int,
    r1: int,
    c0: int,
    c1: int,
    edge_mask_fn=None,
    edge_block_fn: EdgeBlockFn | None = None,
    scratch: TileScratch | None = None,
    *,
    backend: KernelBackend,
) -> tuple[np.ndarray, np.ndarray]:
    """The fused §V conflict kernel for one tile, emitting ``(i, j)``.

    A pair is a conflict edge iff it is an edge of the graph being
    colored AND the endpoints share a candidate color.  The cheap
    palette intersection runs first over the whole tile; the edge
    oracle is consulted only for survivors — gathered pairwise through
    ``edge_mask_fn`` when survivors are sparse, or as one
    ``edge_block_fn`` broadcast when at least
    :data:`DENSE_EDGE_FRACTION` of the tile survived (the broadcast
    reads each operand row once, beating the gather as density grows).

    ``backend`` (a :class:`~repro.device.backends.KernelBackend`)
    supplies the palette-intersection kernel; the survivor bookkeeping,
    diagonal masking and oracle policy stay here, so every backend
    shares one driver.

    Hits are returned as global index arrays in row-major tile order
    (``i`` ascending, ``j`` ascending within a row).
    """
    if edge_mask_fn is None and edge_block_fn is None:
        raise ValueError("need edge_mask_fn or edge_block_fn")
    hit = backend.lists_intersect_block(colmasks, r0, r1, c0, c1, scratch)
    if r0 == c0:
        hit &= upper_triangle_mask(r0, r1, c0, c1)
    li, lj = np.nonzero(hit)
    if len(li) == 0:
        return _EMPTY, _EMPTY
    gi = li + r0
    gj = lj + c0
    if edge_block_fn is not None and (
        edge_mask_fn is None or len(li) >= DENSE_EDGE_FRACTION * hit.size
    ):
        keep = np.asarray(edge_block_fn(r0, r1, c0, c1))[li, lj].astype(
            bool, copy=False
        )
    else:
        keep = np.asarray(edge_mask_fn(gi, gj)).astype(bool, copy=False)
    return gi[keep], gj[keep]


def conflict_hits_strip(
    colmasks: np.ndarray,
    tiles,
    edge_mask_fn=None,
    edge_block_fn: EdgeBlockFn | None = None,
    scratch: TileScratch | None = None,
    *,
    backend: KernelBackend,
) -> np.ndarray:
    """Run the fused conflict kernel over a strip of tiles.

    ``tiles`` is an iterable of ``(r0, r1, c0, c1)`` blocks in canonical
    row-major order; each tile's hits are encoded as CSR keys as they
    are produced and concatenated in tile order, so a partitioned sweep
    that gathers strip results in strip order reproduces the serial
    sweep's global hit stream exactly.  This is
    the unit of work an execution backend ships to a worker process —
    one task, one key array.
    """
    n = len(colmasks)
    return concat_hits(
        (
            pair_keys(*conflict_hits_block(
                colmasks, r0, r1, c0, c1, edge_mask_fn, edge_block_fn,
                scratch, backend=backend,
            ), n)
            for r0, r1, c0, c1 in tiles
        ),
        n,
    )


def concat_hits(chunks, n: int) -> np.ndarray:
    """One key array over ``n`` vertices from a stream of key chunks,
    in stream order (the result of one worker task)."""
    return np.concatenate([np.empty(0, key_layout(n)[1]), *chunks])


def block_hits(
    block_fn: EdgeBlockFn, r0: int, r1: int, c0: int, c1: int, s: int
) -> np.ndarray:
    """Upper-triangle hits of ``block_fn`` on one block, as CSR keys
    ``i << s | j`` (:func:`repro.graphs.csr.key_layout`) in row-major,
    hence ascending, order.  A block with ``r0 == c0`` starts on the
    diagonal: only its leading square can hold pairs with ``i >= j``,
    so only that square is masked."""
    blk = _upper_block(block_fn, r0, r1, c0, c1)
    # A flat scan plus per-row key offsets (~4x faster than a 2-D
    # nonzero): position ``lr * w + lc`` is key ``(r0 + lr) << s | c0 + lc``.
    keys = np.flatnonzero(blk)
    rows = np.arange(r0, r1, dtype=np.intp)
    offsets = (rows << s) - (rows - r0) * (c1 - c0) + c0
    keys += np.repeat(offsets, np.count_nonzero(blk, axis=1))
    return keys.astype(key_dtype(s), copy=False)


def _upper_block(block_fn, r0, r1, c0, c1) -> np.ndarray:
    blk = np.asarray(block_fn(r0, r1, c0, c1)).astype(bool, copy=False)
    if r0 == c0:
        h = min(r1 - r0, c1 - c0)
        blk[:, :h] &= _triangle_mask(r1 - r0, h, 0)
    return blk


def sweep_block_hits(
    n: int,
    block_fn: EdgeBlockFn,
    height: int,
    a: int = 0,
    b: int | None = None,
) -> Iterator[np.ndarray]:
    """The all-pairs sweep: yield the upper-triangle hits of
    ``block_fn`` over rows ``[a, b)`` (default all) as CSR keys, one
    row strip ``[r0, r1) x [r0, n)`` of ``height`` rows at a time.

    Keys come out ascending.  Serves the explicit graph builders
    and the ``rows`` conflict plan (``L = P``, where every edge is a
    conflict edge).
    """
    s, _ = key_layout(n)
    stop = n if b is None else b
    for r0 in range(a, stop, height):
        yield block_hits(block_fn, r0, min(r0 + height, stop), r0, n, s)


def sweep_conflict_hits(
    n: int,
    colmasks: np.ndarray,
    edge_mask_fn=None,
    edge_block_fn: EdgeBlockFn | None = None,
    tile: int | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    *,
    backend: KernelBackend,
) -> Iterator[np.ndarray]:
    """Run the fused conflict kernel over all upper-triangle tiles,
    yielding one CSR key array per tile (possibly empty)."""
    if tile is None:
        tile = tile_edge(tile_bytes, n=n)
    scratch = TileScratch(tile)
    for r0, r1, c0, c1 in iter_tiles(n, tile):
        yield pair_keys(*conflict_hits_block(
            colmasks, r0, r1, c0, c1, edge_mask_fn, edge_block_fn,
            scratch, backend=backend,
        ), n)


def count_block_hits(n: int, block_fn: EdgeBlockFn, height: int) -> int:
    """Count nonzero upper-triangle pairs of a block predicate, strip
    by strip, without materializing any index arrays."""
    return sum(
        int(np.count_nonzero(_upper_block(block_fn, r0, min(r0 + height, n), r0, n)))
        for r0 in range(0, n, height)
    )
