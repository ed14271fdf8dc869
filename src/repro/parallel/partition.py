"""Tile-grid partitioning for parallel execution.

:func:`partition_tiles` splits the upper-triangular ``(row_block,
col_block)`` grid of the tile sweep (:mod:`repro.device.tiles`) into
balanced contiguous :class:`TileBlock` strips.  Tiles keep their
canonical row-major order inside each strip, so a parallel sweep that
concatenates strip results in strip order reproduces the serial sweep's
chunk stream exactly — the property that keeps parallel and serial
conflict-graph builds bit-identical.

Partitioning the pair domain — rather than the vertex range — gives
balanced work regardless of degree skew, the same decomposition the
paper's CUDA grid uses.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TileBlock",
    "tile_grid",
    "block_pair_count",
    "partition_tiles",
]

#: Per-part capacity weights: any 1-D integer sequence (one positive
#: entry per part), e.g. the executor's advertised worker capacities.
ShareSpec = Sequence[int] | np.ndarray


def _check_shares(shares: ShareSpec, n_parts: int) -> np.ndarray:
    arr = np.asarray(shares, dtype=np.int64)
    if arr.ndim != 1 or len(arr) != n_parts:
        raise ValueError("shares must have one entry per part")
    if np.any(arr <= 0):
        raise ValueError("shares must be positive")
    return arr


@dataclass(frozen=True)
class TileBlock:
    """Contiguous strip ``[start, stop)`` of upper-triangle tile indices
    in the canonical row-major order of
    :func:`repro.device.tiles.iter_tiles`, plus its pair weight."""

    start: int
    stop: int
    n_pairs: int

    def __len__(self) -> int:
        return self.stop - self.start


def tile_grid(n: int, tile: int) -> list[tuple[int, int, int, int]]:
    """The canonical upper-triangle tile list ``[(r0, r1, c0, c1), ...]``.

    Materialized from :func:`repro.device.tiles.iter_tiles` so every
    consumer — serial sweep, partitioner, pool workers — agrees on one
    tile order.
    """
    from repro.device.tiles import iter_tiles

    return list(iter_tiles(n, tile))


def block_pair_count(r0: int, r1: int, c0: int, c1: int) -> int:
    """Number of unordered pairs ``i < j`` inside one tile.

    Diagonal tiles of :func:`tile_grid` are square (``r0 == c0``,
    ``r1 == c1``) and contribute their strict upper triangle; every
    other tile sits fully above the diagonal and contributes the whole
    rectangle.
    """
    if r0 == c0:
        s = r1 - r0
        return s * (s - 1) // 2
    return (r1 - r0) * (c1 - c0)


def partition_tiles(
    n: int,
    tile: int,
    n_parts: int,
    shares: ShareSpec | None = None,
    keep_empty: bool = False,
) -> list[TileBlock]:
    """Split the tile grid into ``n_parts`` contiguous strips balanced
    by pair weight.

    Strip boundaries are placed where the prefix pair weight crosses
    the ideal targets ``total * k / n_parts``, so each strip's weight
    differs from the ideal share by less than one tile's weight (tiles
    are atomic — "balance within one tile").  Empty strips are dropped;
    a degenerate grid yields one empty block.

    With ``shares`` (one positive integer per part), targets become
    ``total * cumsum(shares) / sum(shares)`` so strip k's pair weight is
    proportional to ``shares[k]``, still within one tile of its quota.
    Uniform shares reproduce the unweighted targets exactly, so the
    weighted partitioner is a strict generalization.  ``keep_empty``
    keeps zero-tile strips in place (always exactly ``n_parts``
    entries) for the capacity-weighted positional deal.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    if shares is not None:
        _check_shares(shares, n_parts)
    grid = tile_grid(n, tile)
    weights = np.array(
        [block_pair_count(*b) for b in grid], dtype=np.int64
    )
    prefix = np.cumsum(weights)
    total = int(prefix[-1]) if len(prefix) else 0
    if total == 0:
        if keep_empty:
            return [TileBlock(0, 0, 0)] * n_parts
        return [TileBlock(0, 0, 0)]
    # Boundary after the first tile whose prefix weight reaches each
    # ideal target; monotone by construction of the targets.
    if shares is None:
        targets = (total * np.arange(1, n_parts, dtype=np.int64)) // n_parts
    else:
        csum = np.cumsum(_check_shares(shares, n_parts))
        targets = (total * csum[:-1]) // int(csum[-1])
    cuts = np.searchsorted(prefix, targets, side="left") + 1
    bounds = [0, *cuts.tolist(), len(grid)]
    out: list[TileBlock] = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            w = int(prefix[b - 1]) - (int(prefix[a - 1]) if a else 0)
            out.append(TileBlock(a, b, w))
        elif keep_empty:
            out.append(TileBlock(a, b, 0))
    return out or [TileBlock(0, 0, 0)]
