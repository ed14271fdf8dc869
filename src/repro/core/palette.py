"""Palette and candidate-list assignment (Algorithm 1, line 6).

Each active vertex receives ``L`` candidate colors drawn uniformly
without replacement from the iteration's palette ``{0, ..., P-1}``
(local ids; the driver offsets them into the global color space so
colors are never reused across iterations, §IV).

The one representation is a dense ``(n, L)`` int64 matrix of local
color ids, ``O(nL)`` memory (the Table IV term).  The palette index
builds its buckets from it, and only the sweeps that AND bitsets pack
it into ``(n, ceil(P/64))`` masks (:func:`repro.util.bits.bitset_from_lists`).
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import as_generator

#: Spare draws per row beyond ``L + 2L^2/P`` (the expected draws to
#: see ``L`` distinct colors, with margin): keeps redrawn rows rare.
SPARE_DRAWS = 8


def assign_color_lists(
    n: int,
    palette_size: int,
    list_size: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Draw per-vertex candidate color lists.

    Returns ``(n, L)`` int64 local color ids, each row an exact uniform
    *ordered* ``L``-subset of ``{0..P-1}``, so entry 0 (which an
    unconflicted vertex takes) is a uniform color.  ``O(nL)`` work and
    scratch for any ``P``.  ``L = P`` draws nothing: every row is
    ``0..P-1``.  ``2L > P`` argsorts ``P < 2L`` uniform keys per row.
    Otherwise each row draws ``L + 8 + 2L^2/P`` colors and keeps the
    first ``L`` distinct ones in draw order, redrawing the rare row
    with fewer; by the symmetry of the color labels the kept sequence
    is uniform over ordered ``L``-subsets, also given it was kept.
    """
    if palette_size < 1:
        raise ValueError("palette_size must be >= 1")
    if not 1 <= list_size <= palette_size:
        raise ValueError("list_size must be in [1, palette_size]")
    rng = as_generator(rng)

    if list_size == palette_size:
        # Degenerate but common in aggressive mode: the whole palette.
        return np.tile(np.arange(palette_size, dtype=np.int64), (n, 1))
    if 2 * list_size > palette_size:
        keys = rng.random((n, palette_size))
        return np.argsort(keys, axis=1)[:, :list_size].astype(np.int64)

    col_lists = np.empty((n, list_size), dtype=np.int64)
    n_draws = list_size + SPARE_DRAWS + 2 * list_size * list_size // palette_size
    todo = np.arange(n)
    while len(todo):
        draws = rng.integers(0, palette_size, size=(len(todo), n_draws))
        # A draw is fresh when no earlier draw of its row has its color:
        # the first of each run of a stable per-row sort.
        order = np.argsort(draws, axis=1, kind="stable")
        by_color = np.take_along_axis(draws, order, axis=1)
        repeat = np.zeros(draws.shape, dtype=bool)
        np.equal(by_color[:, 1:], by_color[:, :-1], out=repeat[:, 1:])
        fresh = np.empty(draws.shape, dtype=bool)
        np.put_along_axis(fresh, order, ~repeat, axis=1)
        rank = np.cumsum(fresh, axis=1, dtype=np.int32)
        full = rank[:, -1] >= list_size
        fresh &= (rank <= list_size) & full[:, None]
        col_lists[todo[full]] = draws[fresh].reshape(-1, list_size)
        todo = todo[~full]
    return col_lists


def lists_nbytes(col_lists: np.ndarray) -> int:
    """Bytes of the candidate lists (the Table IV palette term)."""
    return int(col_lists.nbytes)
