"""Round-synchronous parallel *list* coloring (Algorithm 2's parallel analog).

The speculative/Jones–Plassmann scheme of the unconstrained baselines
(:mod:`repro.coloring.speculative`, :mod:`repro.coloring.jones_plassmann`)
lifted to the *list*-coloring problem on the packed ``(n, W)`` uint64
palette bitsets Algorithm 2 already uses:

- **Tentative pick** — every open vertex takes the lowest set bit of
  ``list & ~forbidden`` (its smallest candidate not yet claimed by a
  committed neighbor).  One vectorized pass, no cross-vertex ordering.
- **Conflict sweep** — edge-based, over the live conflict edges: each
  monochrome edge uncolors its lower-priority endpoint (random
  priorities drawn once up front), exactly the Kokkos-EB discipline.
  Survivors commit; losers retry next round against updated forbidden
  bitsets.
- **Vu rollover** — a vertex whose ``list & ~forbidden`` empties joins
  the uncolored set ``Vu`` and rolls into the next Picasso iteration,
  identical in semantics to the greedy engines (``colors == -1``
  exactly on ``Vu``).

Each round is a pure function of the previous round's committed state,
so the result is **deterministic per seed**.  Every round runs in the
calling process: a run on a pool or cluster executor shards only its
conflict-graph sweep, and its colors, ``Vu`` and round count equal the
serial run's.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.util.bits import bitset_from_lists, lowest_set_bit_rows
from repro.util.rng import as_generator

__all__ = ["parallel_list_color"]


def parallel_list_color(
    gc: CSRGraph,
    col_lists: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Round-synchronous speculative list coloring.

    Parameters
    ----------
    gc:
        Conflict graph (local vertex ids ``0..n-1``).
    col_lists:
        ``(n, L)`` candidate color ids; negative entries are padding.
    rng:
        Draws the conflict-resolution priorities (one permutation, up
        front — the only randomness, so output is deterministic per
        seed).

    Every round commits at least one vertex (the globally
    highest-priority tentative never loses), so the loop runs at most
    ``n + 1`` rounds; exceeding that raises ``RuntimeError``.

    Returns
    -------
    (colors, uncolored, info):
        As the greedy engines, plus ``info`` with ``n_rounds``,
        ``n_conflicts`` and the analytic ``peak_bytes``.
    """
    rng = as_generator(rng)
    n = gc.n_vertices
    col_lists = np.asarray(col_lists, dtype=np.int64)
    if col_lists.shape[0] != n:
        raise ValueError("col_lists rows must match vertex count")
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors, np.empty(0, dtype=np.int64), {
            "n_rounds": 0, "n_conflicts": 0, "peak_bytes": 0,
        }

    nbits = int(col_lists.max()) + 1 if col_lists.size else 1
    masks = bitset_from_lists(col_lists, max(nbits, 1))
    forbidden = np.zeros_like(masks)
    # Random priorities resolve same-round conflicts symmetrically —
    # drawn before anything else so the rng consumption is fixed.
    priority = rng.permutation(n)

    edges = gc.edges()
    eu = edges[:, 0].astype(np.int64)
    ev = edges[:, 1].astype(np.int64)
    # Analytic peak: palette + forbidden bitsets, the resident edge
    # list, priorities, colors/tentative, plus the CSR itself (the
    # edge-based sweep is the memory-hungry half of the trade, exactly
    # as for the Kokkos-EB baseline).
    peak_bytes = int(
        2 * masks.nbytes
        + eu.nbytes + ev.nbytes
        + priority.nbytes
        + 2 * colors.nbytes
        + gc.nbytes
        + n  # vu mask
    )

    vu_mask = np.zeros(n, dtype=bool)
    n_conflicts = 0
    rounds = 0
    for _ in range(n + 1):
        active = np.flatnonzero((colors < 0) & ~vu_mask)
        if active.size == 0:
            break
        rounds += 1
        picks = lowest_set_bit_rows(masks[active] & ~forbidden[active])

        # Vu rollover: lists fully claimed by committed neighbors.
        vu_mask[active[picks < 0]] = True

        tentative = np.full(n, -1, dtype=np.int64)
        tentative[active] = picks
        # Edge-based conflict sweep: monochrome edges lose their
        # lower-priority endpoint (cross-round conflicts cannot
        # happen — forbidden already excludes committed colors).
        if eu.size:
            bad = (tentative[eu] >= 0) & (tentative[eu] == tentative[ev])
            losers = np.where(
                priority[eu[bad]] < priority[ev[bad]], eu[bad], ev[bad]
            )
            n_conflicts += int(losers.size)
            tentative[losers] = -1
        committed = np.flatnonzero(tentative >= 0)
        colors[committed] = tentative[committed]

        if eu.size and committed.size:
            just = np.zeros(n, dtype=bool)
            just[committed] = True
            open_ = (colors < 0) & ~vu_mask
            # Commit fan-out: every open neighbor of a newly
            # committed vertex loses that color from its palette.
            for a, b in ((eu, ev), (ev, eu)):
                sel = just[a] & open_[b]
                if sel.any():
                    cols = colors[a[sel]]
                    bits = np.uint64(1) << (cols & 63).astype(np.uint64)
                    np.bitwise_or.at(forbidden, (b[sel], cols >> 6), bits)
            # Arcs with a resolved endpoint (committed or Vu) can
            # never conflict again — the live list only shrinks.
            live = open_[eu] & open_[ev]
            eu, ev = eu[live], ev[live]
    else:  # pragma: no cover - every round commits a vertex
        raise RuntimeError("parallel_list_color failed to converge")

    info = {
        "n_rounds": rounds,
        "n_conflicts": n_conflicts,
        "peak_bytes": peak_bytes,
    }
    return colors, np.flatnonzero(vu_mask), info
