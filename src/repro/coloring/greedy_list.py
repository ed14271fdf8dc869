"""Greedy list coloring of the conflict graph (paper §IV-B, Algorithm 2).

Given the conflict graph ``Gc`` and each vertex's candidate color list,
assign every vertex a color *from its own list* such that no conflict
edge is monochrome.  Vertices whose list empties out stay uncolored and
roll over to the next Picasso iteration (the set ``Vu``).

Home of the serial Algorithm 2 machinery; :mod:`repro.coloring.engine`
wraps these functions behind the
:class:`~repro.coloring.engine.ListColoringEngine` registry.

Three schemes:

- :func:`greedy_list_color_dynamic` — Algorithm 2 on packed palette
  *bitsets*: always color a vertex with the currently smallest list
  ("most constrained first").  Candidate lists live in a word-major
  ``(W, n)`` uint64 bitset matrix, so the neighbor test for a color is
  one gather from a contiguous row over the int32 adjacency slice
  (read in place, never widened).  The priority is one int64 key per
  vertex, ``size * n + rank``, in ``sqrt(n)``-sized blocks with a
  minimum per block: a pick is two ``argmin`` calls, and a colored
  vertex updates its affected neighbors' keys and block minima in one
  vectorized pass, with no per-neighbor Python code.  The neighbours
  of ``v`` still holding ``c`` come from one query: a CSR slice, or
  :class:`~repro.device.palette_index.BucketQuery` (no graph built).
- :func:`greedy_list_color_dynamic_sets` — the same rule in naive form
  (per-vertex Python ``set`` state, ``min`` over the live vertices),
  kept as the seeded-equivalence reference (the ``sets`` color
  engine).  Both dynamic variants produce identical colorings for a
  given seed (property-tested).
- :func:`greedy_list_color_static` — process vertices in a fixed order
  (natural / random / largest-degree-first), taking the first list
  color not used by an already-colored neighbor.  The paper reports
  dynamic ordering colors better; the static variants are kept for the
  ablation.

Random choices are canonical in both dynamic variants, drawn once per
call and indexed by vertex: ``rank = rng.permutation(n)`` and
``u = rng.random(n)``.  The next vertex is the unprocessed one with the
fewest surviving candidates, ties to the lowest ``rank``; it takes
surviving candidate ``floor(u[v] * k)`` of its ``k`` *in ascending
color order* — the natural order of a bitset scan.  A vertex whose list
empties has size 0, so it is picked next and joins ``Vu`` without a
draw, and its place in the order cannot shift any later choice.
Negative list entries are padding in every scheme.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.graphs.csr import CSRGraph
from repro.util.bits import bitset_from_lists, popcount_rows
from repro.util.rng import as_generator


def greedy_list_color_dynamic(
    gc: CSRGraph,
    col_lists: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2: most-constrained-first greedy list coloring on bitsets.

    Parameters
    ----------
    gc:
        Conflict graph (local vertex ids ``0..n-1``), or a neighbour
        query (:class:`repro.device.palette_index.BucketQuery`).
    col_lists:
        ``(n, L)`` matrix of local candidate color ids.  Negative
        entries are treated as padding and ignored.
    rng:
        Draws the tie-break ranks and the per-vertex color draws, once
        per call.

    Returns
    -------
    (colors, uncolored):
        ``colors`` holds a local palette id per vertex (-1 where the
        list emptied); ``uncolored`` is the sorted array ``Vu``.
    """
    rng = as_generator(rng)
    n = gc.n_vertices
    col_lists = np.asarray(col_lists, dtype=np.int64)
    if col_lists.shape[0] != n:
        raise ValueError("col_lists rows must match vertex count")
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rank = rng.permutation(n)
    draws = rng.random(n)

    # Packed candidate bitsets over the local palette, word-major: row
    # w holds word w of every vertex, so the neighbor test for color c
    # gathers from one contiguous row.  Duplicates in a list collapse,
    # exactly like the set() reference.  A vertex leaves the graph
    # (colored, or its list emptied) with an all-zero column, so the
    # bit test alone excludes it.
    nbits = int(col_lists.max()) + 1 if col_lists.size else 1
    masks = np.ascontiguousarray(bitset_from_lists(col_lists, max(nbits, 1)).T)

    # One priority key per vertex, size * n + rank, in a padded
    # (n_blocks, B) array with a minimum per block (B = 2^shift, the
    # power of two >= sqrt(n), at least 64): a pick is two argmins of
    # about sqrt(n) keys.  Losing a candidate lowers a key by n, so an
    # emptied list (size 0) is picked next.  A processed vertex's key is
    # `done`, above every live key.
    shift = max(6, ((n - 1).bit_length() + 1) // 2)
    n_blocks = ((n - 1) >> shift) + 1
    done = np.iinfo(np.int64).max
    key = np.full(n_blocks << shift, done, dtype=np.int64)
    key[:n] = popcount_rows(masks.T)
    key[:n] *= n
    key[:n] += rank
    del rank
    blocks = key.reshape(n_blocks, 1 << shift)
    block_min = blocks.min(axis=1)
    colors = np.full(n, -1, dtype=np.int64)

    csr = isinstance(gc, CSRGraph)
    offsets, targets = (gc.offsets, gc.targets) if csr else (None, None)
    key_updates = 0
    for _ in range(n):
        b = int(block_min.argmin())
        block = blocks[b]
        j = int(block.argmin())
        k = int(block[j]) // n
        block[j] = done
        block_min[b] = block[block.argmin()]
        if k == 0:
            continue  # list emptied: v joins Vu
        v = (b << shift) + j

        # Candidate floor(draw * k) of the survivors in ascending
        # color order: the r-th set bit.
        r = int(draws[v] * k)
        for w, word in enumerate(masks[:, v].tolist()):
            if r < (count := word.bit_count()):
                break
            r -= count
        for _ in range(r):
            word &= word - 1
        c = 64 * w + (word & -word).bit_length() - 1
        colors[v] = c
        masks[:, v] = 0

        # One vectorized pass: neighbors still holding c lose that bit,
        # and their keys and block minima drop by one list size.
        row = masks[c >> 6]
        bit = np.uint64(1 << (c & 63))
        if csr:
            nbrs = targets[offsets[v] : offsets[v + 1]]
            held = row.take(nbrs)
            held &= bit
            affected = nbrs[held.astype(bool)]
        else:
            affected = gc.holders(v, c, row, bit)
        if len(affected) == 0:
            continue
        affected = affected.astype(np.intp)
        row[affected] ^= bit
        lowered = key[affected] - n
        key[affected] = lowered
        np.minimum.at(block_min, affected >> shift, lowered)
        key_updates += len(affected)
    telemetry.count("coloring.key_updates", float(key_updates))
    return colors, np.flatnonzero(colors < 0)


def greedy_list_color_dynamic_sets(
    gc: CSRGraph,
    col_lists: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2 on Python sets — the seeded-equivalence reference.

    The canonical rule in its naive form: per-vertex candidate sets
    (negative ids are padding), and each step takes the live vertex
    with the fewest candidates, ties to the lowest rank.
    :func:`greedy_list_color_dynamic` reproduces its output exactly for
    any seed.
    """
    rng = as_generator(rng)
    n = gc.n_vertices
    if col_lists.shape[0] != n:
        raise ValueError("col_lists rows must match vertex count")
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors, np.empty(0, dtype=np.int64)
    rank = rng.permutation(n).tolist()
    draws = rng.random(n).tolist()

    live = [{c for c in row if c >= 0} for row in col_lists.tolist()]
    unprocessed = set(range(n))
    uncolored: list[int] = []
    while unprocessed:
        v = min(unprocessed, key=lambda u: (len(live[u]), rank[u]))
        unprocessed.remove(v)
        cand = sorted(live[v])
        if not cand:
            uncolored.append(v)
            continue
        c = cand[int(draws[v] * len(cand))]
        colors[v] = c
        for u in gc.neighbors(v).tolist():
            if u in unprocessed:
                live[u].discard(c)
    return colors, np.array(sorted(uncolored), dtype=np.int64)


def greedy_list_color_static(
    gc: CSRGraph,
    col_lists: np.ndarray,
    order: str = "natural",
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Static-order list coloring (§IV-B "static order schemes").

    Vertices are visited in a fixed order (``natural``, ``random`` or
    ``lf`` = conflict-graph degree descending); each takes the first
    color of its list unused by already-colored neighbors.
    """
    rng = as_generator(rng)
    n = gc.n_vertices
    if col_lists.shape[0] != n:
        raise ValueError("col_lists rows must match vertex count")
    if order == "natural":
        perm = np.arange(n, dtype=np.int64)
    elif order == "random":
        perm = rng.permutation(n).astype(np.int64)
    elif order == "lf":
        perm = np.argsort(-gc.degree(), kind="stable").astype(np.int64)
    else:
        raise ValueError(f"unknown static order {order!r}")

    colors = np.full(n, -1, dtype=np.int64)
    uncolored: list[int] = []
    for v in perm:
        taken = set(
            int(c) for c in colors[gc.neighbors(v)] if c >= 0
        )
        chosen = -1
        for c in col_lists[v].tolist():
            if c >= 0 and c not in taken:
                chosen = c
                break
        if chosen < 0:
            uncolored.append(int(v))
        else:
            colors[v] = chosen
    return colors, np.array(sorted(uncolored), dtype=np.int64)
