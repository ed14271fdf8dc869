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
  (read in place, never widened).  The smallest-list priority
  structure is bucket queues (value = list size) held in Python lists,
  with O(1) swap-removal by ``pop`` plus a slot write: the per-neighbor
  bookkeeping runs on Python ints, not numpy scalars, and no Python
  ``set`` objects are built.
- :func:`greedy_list_color_dynamic_sets` — the original Python-``set``
  implementation, kept as the seeded-equivalence reference and as the
  legacy half of the tiled-vs-gather ablation.  Both dynamic variants
  draw the same random numbers and make identical choices, so they
  produce identical colorings for a given seed (property-tested).
- :func:`greedy_list_color_static` — process vertices in a fixed order
  (natural / random / largest-degree-first), taking the first list
  color not used by an already-colored neighbor.  The paper reports
  dynamic ordering colors better; the static variants are kept for the
  ablation.

Random choices are canonical in both dynamic variants: the vertex is
drawn uniformly from the lowest bucket (by position), and the color is
drawn uniformly from the vertex's surviving candidates *in ascending
color order* — the natural order of a bitset scan.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.util.bits import bitset_from_lists, popcount_rows
from repro.util.rng import as_generator


def greedy_list_color_dynamic(
    gc: CSRGraph,
    col_lists: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2: bucket-based dynamic greedy list coloring on bitsets.

    Parameters
    ----------
    gc:
        Conflict graph (local vertex ids ``0..n-1``).
    col_lists:
        ``(n, L)`` matrix of local candidate color ids.  Negative
        entries are treated as padding and ignored.
    rng:
        Drives the uniform choices of Algorithm 2 (vertex from lowest
        bucket, color from list).

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

    # Packed candidate bitsets over the local palette, word-major: row
    # w holds word w of every vertex, so the neighbor test for color c
    # gathers from one contiguous row.  Duplicates in a list collapse,
    # exactly like the set() reference.  A vertex leaves the graph
    # (colored, or its list emptied) with an all-zero column, so the
    # bit test alone excludes it — no separate processed[] gather.
    nbits = int(col_lists.max()) + 1 if col_lists.size else 1
    masks = np.ascontiguousarray(bitset_from_lists(col_lists, max(nbits, 1)).T)
    size_arr = popcount_rows(masks.T)
    max_size = int(size_arr.max())

    # Bucket queues as Python lists: bucket s holds the unprocessed
    # vertices whose list currently has s candidates, and pos[v] is v's
    # slot in its bucket, so removal is an O(1) swap with the last
    # element (the paper's auxiliary-array trick).  All per-neighbor
    # bookkeeping runs on Python ints; numpy scalar reads and writes
    # cost several times more.  Initial population order is
    # vertex-ascending, matching the reference.
    order = np.argsort(size_arr, kind="stable")
    starts = np.zeros(max_size + 2, dtype=np.int64)
    np.cumsum(np.bincount(size_arr, minlength=max_size + 1), out=starts[1:])
    pos_arr = np.empty(n, dtype=np.int64)
    pos_arr[order] = np.arange(n) - starts[size_arr[order]]
    buckets = [
        order[starts[s] : starts[s + 1]].tolist() for s in range(max_size + 1)
    ]
    pos = pos_arr.tolist()
    sizes = size_arr.tolist()
    del order, starts, pos_arr, size_arr
    colors = [-1] * n

    # Degenerate all-padding rows have no candidates at all: they join
    # Vu immediately (the reference predates padding and never sees
    # such rows on the Picasso path).
    uncolored = buckets[0]
    buckets[0] = []
    n_processed = len(uncolored)

    offsets = gc.offsets.tolist()
    targets = gc.targets
    lowest = 0
    while n_processed < n:
        # Lowest non-empty bucket: sizes only decrease for unprocessed
        # vertices, so scanning upward after resets stays O(L) per step.
        while not buckets[lowest]:
            lowest += 1
        buf = buckets[lowest]
        cnt = len(buf)
        idx = int(rng.integers(cnt)) if cnt > 1 else 0
        v = buf[idx]
        last = buf.pop()
        if last != v:
            buf[idx] = last
            pos[last] = idx
        n_processed += 1

        # Uniform color from the surviving candidates: the r-th set bit.
        k = sizes[v]
        r = int(rng.integers(k)) if k > 1 else 0
        for w, word in enumerate(masks[:, v].tolist()):
            if r < (count := word.bit_count()):
                break
            r -= count
        for _ in range(r):
            word &= word - 1
        c = 64 * w + (word & -word).bit_length() - 1
        colors[v] = c
        masks[:, v] = 0

        nbrs = targets[offsets[v] : offsets[v + 1]]
        if len(nbrs) == 0:
            continue
        # One vectorized pass: neighbors still holding c lose that bit
        # and drop one bucket.
        row = masks[c >> 6]
        bit = np.uint64(1) << np.uint64(c & 63)
        affected = nbrs[(row[nbrs] & bit) != 0]
        if len(affected) == 0:
            continue
        row[affected] &= ~bit
        for u in affected.tolist():
            s_old = sizes[u]
            sizes[u] = s_new = s_old - 1
            b = buckets[s_old]
            last = b.pop()
            if last != u:
                p = pos[u]
                b[p] = last
                pos[last] = p
            if s_new == 0:
                # List emptied: u joins Vu and is done for this iteration.
                n_processed += 1
                uncolored.append(u)
                continue
            b = buckets[s_new]
            pos[u] = len(b)
            b.append(u)
            if s_new < lowest:
                lowest = s_new
    return (
        np.array(colors, dtype=np.int64),
        np.array(sorted(uncolored), dtype=np.int64),
    )


def greedy_list_color_dynamic_sets(
    gc: CSRGraph,
    col_lists: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2 on Python sets — the seeded-equivalence reference.

    Structurally the original implementation (per-vertex ``set`` state,
    list-of-lists buckets); random draws are canonicalized to ascending
    candidate order so :func:`greedy_list_color_dynamic` reproduces its
    output exactly for any seed.  Used by tests and as the legacy half
    of the tiled-vs-gather ablation (``engine="pairs"``).
    """
    rng = as_generator(rng)
    n = gc.n_vertices
    if col_lists.shape[0] != n:
        raise ValueError("col_lists rows must match vertex count")
    list_size = col_lists.shape[1]
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors, np.empty(0, dtype=np.int64)

    # Mutable per-vertex list state: live[v] = remaining candidates
    # (Python sets give O(1) removal; lists are O(L) small).
    live: list[set[int]] = [set(row) for row in col_lists.tolist()]
    sizes = np.array([len(s) for s in live], dtype=np.int64)

    # Bucket array B[s] = vertices whose current list size is s, with a
    # position index for O(1) swap-removal (paper's auxiliary array).
    buckets: list[list[int]] = [[] for _ in range(list_size + 1)]
    pos = np.empty(n, dtype=np.int64)
    for v in range(n):
        pos[v] = len(buckets[sizes[v]])
        buckets[sizes[v]].append(v)

    def bucket_remove(v: int) -> None:
        b = buckets[sizes[v]]
        p = pos[v]
        last = b[-1]
        b[p] = last
        pos[last] = p
        b.pop()

    def bucket_insert(v: int) -> None:
        b = buckets[sizes[v]]
        pos[v] = len(b)
        b.append(v)

    processed = np.zeros(n, dtype=bool)
    uncolored: list[int] = []
    n_processed = 0
    lowest = 0
    while n_processed < n:
        # Find the lowest non-empty bucket.  Sizes only decrease for
        # unprocessed vertices, so scanning upward from `lowest` after a
        # reset to the smallest possible decrease keeps this O(L) per
        # step as the paper argues.
        while lowest <= list_size and not buckets[lowest]:
            lowest += 1
        blist = buckets[lowest]
        v = blist[int(rng.integers(len(blist)))] if len(blist) > 1 else blist[0]

        bucket_remove(v)
        processed[v] = True
        n_processed += 1
        cand = live[v]
        if len(cand) > 1:
            ordered = sorted(cand)
            c = ordered[int(rng.integers(len(ordered)))]
        else:
            c = next(iter(cand))
        colors[v] = c
        for u in gc.neighbors(v):
            u = int(u)
            if processed[u] or c not in live[u]:
                continue
            live[u].discard(c)
            bucket_remove(u)
            sizes[u] -= 1
            if sizes[u] == 0:
                # List emptied: u joins Vu and is done for this iteration.
                processed[u] = True
                n_processed += 1
                uncolored.append(u)
            else:
                bucket_insert(u)
                if sizes[u] < lowest:
                    lowest = int(sizes[u])
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
        for c in col_lists[v]:
            if int(c) not in taken:
                chosen = int(c)
                break
        if chosen < 0:
            uncolored.append(int(v))
        else:
            colors[v] = chosen
    return colors, np.array(sorted(uncolored), dtype=np.int64)
