"""Inverted palette index: output-sensitive conflict enumeration.

Two vertices can only conflict when their candidate lists share a color
(Lemma 2).  The row strips of :mod:`repro.device.tiles` test all
``n(n-1)/2`` pairs against ``ceil(P/64)`` palette words each, which is
cubic in ``n`` under ``P = 0.125n``.  This module enumerates only the
pairs that share a color:

- **Buckets.**  One stable sort of the ``nL`` color ids of the
  ``(n, L)`` candidate lists (16-bit ids while ``P <= 65536``, which
  numpy radix-sorts) gives, for every color, the ascending ids of the
  vertices whose list holds it — the color-major, vertex-ascending
  bucket array.  The lists are vertex-major, so the inverse of that
  permutation groups the entries by vertex.  ``O(nL)``, whatever ``P``.
- **Row blocks.**  A vertex at bucket position ``p`` pairs with the
  ``|B_c| - 1 - p`` later entries of that bucket, so the exact number
  of candidate pairs per row is known before any pair is produced.
  Rows are cut into contiguous blocks ``[a, b)`` of about
  :data:`INDEX_BLOCK_CANDIDATES` candidates each.
- **Dedupe.**  Each candidate is generated as its CSR key
  (:func:`repro.graphs.csr.key_layout`).  A pair sharing several colors
  appears once per shared color; each block sorts its keys and drops
  adjacent repeats (``np.unique`` is an order of magnitude slower on
  these keys).  Blocks cover ascending row ranges, so the concatenated
  stream is globally sorted.
- **Oracle.**  Only the surviving keys, decoded by shift and mask,
  reach the source's gathered ``edge_mask(i, j)``.

The emitted key set equals the strips', so the sort-key CSR assembly
builds a bit-identical graph from either stream.  The expected work is
``C = sum_c |B_c|(|B_c|-1)/2 ~ n^2 L^2 / 2P`` candidates, the Lemma 2
quantity itself, against ``n(n-1)/2 * ceil(P/64)`` palette word
operations for the strips; :func:`prefers_index` compares the two from
the bucket sizes alone.

Every function here takes lists whose rows hold distinct colors of
``{0..P-1}``, as :func:`repro.core.palette.assign_color_lists` draws
them.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import key_layout, key_pairs
from repro.util.chunking import num_pairs

__all__ = [
    "INDEX_BLOCK_CANDIDATES",
    "INDEX_COST_PER_CANDIDATE",
    "SWEEP_MIN_UNRESOLVED",
    "BucketQuery",
    "PaletteIndex",
    "all_pairs_share",
    "candidate_pairs",
    "pair_blocks",
    "prefers_index",
    "row_blocks",
]

#: Candidate pairs per row block: bounds the block's key, sort and
#: oracle-gather temporaries to a few tens of MiB (halving ``1 << 20``
#: cut 3 MiB of peak RSS and some gather page faults on rand50q-10k).
INDEX_BLOCK_CANDIDATES = 1 << 19

#: Cost of one index candidate in row-strip palette word operations
#: (``kappa`` of the plan rule ``C * kappa < n(n-1)/2 * W``).  Measured
#: with ``benchmarks/bench_index_scaling.py --sizes 1500 2000 2500 3000
#: 4000 5000 7000 10000 --repeats 3`` and ``--sizes 1500 ... 5000
#: --repeats 5 --seed 2`` (serial iteration-1 builds, uniform 50-qubit
#: strings, Normal preset, 768 KiB strips ANDing the block oracle with
#: the palette test) on a 2-vCPU x86-64 VM with numpy 2.4: the strips
#: took 0.48x the index's time at n = 1.5k (word ops per candidate
#: 2.5), 0.51-0.52x at 2k (4.4), 0.67-0.70x at 2.5k (6.1) and
#: 0.80-0.90x at 3k (8.8); the index won at 4k (13.8; strips
#: 1.11-1.19x), 5k (21.6; 1.51-1.53x), 7k (37.8; 2.6x) and 10k (77.2;
#: 3.5x), so the crossing lies between 8.8 and 13.8.
INDEX_COST_PER_CANDIDATE = 11.0

#: Fewest vertices left unresolved by detection's successor pass that
#: send it to the sweep; fewer go to the second pass.  Measured on a
#: 2-vCPU x86-64 VM, Normal lists on Jordan-Wigner Majorana strings
#: (no conflict edge, so every vertex is unresolved and the second pass
#: tests all its bucket-mates): the second pass costs about 33 us per
#: vertex (0.27 ms at 8, 0.50 ms at 16, 2.2 ms at 64), a serial sweep
#: 0.06-0.09 ms, and a warm 2-worker pool's sweep 2.1 ms, plus the pool
#: start if it is the run's first.  At 16 a serial run loses at most
#: about 0.5 ms per such iteration and a pool saves at least 1.6 ms; the
#: late iterations of ``rand50q-10k-pool2`` (1-33 vertices) sent strip
#: tasks that returned 617 B.
SWEEP_MIN_UNRESOLVED = 16


def candidate_pairs(col_lists: np.ndarray) -> int:
    """``C = sum_c |B_c|(|B_c|-1)/2``: in-bucket pairs, with a pair
    counted once per color its endpoints share; the bucket sizes
    ``|B_c|`` are one ``bincount`` of the lists."""
    sizes = np.bincount(col_lists.ravel())
    return int((sizes * (sizes - 1) // 2).sum())


def prefers_index(n: int, col_lists: np.ndarray, palette_size: int) -> bool:
    """The plan rule: enumerate through the index when its candidate
    work undercuts the row strips' palette word operations,
    ``C * kappa < n(n-1)/2 * W``.  With ``L = P`` every vertex sits in
    every bucket (``C = P * n(n-1)/2``): that regime takes the ``rows``
    plan (:func:`all_pairs_share`) without consulting this rule."""
    strip_ops = num_pairs(n) * -(-palette_size // 64)
    return candidate_pairs(col_lists) * INDEX_COST_PER_CANDIDATE < strip_ops


def all_pairs_share(col_lists: np.ndarray, palette_size: int) -> bool:
    """True when every pair shares a color: there are lists, and with
    distinct colors per row ``L = P`` makes each the whole palette
    (the branch of :func:`repro.core.palette.assign_color_lists` that
    draws nothing).  ``O(1)``."""
    return len(col_lists) > 0 and col_lists.shape[1] == palette_size


def row_blocks(
    prefix: np.ndarray,
    n_blocks: int,
    shares: list[int] | None = None,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Contiguous row blocks ``[a, b)`` and their weights, cut where the
    row-weight prefix sums (``prefix[r]`` = weight of rows ``[0, r)``)
    cross ``n_blocks`` equal quotas, or quotas proportional to
    ``shares`` (one per block, for capacity-weighted deals — empty
    blocks are then kept so block ``k`` stays aligned with share
    ``k``).  Without shares, blocks of no rows are dropped."""
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    total = int(prefix[-1])
    if shares is None:
        quota = [total * k // n_blocks for k in range(1, n_blocks)]
    else:
        csum = np.cumsum(np.asarray(shares, dtype=np.int64)).tolist()
        quota = [total * s // csum[-1] for s in csum[:-1]]
    cuts = np.searchsorted(prefix, quota, side="left")
    bounds = [0, *(int(c) for c in cuts), len(prefix) - 1]
    weights = prefix[bounds[1:]] - prefix[bounds[:-1]]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    if shares is None:
        keep = [k for k, (a, b) in enumerate(blocks) if b > a]
        blocks = [blocks[k] for k in keep]
        weights = weights[keep]
    return blocks, weights


def pair_blocks(
    n: int, n_blocks: int, shares: list[int] | None = None,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """:func:`row_blocks` of the all-pairs sweep over ``n`` vertices,
    whose row ``i`` holds the ``n - 1 - i`` pairs ``(i, j > i)``."""
    r = np.arange(n + 1, dtype=np.int64)
    return row_blocks(r * (2 * n - r - 1) // 2, n_blocks, shares)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sort ``keys`` in place, drop repeats (10x faster than ``np.unique``)."""
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


class PaletteIndex:
    """Per-color vertex buckets of one iteration's candidate lists.

    Built from the ``(n, L)`` candidate lists.  Holds, per bucket
    entry, the vertex id and how many entries follow it in its bucket,
    plus a vertex-major permutation of the entries and the exact
    per-row candidate prefix sums that row blocks are cut from.  Plain
    arrays only, so it pickles into worker payloads (less ``color``).
    """

    def __init__(self, col_lists: np.ndarray) -> None:
        n, list_size = col_lists.shape
        self.n = n
        #: Entries per vertex: vertex ``v`` owns entries ``[vL, vL + L)``.
        self.list_size = list_size
        flat = col_lists.ravel()
        ids = flat.astype(np.min_scalar_type(int(flat.max()) if flat.size else 0))
        order = np.argsort(ids, kind="stable")
        color = ids[order]
        #: Bucket entries: vertex ids, color-major and ascending within
        #: each color.
        self.verts = (order // list_size).astype(key_layout(n)[1])
        last = np.ones(len(color), dtype=bool)
        np.not_equal(color[1:], color[:-1], out=last[:-1])
        if (np.equal(self.verts[1:], self.verts[:-1]) & ~last[:-1]).any():
            raise ValueError("a candidate list holds a color twice")
        ends = np.flatnonzero(last) + 1
        #: Entries after each entry in its bucket — its candidate count.
        self.later = np.repeat(ends, np.diff(ends, prepend=0)) - np.arange(len(color)) - 1
        #: Bucket entries' colors, ascending: bucket ``c`` is the run of ``c``.
        self.color = color
        #: Entry ids grouped by vertex (the inverse permutation: the
        #: flat lists are vertex-major), for row blocks.
        self.by_vertex = np.empty(len(order), dtype=np.intp)
        self.by_vertex[order] = np.arange(len(order))
        rows = self.later[self.by_vertex].reshape(n, list_size).sum(axis=1)
        #: ``row_candidates[r]`` = candidate pairs of rows ``[0, r)``.
        self.row_candidates = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(rows, out=self.row_candidates[1:])

    def __getstate__(self) -> dict:
        """Drop ``color``: only the parent's :meth:`conflicted` and
        :class:`BucketQuery` read it."""
        return {k: v for k, v in self.__dict__.items() if k != "color"}

    @property
    def n_candidates(self) -> int:
        """``C``, exact: every in-bucket pair once per shared color."""
        return int(self.row_candidates[-1])

    def block_count(self, min_blocks: int = 1) -> int:
        """Blocks for a sweep: at least ``min_blocks``, and enough that
        each holds about :data:`INDEX_BLOCK_CANDIDATES` candidates."""
        return max(min_blocks, -(-self.n_candidates // INDEX_BLOCK_CANDIDATES), 1)

    def row_blocks(
        self,
        n_blocks: int,
        shares: list[int] | None = None,
    ) -> tuple[list[tuple[int, int]], np.ndarray]:
        """Contiguous row blocks ``[a, b)`` and their exact candidate
        counts (see :func:`row_blocks`)."""
        return row_blocks(self.row_candidates, n_blocks, shares)

    def block_keys(self, a: int, b: int) -> np.ndarray:
        """Sorted unique CSR keys ``i << s | j`` (:func:`key_layout`) of
        the pairs ``a <= i < b``, ``i < j``, sharing at least one
        candidate color."""
        entries = self.by_vertex[a * self.list_size : b * self.list_size]
        counts = self.later[entries]
        total = int(counts.sum())
        s, dtype = key_layout(self.n)
        if total == 0:
            return np.empty(0, dtype)
        # Entry e pairs with bucket entries e+1 .. e+counts[e].
        starts = np.cumsum(counts) - counts
        keys = self.verts[
            np.arange(total, dtype=np.int64)
            + np.repeat(entries + 1 - starts, counts)
        ]
        keys |= np.repeat(self.verts[entries] << s, counts)
        return _sorted_unique(keys)

    def block_hits(self, a: int, b: int, edge_mask_fn) -> np.ndarray:
        """Conflict edges of rows ``[a, b)``: the keys of the block's
        candidate pairs that ``edge_mask_fn`` confirms as edges, in
        sorted order."""
        keys = self.block_keys(a, b)
        if len(keys) == 0:
            return keys
        keep = np.asarray(edge_mask_fn(*key_pairs(keys, self.n)))
        return keys[keep.astype(bool, copy=False)]

    def iter_hits(self, edge_mask_fn):
        """Yield conflict-edge key chunks block by block — the serial
        sweep, globally sorted."""
        blocks, _ = self.row_blocks(self.block_count())
        for a, b in blocks:
            yield self.block_hits(a, b, edge_mask_fn)

    def conflicted(self, edge_mask_fn, sweep=None) -> tuple[np.ndarray, int]:
        """``(mask, oracle tests)``: which vertices have a conflict edge.  Each
        bucket entry is tested against its successor (<= ``nL`` deduplicated
        pairs, in blocks); if over a quarter and more than
        :data:`SWEEP_MIN_UNRESOLVED` stay unresolved ``sweep()`` gives the
        mask, else each is tested against its deduplicated bucket-mates
        (less those that found no edge) in growing chunks, to its first edge."""
        n, hit, tests = self.n, np.zeros(self.n, dtype=bool), 0
        succ = np.flatnonzero(self.later)
        keys = _sorted_unique((self.verts[succ] << key_layout(n)[0]) | self.verts[succ + 1])
        for a in range(0, len(keys), INDEX_BLOCK_CANDIDATES):
            i, j = key_pairs(keys[a : a + INDEX_BLOCK_CANDIDATES], n)
            todo = ~(hit[i] & hit[j])
            i, j = i[todo], j[todo]
            edge = np.asarray(edge_mask_fn(i, j)).astype(bool)
            hit[i[edge]] = hit[j[edge]] = True
            tests += len(i)
        unresolved = n - np.count_nonzero(hit)
        if sweep is not None and 4 * unresolved > n and unresolved > SWEEP_MIN_UNRESOLVED:
            return sweep(), tests
        done = np.zeros(n, dtype=bool)  # tested against all its mates, no edge
        for v in np.flatnonzero(~hit).tolist():
            if hit[v]:
                continue  # an earlier vertex's test found its edge
            c = self.color[self.by_vertex[v * self.list_size : (v + 1) * self.list_size]]
            starts = np.searchsorted(self.color, c)
            sizes = np.searchsorted(self.color, c, side="right") - starts
            if sizes.max() == n:  # one bucket holds every vertex
                mates = np.arange(n)
            else:  # the entries of v's buckets, concatenated
                entries = np.arange(int(sizes.sum()))
                entries += np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
                mates = _sorted_unique(self.verts[entries])
            mates = mates[(mates != v) & ~done[mates]]
            a, step = 0, 64
            while a < len(mates):
                chunk = mates[a : a + step]
                edge = np.asarray(edge_mask_fn(np.full(len(chunk), v), chunk)).astype(bool)
                tests += len(chunk)
                if edge.any():
                    hit[v] = hit[chunk[edge]] = True
                    break
                a, step = a + step, min(2 * step, INDEX_BLOCK_CANDIDATES)
            else:
                done[v] = True
        return hit, tests


class BucketQuery:
    """Algorithm 2's neighbour query without a conflict graph: the
    conflict neighbours of ``v`` still holding ``c`` are the conflicted
    members of ``c``'s bucket that hold ``c`` and are edges of ``v``.
    Local ids index ``conflicted``; ``tests`` counts oracle pairs."""

    def __init__(self, index: PaletteIndex, conflicted: np.ndarray, edge_mask_fn) -> None:
        local = np.full(index.n, -1, dtype=np.int64)
        local[conflicted] = np.arange(len(conflicted))
        local = local[index.verts]
        keep = local >= 0
        #: Conflicted bucket members as local ids; bucket ``c`` is ``[bounds[c], bounds[c + 1])``.
        self.members = local[keep].astype(index.verts.dtype)
        self.bounds = np.searchsorted(index.color[keep], np.arange(int(index.color[-1]) + 2))
        self.ids, self.edge_mask = conflicted, edge_mask_fn
        self.n_vertices, self.tests = len(conflicted), 0
        self.nbytes = int(self.members.nbytes + self.bounds.nbytes + conflicted.nbytes)

    def max_degree(self) -> int:
        """Most oracle tests one pick can ask: the largest bucket."""
        return int(np.diff(self.bounds).max(initial=0))

    def holders(self, v: int, c: int, row: np.ndarray, bit: np.uint64) -> np.ndarray:
        """Conflict neighbours of ``v`` whose bitset ``row`` holds ``bit``."""
        members = self.members[self.bounds[c] : self.bounds[c + 1]]
        held = row.take(members)
        held &= bit
        cand = members[held.astype(bool)]
        if len(cand):
            self.tests += len(cand)
            edge = self.edge_mask(np.full(len(cand), self.ids[v]), self.ids[cand])
            cand = cand[np.asarray(edge).astype(bool)]
        return cand
