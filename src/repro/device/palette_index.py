"""Inverted palette index: output-sensitive conflict enumeration.

Two vertices can only conflict when their candidate lists share a color
(Lemma 2).  The tile sweep of :mod:`repro.device.tiles` still tests all
``n(n-1)/2`` pairs against ``ceil(P/64)`` palette words each, which is
cubic in ``n`` under ``P = 0.125n``.  This module enumerates only the
pairs that share a color:

- **Buckets.**  Unpacking the packed ``colmasks`` one word column at a
  time and taking ``np.nonzero`` of the transpose lists, for every
  color, the ascending ids of the vertices whose list holds it — the
  color-major, vertex-ascending bucket array.
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

The emitted key set equals the tile sweep's, so the sort-key CSR
assembly builds a bit-identical graph from either stream, and takes
this one as its key array, which arrives sorted.  The
expected work is ``C = sum_c |B_c|(|B_c|-1)/2 ~ n^2 L^2 / 2P``
candidates, the Lemma 2 quantity itself, against
``n(n-1)/2 * ceil(P/64)`` word operations for the tile sweep;
:func:`prefers_index` compares the two.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import key_layout, key_pairs
from repro.util.chunking import num_pairs

__all__ = [
    "INDEX_BLOCK_CANDIDATES",
    "INDEX_COST_PER_CANDIDATE",
    "PaletteIndex",
    "all_pairs_share",
    "bucket_sizes",
    "candidate_pairs",
    "prefers_index",
    "row_blocks",
]

#: Candidate pairs per row block: bounds the block's key, sort and
#: oracle-gather temporaries to a few tens of MiB.
INDEX_BLOCK_CANDIDATES = 1 << 20

#: Cost of one index candidate in tile-sweep palette word operations
#: (``kappa`` of the plan rule ``C * kappa < n(n-1)/2 * W``).  Measured
#: with ``benchmarks/bench_index_scaling.py --sizes 1000 ... 5000``
#: (serial iteration-1 builds, uniform 50-qubit strings, Normal preset,
#: 768 KiB tiles) on a 2-vCPU x86-64 VM with numpy 2.4: the index ran
#: 0.95x the tile sweep's speed at n = 2.5k (word ops per candidate
#: 6.1) and 1.05x at n = 3k (8.8), crossing near 7.5.
INDEX_COST_PER_CANDIDATE = 7.5

def _word_bits(colmasks: np.ndarray, w: int) -> np.ndarray:
    """``(n, 64)`` uint8 bits of word column ``w``, bit ``b`` at column
    ``b`` (little-endian unpack, whatever the host byte order)."""
    col = np.ascontiguousarray(colmasks[:, w], dtype="<u8")
    return np.unpackbits(
        col.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    )


def bucket_sizes(colmasks: np.ndarray) -> np.ndarray:
    """``|B_c|`` for every palette bit: how many lists hold color ``c``."""
    n_words = colmasks.shape[1]
    sizes = np.zeros(64 * n_words, dtype=np.int64)
    for w in range(n_words):
        sizes[64 * w : 64 * (w + 1)] = _word_bits(colmasks, w).sum(
            axis=0, dtype=np.int64
        )
    return sizes


def candidate_pairs(colmasks: np.ndarray) -> int:
    """``C = sum_c |B_c|(|B_c|-1)/2``: in-bucket pairs, with a pair
    counted once per color its endpoints share."""
    sizes = bucket_sizes(colmasks)
    return int((sizes * (sizes - 1) // 2).sum())


def prefers_index(n: int, colmasks: np.ndarray) -> bool:
    """The plan rule: enumerate through the index when its candidate
    work undercuts the tile sweep's palette word operations,
    ``C * kappa < n(n-1)/2 * W``.  With ``L = P`` every vertex sits in
    every bucket (``C = P * n(n-1)/2``): that regime takes the ``rows``
    plan (:func:`all_pairs_share`) without consulting this rule."""
    tile_ops = num_pairs(n) * colmasks.shape[1]
    return candidate_pairs(colmasks) * INDEX_COST_PER_CANDIDATE < tile_ops


def all_pairs_share(colmasks: np.ndarray) -> bool:
    """True when every list is the same non-empty bitset, so every pair
    shares a color (the ``L = P`` branch of
    :func:`repro.core.palette.assign_color_lists` always gives this).
    ``O(nW)``, with an early exit every 4096 rows."""
    if len(colmasks) == 0 or not colmasks[0].any():
        return False
    return all(
        (colmasks[a : a + 4096] == colmasks[0]).all()
        for a in range(0, len(colmasks), 4096)
    )


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


class PaletteIndex:
    """Per-color vertex buckets of one iteration's candidate lists.

    Built from the packed ``(n, W)`` palette bitsets.  Holds, per
    bucket entry, the vertex id and how many entries follow it in its
    bucket, plus a vertex-major permutation of the entries and the
    exact per-row candidate prefix sums that row blocks are cut from.
    Plain arrays only, so it pickles into worker payloads as is.
    """

    def __init__(self, colmasks: np.ndarray) -> None:
        n, n_words = colmasks.shape
        self.n = n
        colors: list[np.ndarray] = []
        verts: list[np.ndarray] = []
        for w in range(n_words):
            c, v = np.nonzero(_word_bits(colmasks, w).T)
            colors.append(c + 64 * w)
            verts.append(v)
        color = np.concatenate(colors)
        #: Bucket entries: vertex ids, color-major and ascending within
        #: each color.
        self.verts = np.concatenate(verts).astype(key_layout(n)[1])
        bucket_end = np.cumsum(np.bincount(color, minlength=64 * n_words))
        #: Entries after each entry in its bucket — its candidate count.
        self.later = bucket_end[color] - np.arange(len(color)) - 1
        #: Entry ids grouped by vertex (ascending), for row blocks.
        self.by_vertex = np.argsort(self.verts, kind="stable")
        self.row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.verts, minlength=n), out=self.row_ptr[1:])
        cum = np.zeros(len(self.verts) + 1, dtype=np.int64)
        np.cumsum(self.later[self.by_vertex], out=cum[1:])
        #: ``row_candidates[r]`` = candidate pairs of rows ``[0, r)``.
        self.row_candidates = cum[self.row_ptr]

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
        entries = self.by_vertex[self.row_ptr[a] : self.row_ptr[b]]
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
        keys.sort()
        first = np.empty(total, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return keys[first]

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
