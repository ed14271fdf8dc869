"""Compressed Sparse Row graph.

The only explicit graph representation in the library (matching the
paper's §V choice: CSR gives contiguous adjacency scans during conflict
coloring).  Undirected graphs store each edge twice.  All arrays are
NumPy so the memory accounting of Table IV is exact:
``offsets`` is ``int64[n+1]``; ``targets`` is ``int32``/``int64``
depending on vertex count (mirroring the paper's 4-byte/8-byte counter
switch in Algorithm 3).
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np


def index_dtype(n_vertices: int) -> type:
    """4-byte ids when they fit, 8-byte otherwise (paper §V)."""
    return np.int32 if n_vertices < 2**31 else np.int64


@dataclass(frozen=True)
class CSRGraph:
    """Undirected graph in CSR form.

    Attributes
    ----------
    offsets:
        ``int64[n+1]`` prefix offsets into ``targets``.
    targets:
        Neighbor ids; each undirected edge appears in both endpoint rows.

    Graphs from :func:`csr_from_coo_chunks` and :func:`from_edge_list`
    keep one canonical row order: row ``x`` lists its neighbours above
    ``x`` ascending, then its neighbours below ``x`` ascending.  The
    arrays depend on the edge set alone, never on input order.
    """

    offsets: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if self.offsets.ndim != 1 or self.targets.ndim != 1:
            raise ValueError("offsets and targets must be 1-D")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.targets):
            raise ValueError("offsets do not span targets")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing")

    @property
    def n_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_edges(self) -> int:
        """Undirected edge count (half the stored directed arcs)."""
        return len(self.targets) // 2

    def degree(self, v: int | None = None) -> np.ndarray | int:
        """Degree of ``v``, or the full degree vector when ``v`` is None."""
        if v is None:
            return np.diff(self.offsets).astype(np.int64)
        return int(self.offsets[v + 1] - self.offsets[v])

    def neighbors(self, v: int) -> np.ndarray:
        """View of the adjacency row of ``v``."""
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def max_degree(self) -> int:
        if self.n_vertices == 0:
            return 0
        return int(np.diff(self.offsets).max())

    def average_degree(self) -> float:
        if self.n_vertices == 0:
            return 0.0
        return float(len(self.targets)) / self.n_vertices

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.isin(v, self.neighbors(u)).any())

    def edges(self) -> np.ndarray:
        """``(m, 2)`` array of unique undirected edges with u < v."""
        src = np.repeat(
            np.arange(self.n_vertices, dtype=self.targets.dtype),
            np.diff(self.offsets),
        )
        mask = src < self.targets
        return np.stack([src[mask], self.targets[mask]], axis=1)

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays (Table IV accounting)."""
        return self.offsets.nbytes + self.targets.nbytes

    def validate_coloring(self, colors: np.ndarray) -> bool:
        """True iff ``colors`` is a proper coloring (no monochrome edge);
        vertices colored -1 are treated as uncolored and fail."""
        colors = np.asarray(colors)
        if colors.shape != (self.n_vertices,):
            raise ValueError("color array has wrong length")
        if (colors < 0).any():
            return False
        e = self.edges()
        if len(e) == 0:
            return True
        return not (colors[e[:, 0]] == colors[e[:, 1]]).any()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.n_vertices}, m={self.n_edges})"


#: Edges per block in the O(block)-scratch passes of the assembly.
_BLOCK = 1 << 19


def _scatter(
    targets: np.ndarray, key: np.ndarray, ptr: np.ndarray, base: np.ndarray, s: int
) -> None:
    """Write the column of sorted key ``j`` (``row << s | col``) to
    ``targets[j + base[row]]``; ``ptr`` holds the row starts in ``key``."""
    col_mask = key.dtype.type((1 << s) - 1)
    for a in range(0, len(key), _BLOCK):
        blk = key[a : a + _BLOCK]
        r0, r1 = int(blk[0] >> s), int(blk[-1] >> s) + 1
        runs = np.diff(np.clip(ptr[r0 : r1 + 1], a, a + len(blk)))
        dest = np.repeat(base[r0:r1], runs)
        dest += np.arange(a, a + len(blk))
        targets[dest] = blk & col_mask


def key_layout(n_vertices: int) -> tuple[int, np.dtype]:
    """The CSR key layout for ``n_vertices``: the shift
    ``s = bit_length(n - 1)`` of a key ``min << s | max`` and its dtype,
    ``int32`` when ``2s <= 31`` and ``int64`` otherwise (the paper's
    4-byte/8-byte switch).  Every sweep emits its hits in this layout."""
    s = max(n_vertices - 1, 0).bit_length()
    return s, key_dtype(s)


def key_dtype(s: int) -> np.dtype:
    """``int32`` when a key of two ``s``-bit ids fits, else ``int64``."""
    return np.dtype(np.int32 if 2 * s <= 31 else np.int64)


def pair_keys(i: np.ndarray, j: np.ndarray, n_vertices: int) -> np.ndarray:
    """Keys ``i << s | j`` of pairs with ``i < j`` (:func:`key_layout`)."""
    s, dtype = key_layout(n_vertices)
    keys = i.astype(dtype)
    keys <<= s
    keys |= j
    return keys


def key_pairs(keys: np.ndarray, n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode keys into ``(i, j)`` intp arrays by shift and mask."""
    s, _ = key_layout(n_vertices)
    i = np.right_shift(keys, s, dtype=np.intp)
    return i, np.bitwise_and(keys, (1 << s) - 1, dtype=np.intp)


def csr_from_coo_chunks(
    chunks: list[np.ndarray | tuple[np.ndarray, np.ndarray]], n_vertices: int
) -> CSRGraph:
    """Sort-key CSR assembly from streamed edge chunks.

    Each chunk is a 1-D array of keys ``min << s | max`` in the
    :func:`key_layout` of ``n_vertices`` (what every sweep emits), or a
    ``(u, v)`` pair of endpoint arrays in either orientation, encoded
    into keys here; each unordered edge appears exactly once across all
    chunks, and each chunk leaves the list as soon as it is copied.
    Sorting the keys (skipped when the stream arrives sorted) orders
    each row's upper neighbours; transposing them in place and sorting
    again orders the lower ones.  Both halves scatter straight to their
    final slots, so the result depends on the edge set alone (see
    :class:`CSRGraph`).  Scratch is the one ``m``-long key array plus
    O(block) temporaries.
    """
    n = n_vertices
    s, dtype = key_layout(n)
    sizes = [len(c) if isinstance(c, np.ndarray) else len(c[0]) for c in chunks]
    key = np.empty(sum(sizes), dtype)
    in_order = True
    pos = 0
    chunks.reverse()
    while chunks:
        chunk = chunks.pop()
        for a in range(0, sizes.pop(0), _BLOCK):
            if isinstance(chunk, np.ndarray):
                # A row field >= n fails here, a column field >= n as
                # an overlong column count below.
                src = chunk[a : a + _BLOCK]
                if src.min() < 0 or src.max() >= n << s:
                    raise ValueError("vertex id out of range")
                blk = key[pos : pos + len(src)]
                blk[:] = src
            else:
                u, v = chunk
                lo = np.minimum(u[a : a + _BLOCK], v[a : a + _BLOCK])
                hi = np.maximum(u[a : a + _BLOCK], v[a : a + _BLOCK])
                # Per block, not per row pointer: an id >= 2**s would fold
                # into another row's key without moving any row boundary.
                if lo.min() < 0 or hi.max() >= n:
                    raise ValueError("vertex id out of range")
                blk = key[pos : pos + len(lo)]
                blk[:] = lo
                blk <<= s
                blk |= hi
            in_order = in_order and (pos == 0 or key[pos - 1] <= blk[0])
            in_order = in_order and not (blk[1:] < blk[:-1]).any()
            pos += len(blk)
        del chunk
    if not in_order:
        key.sort()
    up_ptr = np.searchsorted(key, np.arange(n + 1, dtype=key.dtype) << s)
    col_mask = key.dtype.type((1 << s) - 1)
    low_ptr = np.zeros(n + 1, dtype=np.int64)
    for a in range(0, len(key), _BLOCK):
        counts = np.bincount(key[a : a + _BLOCK] & col_mask, minlength=n)
        if len(counts) > n:
            raise ValueError("vertex id out of range")
        low_ptr[1:] += counts
    np.cumsum(low_ptr, out=low_ptr)
    # Return freed chunk pages first (glibc): reused or not by luck of
    # heap fragmentation, they swung peak RSS by ``targets.nbytes``.
    with contextlib.suppress(AttributeError, OSError, TypeError):
        ctypes.CDLL(None).malloc_trim(0)
    targets = np.empty(2 * len(key), dtype=index_dtype(n))
    _scatter(targets, key, up_ptr, low_ptr, s)
    for a in range(0, len(key), _BLOCK):
        blk = key[a : a + _BLOCK]
        blk[:] = (blk & col_mask) << s | blk >> s
    key.sort()
    _scatter(targets, key, low_ptr, up_ptr[1:], s)
    return CSRGraph(offsets=up_ptr + low_ptr, targets=targets)


def from_edge_list(
    u: np.ndarray, v: np.ndarray, n_vertices: int, dedupe: bool = False
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an undirected edge list.

    Runs the sort-key assembly of :func:`csr_from_coo_chunks` on the
    single chunk ``(u, v)``.

    Parameters
    ----------
    u, v:
        Endpoint arrays (any orientation; self-loops rejected).
    n_vertices:
        Total vertex count (isolated vertices allowed).
    dedupe:
        Remove duplicate edges first.  The ``np.unique`` sort of their
        keys leaves them in order, so the assembly skips its first sort.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValueError("endpoint arrays differ in length")
    if (u == v).any():
        raise ValueError("self-loops not allowed")
    if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n_vertices):
        raise ValueError("vertex id out of range")
    if dedupe and len(u):
        keys = pair_keys(np.minimum(u, v), np.maximum(u, v), n_vertices)
        return csr_from_coo_chunks([np.unique(keys)], n_vertices)
    return csr_from_coo_chunks([(u, v)], n_vertices)
