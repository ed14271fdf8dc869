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
from collections.abc import Iterator
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


def _trim_heap() -> None:
    """Return freed heap pages to the OS (glibc, best effort) so they
    do not stay resident under the pages ``targets`` faults in."""
    with contextlib.suppress(AttributeError, OSError, TypeError):
        ctypes.CDLL(None).malloc_trim(0)


def _edge_keys(
    chunk: np.ndarray | tuple[np.ndarray, np.ndarray], n: int, s: int
) -> Iterator[np.ndarray]:
    """A chunk as blocks of keys ``min << s | max``, row ids checked."""
    if isinstance(chunk, np.ndarray):
        for a in range(0, len(chunk), _BLOCK):
            key = chunk[a : a + _BLOCK]
            if key.min() < 0 or key.max() >= n << s:
                raise ValueError("vertex id out of range")
            yield key
        return
    u, v = chunk
    for a in range(0, len(u), _BLOCK):
        lo = np.minimum(u[a : a + _BLOCK], v[a : a + _BLOCK])
        hi = np.maximum(u[a : a + _BLOCK], v[a : a + _BLOCK])
        # Per block, not per row pointer: an id >= 2**s would fold into
        # another row's key without moving any row boundary.
        if lo.min() < 0 or hi.max() >= n:
            raise ValueError("vertex id out of range")
        yield pair_keys(lo, hi, n)


def _place(targets: np.ndarray, fill: list[int], keys: np.ndarray) -> None:
    """Commit a block of arc keys ``row << (s + 1) | ...``: with one row
    band they were computed in place at ``fill[0]``; with more, band
    ``b = key >> 31`` gets their low 31 bits at ``fill[b]``."""
    if len(fill) > 1:
        if (keys[1:] < keys[:-1]).any():
            keys.sort()
        b0 = int(keys[0]) >> 31
        cuts = np.searchsorted(keys, np.arange(b0 + 1, (int(keys[-1]) >> 31) + 1) << 31)
        for b, lo, hi in zip(range(b0, len(fill)), [0, *cuts], [*cuts, len(keys)]):
            np.bitwise_and(keys[lo:hi], (1 << 31) - 1, out=targets[fill[b] : fill[b] + hi - lo])
            fill[b] += hi - lo
    else:
        fill[0] += len(keys)


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
    """Sort-key CSR assembly from streamed edge chunks, inside ``targets``.

    Each chunk is a 1-D array of keys ``min << s | max`` in the
    :func:`key_layout` of ``n_vertices`` (what every sweep emits), or a
    ``(u, v)`` pair of endpoint arrays in either orientation; each
    unordered edge appears once across all chunks, and each chunk leaves
    the list as soon as it is copied.  Arc ``row -> nbr`` is written to
    ``targets`` as the int32 key ``(row - r0) << (s + 1) | (nbr < row) <<
    s | nbr``, rows banded by ``2**(30 - s)`` from ``r0`` (one band up to
    32,768 vertices).  One in-place sort per band gives the canonical
    rows of :class:`CSRGraph`, ``searchsorted`` the row starts and a mask
    the ids.  Scratch is O(block) beside ``targets``.
    """
    n = n_vertices
    s, _ = key_layout(n)
    hb = 30 - s  # log2 of the rows per band
    n_bands = max(-(-n >> hb), 1)
    mask = (1 << s) - 1
    arcs = np.zeros((2, n_bands), dtype=np.int64)  # upper, lower per band
    if n_bands == 1:
        arcs[:] = sum(len(c) if isinstance(c, np.ndarray) else len(c[0]) for c in chunks)
    for chunk in chunks if n_bands > 1 else []:
        for key in _edge_keys(chunk, n, s):
            arcs[0] += np.bincount(key >> 30, minlength=n_bands)
            arcs[1] += np.bincount((key & mask) >> hb, minlength=n_bands)[:n_bands]
    start = np.concatenate([[0], np.cumsum(arcs.sum(axis=0))]).tolist()
    m = int(arcs[0].sum())
    _trim_heap()
    targets = np.empty(2 * m, dtype=index_dtype(n))

    def block(size: int) -> np.ndarray:
        """Keys are computed in place with one band, else in scratch."""
        return targets[fill[0] : fill[0] + size] if n_bands == 1 else np.empty(size, np.int64)

    # Upper arcs: the key with its row field moved up one bit.  The heap
    # is trimmed after every 16 MiB of chunks consumed, and at the end.
    fill, freed = start[:-1], 0
    chunks.reverse()
    while chunks:
        chunk = chunks.pop()
        for key in _edge_keys(chunk, n, s):
            dst = block(len(key))
            np.bitwise_and(key, ~mask, out=dst)
            dst += key
            _place(targets, fill, dst)
            freed += key.nbytes
        del chunk
        if freed >= 16 << 20 or not chunks:
            _trim_heap()
            freed = 0
    # Lower arcs: nbr << (s + 1) | 1 << s | row, from the upper ones.
    up_end = [a + int(c) for a, c in zip(start, arcs[0])]
    fill = up_end.copy()
    for b in range(n_bands):
        for a in range(start[b], up_end[b], _BLOCK):
            up = targets[a : min(a + _BLOCK, up_end[b])]
            dst = block(len(up))
            np.bitwise_and(up, mask, out=dst)
            if dst.max() >= n:  # a column field >= n
                raise ValueError("vertex id out of range")
            dst <<= s + 1
            dst |= 1 << s | b << hb
            dst |= up >> (s + 1)
            _place(targets, fill, dst)

    offsets = np.empty(n + 1, dtype=np.int64)
    offsets[n] = 2 * m  # n << (s + 1) would not fit int32 at n = 2**15
    for b in range(n_bands):
        seg = targets[start[b] : start[b + 1]]
        seg.sort()
        r0, r1 = b << hb, min((b + 1) << hb, n)
        # int32 probes: int64 ones would cast all of seg to int64.
        probes = np.arange(r1 - r0, dtype=seg.dtype) << (s + 1)
        offsets[r0:r1] = np.searchsorted(seg, probes) + start[b]
        seg &= mask
    return CSRGraph(offsets=offsets, targets=targets)


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
        Remove duplicate edges first (``np.unique`` of their keys).
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
