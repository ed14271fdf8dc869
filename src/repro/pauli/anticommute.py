"""Anticommutation kernels.

Two Pauli strings ``P_i``, ``P_j`` anticommute iff the number of qubit
positions where they hold *distinct non-identity* Paulis is odd (Eq. 5
extended to strings, §IV-A).  The paper's graph ``G`` connects
anticommuting pairs; the coloring runs on the *complement* ``G'`` whose
edges are the commuting (non-anticommuting) distinct pairs.

Kernels, from slowest to fastest (the §IV-A ablation):

- :func:`anticommute_pairs_chars` — direct per-character comparison of
  the uint8 code matrix (the baseline the paper reports 1.4–2.0x over).
- :func:`anticommute_pairs_iooh` — the paper's 3-bit inverse one-hot
  encoding: ``AND`` + popcount-parity on packed uint64 words.
- :func:`anticommute_pairs_symplectic` — the standard symplectic form
  used as an independent oracle.

All kernels take parallel index arrays ``(i, j)`` and return a uint8
mask where 1 means *anticommute*.
"""

from __future__ import annotations

import numpy as np

from repro.pauli.encoding import I, encode_iooh, encode_symplectic
from repro.util.bits import parity_block, parity_rows, popcount_u8

#: Pairs per gather in :func:`anticommute_pairs_iooh`: its temporaries
#: are a few uint64 words per pair, a few tens of MiB at 1M pairs.
IOOH_GATHER_CHUNK = 1 << 20


def anticommute_pairs_chars(
    chars: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Character-comparison kernel (baseline).

    Counts positions where ``chars[i]`` and ``chars[j]`` differ and
    neither is identity; anticommute iff the count is odd.
    """
    a = chars[i]
    b = chars[j]
    mism = (a != b) & (a != I) & (b != I)
    return (mism.sum(axis=1) & 1).astype(np.uint8)


def anticommute_pairs_iooh(
    packed: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Inverse one-hot kernel: ``parity(popcount(a & b))`` (the paper's).

    Parity is additive mod 2, so the ``a & b`` words are XOR-folded into
    one word per pair and popcounted once.  Gathering one word column
    at a time keeps every temporary one word per pair; pairs go in
    chunks of :data:`IOOH_GATHER_CHUNK`.
    """
    i = np.asarray(i)
    j = np.asarray(j)
    out = np.zeros(len(i), dtype=np.uint8)
    if packed.shape[1] == 0:
        return out
    for s in range(0, len(i), IOOH_GATHER_CHUNK):
        ii = i[s : s + IOOH_GATHER_CHUNK]
        jj = j[s : s + IOOH_GATHER_CHUNK]
        fold = packed[:, 0][ii] & packed[:, 0][jj]
        for w in range(1, packed.shape[1]):
            fold ^= packed[:, w][ii] & packed[:, w][jj]
        out[s : s + len(fold)] = popcount_u8(fold) & np.uint8(1)
    return out


def anticommute_pairs_symplectic(
    x: np.ndarray, z: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Symplectic-inner-product kernel (independent oracle).

    ``P_i`` and ``P_j`` anticommute iff
    ``parity(x_i & z_j) XOR parity(z_i & x_j)`` is 1.
    """
    p1 = parity_rows(x[i] & z[j])
    p2 = parity_rows(z[i] & x[j])
    return (p1 ^ p2).astype(np.uint8)


def anticommute_block_chars(
    chars: np.ndarray, r0: int, r1: int, c0: int, c1: int
) -> np.ndarray:
    """Character-comparison kernel over a ``(rows, cols)`` block.

    Loops over qubit columns so scratch stays at one block-sized
    temporary; the mismatch count accumulates mod 256, which preserves
    the parity that decides anticommutation.
    """
    a = chars[r0:r1]
    b = chars[c0:c1]
    out = np.zeros((r1 - r0, c1 - c0), dtype=np.uint8)
    for q in range(chars.shape[1]):
        ca = a[:, q, None]
        cb = b[None, :, q]
        out += (ca != cb) & (ca != I) & (cb != I)
    out &= np.uint8(1)
    return out


def anticommute_block_iooh(
    packed: np.ndarray, r0: int, r1: int, c0: int, c1: int
) -> np.ndarray:
    """Inverse one-hot kernel over a block: the tiled form of
    :func:`anticommute_pairs_iooh` — word broadcast, no row gather."""
    return parity_block(packed[r0:r1], packed[c0:c1])


def anticommute_block_symplectic(
    x: np.ndarray, z: np.ndarray, r0: int, r1: int, c0: int, c1: int
) -> np.ndarray:
    """Symplectic kernel over a block:
    ``parity(x_i & z_j) XOR parity(z_i & x_j)`` broadcast-tiled."""
    return parity_block(x[r0:r1], z[c0:c1]) ^ parity_block(z[r0:r1], x[c0:c1])


def anticommute_matrix(chars: np.ndarray) -> np.ndarray:
    """Dense ``(n, n)`` boolean anticommutation matrix (small inputs only).

    Convenience for tests and tiny examples such as the H2 walkthrough
    of Fig. 1; quadratic memory, so guarded against large ``n``.
    """
    chars = np.asarray(chars, dtype=np.uint8)
    n = chars.shape[0]
    if n > 20_000:
        raise MemoryError(
            f"anticommute_matrix materializes an {n}x{n} matrix; "
            "use the pairwise kernels for large sets"
        )
    packed = encode_iooh(chars)
    ii, jj = np.triu_indices(n, k=1)
    mask = anticommute_pairs_iooh(packed, ii, jj)
    out = np.zeros((n, n), dtype=bool)
    out[ii, jj] = mask.astype(bool)
    out |= out.T
    return out


class AnticommuteOracle:
    """Batched anticommutation oracle over a fixed Pauli set.

    Pre-encodes the set once and answers pairwise queries with the
    chosen kernel.  This is the object the streaming conflict-graph
    construction consults instead of an explicit edge list — the heart
    of the paper's memory saving: the dense graph is never stored.

    Parameters
    ----------
    chars:
        ``(n, N)`` char-code matrix.
    kernel:
        ``"iooh"`` (default, the paper's), ``"chars"`` or ``"symplectic"``.
    """

    def __init__(self, chars: np.ndarray, kernel: str = "iooh") -> None:
        self.chars = np.asarray(chars, dtype=np.uint8)
        self.n = self.chars.shape[0]
        self.n_qubits = self.chars.shape[1] if self.chars.ndim == 2 else 0
        self.kernel = kernel
        self._blk_tmp: np.ndarray | None = None
        self._blk_out: np.ndarray | None = None
        if kernel == "iooh":
            self._packed = encode_iooh(self.chars)
        elif kernel == "symplectic":
            self._x, self._z = encode_symplectic(self.chars)
        elif kernel == "chars":
            pass
        else:
            raise ValueError(f"unknown kernel {kernel!r}")

    def _block_scratch(self, rows: int, cols: int):
        """Persistent per-oracle block buffers (grown on demand) so a
        strip sweep's edge-block queries stay off the allocator."""
        if (
            self._blk_tmp is None
            or self._blk_tmp.shape[0] < rows
            or self._blk_tmp.shape[1] < cols
        ):
            r = max(rows, 0 if self._blk_tmp is None else self._blk_tmp.shape[0])
            c = max(cols, 0 if self._blk_tmp is None else self._blk_tmp.shape[1])
            self._blk_tmp = np.empty((r, c), dtype=np.uint64)
            self._blk_out = np.empty((r, c), dtype=np.uint8)
        return self._blk_tmp[:rows, :cols], self._blk_out[:rows, :cols]

    def anticommute(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """uint8 mask, 1 where ``P_i`` and ``P_j`` anticommute."""
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        if self.kernel == "iooh":
            return anticommute_pairs_iooh(self._packed, i, j)
        if self.kernel == "symplectic":
            return anticommute_pairs_symplectic(self._x, self._z, i, j)
        return anticommute_pairs_chars(self.chars, i, j)

    def commute_edges(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """uint8 mask, 1 where ``(i, j)`` is an edge of the *complement*
        graph ``G'`` (distinct strings that do **not** anticommute)."""
        mask = self.anticommute(i, j)
        mask ^= 1
        return mask

    def anticommute_block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Block form of :meth:`anticommute`: uint8 ``(r1-r0, c1-c0)``
        matrix for the row-range x col-range pair block, computed as a
        word broadcast without gathering any rows (row-strip sweep).

        The returned array may view a reused internal buffer — consume
        it before the next ``*_block`` call on this oracle.
        """
        if self.kernel == "iooh":
            tmp, out = self._block_scratch(r1 - r0, c1 - c0)
            return parity_block(self._packed[r0:r1], self._packed[c0:c1], tmp, out)
        if self.kernel == "symplectic":
            return anticommute_block_symplectic(self._x, self._z, r0, r1, c0, c1)
        return anticommute_block_chars(self.chars, r0, r1, c0, c1)

    def commute_block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Block form of :meth:`commute_edges`, as a fresh bool block
        (one compare).  Diagonal entries (``i == j``) are meaningless
        here; block consumers mask the strict upper triangle before use."""
        return self.anticommute_block(r0, r1, c0, c1) == 0

    @property
    def nbytes(self) -> int:
        """Bytes held by the encoded representation (memory accounting)."""
        total = self.chars.nbytes
        if self.kernel == "iooh":
            total += self._packed.nbytes
        elif self.kernel == "symplectic":
            total += self._x.nbytes + self._z.nbytes
        return total
