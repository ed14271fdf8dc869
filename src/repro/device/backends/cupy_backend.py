"""CuPy device backend: the same tile kernels on GPU arrays.

Contract-complete but **untested in CI** (no GPU on the bench host):
the kernels mirror the numpy word-column formulation on device arrays
and copy results back to host, so the tiles drivers and the CSR
assembly above the seam run unchanged.  Operand transfer is per call —
a real deployment would keep ``packed``/``colmasks`` resident on
device across the sweep, which is the next milestone behind this seam,
not a correctness concern: results must match numpy bit for bit either
way, and the equivalence suites pick this backend up automatically via
``available_backends()`` wherever a GPU is present.

Parity uses the same XOR-fold identity as the numba backend
(``popcount(x ^ y) ≡ popcount(x) + popcount(y)`` mod 2); the
lowest-set-bit scan isolates the bit with ``m & (~m + 1)`` and recovers
its index through exact float64 ``log2``, exactly like the numpy
kernel.
"""

from __future__ import annotations

import numpy as np

from repro.device.backends.base import KernelBackend, register_backend

__all__ = ["CupyBackend"]

_AVAILABLE: bool | None = None


def _cupy():
    import cupy

    return cupy


@register_backend
class CupyBackend(KernelBackend):
    """Word-column kernels on CuPy device arrays (host in, host out)."""

    name = "cupy"

    @classmethod
    def is_available(cls) -> bool:
        global _AVAILABLE
        if _AVAILABLE is None:
            try:
                import cupy  # noqa: F401

                _AVAILABLE = True
            except ImportError:
                _AVAILABLE = False
        return _AVAILABLE

    def anticommute_parity_block(
        self, packed: np.ndarray, r0: int, r1: int, c0: int, c1: int
    ) -> np.ndarray:
        cp = _cupy()
        a = cp.asarray(packed[r0:r1])
        b = cp.asarray(packed[c0:c1])
        acc = cp.zeros((a.shape[0], b.shape[0]), dtype=cp.uint64)
        for w in range(a.shape[1]):
            acc ^= a[:, w, None] & b[None, :, w]
        for shift in (32, 16, 8, 4, 2, 1):
            acc ^= acc >> cp.uint64(shift)
        return cp.asnumpy(acc & cp.uint64(1)).astype(np.uint8)

    def lists_intersect_block(
        self,
        colmasks: np.ndarray,
        r0: int,
        r1: int,
        c0: int,
        c1: int,
        scratch=None,
    ) -> np.ndarray:
        cp = _cupy()
        a = cp.asarray(colmasks[r0:r1])
        b = cp.asarray(colmasks[c0:c1])
        out = cp.zeros((a.shape[0], b.shape[0]), dtype=cp.bool_)
        for w in range(a.shape[1]):
            out |= (a[:, w, None] & b[None, :, w]) != 0
        return cp.asnumpy(out)

    def lowest_set_bit_rows(self, masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.uint64)
        if masks.ndim != 2:
            raise ValueError(
                f"expected a 2-D bitset matrix, got shape {masks.shape}"
            )
        cp = _cupy()
        m = cp.asarray(masks)
        n, nwords = m.shape
        out = cp.full(n, -1, dtype=cp.int64)
        found = cp.zeros(n, dtype=cp.bool_)
        for w in range(nwords):
            col = m[:, w]
            hit = (col != 0) & ~found
            if not bool(hit.any()):
                continue
            # Exact: an isolated bit is a power of two, representable
            # in float64 for all 64 bit positions.  The maximum() floor
            # keeps log2 off zero rows; their lanes are discarded by
            # the where() below.
            iso = cp.maximum(col & (~col + cp.uint64(1)), cp.uint64(1))
            bits = cp.log2(iso.astype(cp.float64)).astype(cp.int64)
            out = cp.where(hit, 64 * w + bits, out)
            found = found | (col != 0)
        return cp.asnumpy(out)
