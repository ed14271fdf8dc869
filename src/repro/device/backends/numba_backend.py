"""Compiled CPU backend: ``@njit(cache=True)`` loops over uint64 words
for the two kernels of :class:`~repro.device.backends.KernelBackend`.

The numpy kernels pay for generality with broadcast temporaries — the
``(R, C)`` word-AND buffer makes a full write+read round trip per word
column, and the lowest-set-bit scan detours through ``log2`` on
float64.  The compiled kernels replace those with explicit loops that
keep the accumulator in a register:

- **intersect** — early-``break`` on the first nonzero word AND; the
  numpy path always touches every word column.
- **lowest set bit** — find the first nonzero word, then shift out
  trailing zeros; no float round trip.

This module imports cleanly **without numba installed**:
``is_available()`` probes the import, compilation is deferred to the
first kernel call, and :func:`~repro.device.backends.resolve_backend`
degrades to numpy (with a stderr note) when the probe fails.  With
``cache=True`` the compiled machine code persists across processes, so
pool workers pay the compile once per machine, not once per spawn.
"""

from __future__ import annotations

import numpy as np

from repro.device.backends.base import KernelBackend, register_backend

__all__ = ["NumbaBackend"]

_AVAILABLE: bool | None = None

# (anybit, lsb) compiled dispatchers, built on first use.
_KERNELS: tuple | None = None


def _anybit_block_loops(a, b):
    R, W = a.shape
    C = b.shape[0]
    out = np.empty((R, C), dtype=np.bool_)
    for i in range(R):
        for j in range(C):
            hit = False
            for w in range(W):
                if a[i, w] & b[j, w]:
                    hit = True
                    break
            out[i, j] = hit
    return out


def _lowest_set_bit_rows_loops(masks):
    n, W = masks.shape
    out = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        for w in range(W):
            word = masks[i, w]
            if word != np.uint64(0):
                bit = 64 * w
                while (word & np.uint64(1)) == np.uint64(0):
                    word >>= np.uint64(1)
                    bit += 1
                out[i] = bit
                break
    return out


def _kernels() -> tuple:
    """Compile (lazily, once per process) and return the dispatchers."""
    global _KERNELS
    if _KERNELS is None:
        import numba

        jit = numba.njit(cache=True)
        _KERNELS = (
            jit(_anybit_block_loops),
            jit(_lowest_set_bit_rows_loops),
        )
    return _KERNELS


@register_backend
class NumbaBackend(KernelBackend):
    """Compiled uint64 loop kernels (lazy ``@njit(cache=True)``)."""

    name = "numba"

    @classmethod
    def is_available(cls) -> bool:
        global _AVAILABLE
        if _AVAILABLE is None:
            try:
                import numba  # noqa: F401

                _AVAILABLE = True
            except ImportError:
                _AVAILABLE = False
        return _AVAILABLE

    def lists_intersect_block(
        self,
        colmasks: np.ndarray,
        r0: int,
        r1: int,
        c0: int,
        c1: int,
        scratch=None,
    ) -> np.ndarray:
        # The compiled kernel keeps its accumulator in registers;
        # ``scratch`` (the numpy path's tile buffers) is ignored.
        anybit, _ = _kernels()
        colmasks = np.asarray(colmasks, dtype=np.uint64)
        return anybit(colmasks[r0:r1], colmasks[c0:c1])

    def lowest_set_bit_rows(self, masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.uint64)
        if masks.ndim != 2:
            raise ValueError(
                f"expected a 2-D bitset matrix, got shape {masks.shape}"
            )
        _, lsb = _kernels()
        return lsb(np.ascontiguousarray(masks))
