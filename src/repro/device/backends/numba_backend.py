"""Compiled CPU backend: an ``@njit(cache=True)`` loop over uint64
words for the kernel of :class:`~repro.device.backends.KernelBackend`.

The numpy lowest-set-bit scan detours through ``log2`` on float64.  The
compiled kernel finds the first nonzero word, then shifts out trailing
zeros, with no float round trip.

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

# The compiled lowest-set-bit dispatcher, built on first use.
_LSB = None


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


def _kernel():
    """Compile (lazily, once per process) and return the dispatcher."""
    global _LSB
    if _LSB is None:
        import numba

        _LSB = numba.njit(cache=True)(_lowest_set_bit_rows_loops)
    return _LSB


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

    def lowest_set_bit_rows(self, masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.uint64)
        if masks.ndim != 2:
            raise ValueError(
                f"expected a 2-D bitset matrix, got shape {masks.shape}"
            )
        return _kernel()(np.ascontiguousarray(masks))
