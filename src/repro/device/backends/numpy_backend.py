"""The numpy reference backend: the default, and the bit-identity oracle.

Thin delegation to the vectorized kernels —
:func:`repro.device.tiles.lists_intersect_block` and
:func:`repro.util.bits.lowest_set_bit_rows` *are* this backend, so
selecting ``kernel_backend="numpy"`` (or selecting nothing at all)
runs byte-for-byte the code the suite tests directly.  Every other
backend is validated against this one.
"""

from __future__ import annotations

import numpy as np

from repro.device import tiles
from repro.device.backends.base import KernelBackend, register_backend
from repro.util import bits

__all__ = ["NumpyBackend"]


@register_backend
class NumpyBackend(KernelBackend):
    """Vectorized uint64 kernels on the host (the shipped default)."""

    name = "numpy"

    def lists_intersect_block(
        self,
        colmasks: np.ndarray,
        r0: int,
        r1: int,
        c0: int,
        c1: int,
        scratch=None,
    ) -> np.ndarray:
        return tiles.lists_intersect_block(colmasks, r0, r1, c0, c1, scratch)

    def lowest_set_bit_rows(self, masks: np.ndarray) -> np.ndarray:
        return bits.lowest_set_bit_rows(masks)
