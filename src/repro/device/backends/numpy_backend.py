"""The numpy reference backend: the default, and the bit-identity oracle.

Thin delegation to the vectorized kernel —
:func:`repro.util.bits.lowest_set_bit_rows` *is* this backend, so
selecting ``kernel_backend="numpy"`` (or selecting nothing at all)
runs byte-for-byte the code the suite tests directly.  Every other
backend is validated against this one.
"""

from __future__ import annotations

import numpy as np

from repro.device.backends.base import KernelBackend, register_backend
from repro.util import bits

__all__ = ["NumpyBackend"]


@register_backend
class NumpyBackend(KernelBackend):
    """Vectorized uint64 kernels on the host (the shipped default)."""

    name = "numpy"

    def lowest_set_bit_rows(self, masks: np.ndarray) -> np.ndarray:
        return bits.lowest_set_bit_rows(masks)
