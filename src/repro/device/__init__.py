"""Device simulator substrate (paper §V, Algorithm 3).

A memory-budgeted accelerator model: vectorized NumPy kernels play the
role of SIMT thread blocks, and every buffer is accounted against a
byte budget so OOM behaviour and the device-vs-host CSR build choice
reproduce the paper's control flow.  Every kernel is a numpy one; there
is no compiled-backend switch.
"""

from repro.device.csr_build import BuildStats, build_conflict_csr
from repro.device.multi import MultiBuildStats, build_conflict_csr_multi
from repro.device.kernels import (
    conflict_pair_kernel_python,
    exclusive_scan,
    lists_intersect_kernel,
    lists_intersect_sorted,
)
from repro.device.sim import (
    DEFAULT_BUDGET_BYTES,
    Allocation,
    DeviceOutOfMemory,
    DeviceSim,
)
from repro.device.tiles import (
    SCRATCH_BYTES_PER_PAIR,
    STRIP_BYTES,
    count_block_hits,
    strip_height,
    strip_keys,
    sweep_strips,
)

__all__ = [
    "BuildStats",
    "build_conflict_csr",
    "MultiBuildStats",
    "build_conflict_csr_multi",
    "conflict_pair_kernel_python",
    "exclusive_scan",
    "lists_intersect_kernel",
    "lists_intersect_sorted",
    "DEFAULT_BUDGET_BYTES",
    "Allocation",
    "DeviceOutOfMemory",
    "DeviceSim",
    "SCRATCH_BYTES_PER_PAIR",
    "STRIP_BYTES",
    "count_block_hits",
    "strip_height",
    "strip_keys",
    "sweep_strips",
]
