"""Parallel execution substrate (paper §I's parallel implementation).

Two layers: execution backends run task lists over persistent workers
and stream their results back in task order
(:mod:`repro.parallel.executor`), and the sweep dispatcher cuts each
sweep into row ranges and wires its kernels to a backend
(:mod:`repro.parallel.pool`).
"""

from repro.parallel.executor import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    default_start_method,
    make_executor,
    pin_current_worker,
)
from repro.parallel.pool import (
    block_sweep_chunks,
    conflict_sweep_chunks,
    payload_token_for,
)

__all__ = [
    "Executor",
    "PoolExecutor",
    "SerialExecutor",
    "default_start_method",
    "make_executor",
    "pin_current_worker",
    "payload_token_for",
    "block_sweep_chunks",
    "conflict_sweep_chunks",
]
