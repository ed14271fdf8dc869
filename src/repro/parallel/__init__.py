"""Parallel execution substrate (paper §I's parallel implementation).

Three layers: partitioners slice the pair/tile domain
(:mod:`repro.parallel.partition`), execution backends run task lists
over persistent workers and stream their results back in task order
(:mod:`repro.parallel.executor`), and the sweep dispatcher wires kernels
to backends (:mod:`repro.parallel.pool`).
"""

from repro.parallel.executor import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    default_start_method,
    make_executor,
    pin_current_worker,
)
from repro.parallel.partition import (
    PairRange,
    TileBlock,
    block_pair_count,
    partition_pairs,
    partition_tiles,
    tile_grid,
)
from repro.parallel.pool import (
    block_sweep_chunks,
    conflict_sweep_chunks,
    parallel_conflict_graph,
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
    "PairRange",
    "TileBlock",
    "block_pair_count",
    "partition_pairs",
    "partition_tiles",
    "tile_grid",
    "block_sweep_chunks",
    "conflict_sweep_chunks",
    "parallel_conflict_graph",
]
