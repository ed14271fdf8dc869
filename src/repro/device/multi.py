"""Multi-device conflict-graph construction (paper future work, §VIII).

The paper's stated next step is "distributed multi-GPU parallel
implementations".  The natural decomposition is already in place: the
conflict kernel's domain is the upper-triangular tile grid, so ``k``
devices each own one contiguous strip of it
(:func:`repro.parallel.partition.partition_tiles`, balanced by pair
weight).  Each device sweeps its strip with the fused tile kernel
(:func:`repro.device.tiles.conflict_hits_strip`) into its own COO
buffer, bounded by its own budget after its tile scratch is charged;
the host folds the per-device key arrays — one chunk per device, in
strip order — straight into the shared sort-key assembly
(:func:`repro.graphs.csr.csr_from_coo_chunks`), the same path every
other build front uses: nothing is concatenated, and since the rows
depend on the edge set alone the result is bit-identical to a
single-device build of the same pair space.
(The cross-*host* analog of this decomposition lives in
:mod:`repro.distributed`.)

The aggregate capacity is the sum of the devices' budgets, so inputs
that overflow one device complete on several — the property the tests
pin down.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from repro.device.backends import resolve_backend
from repro.device.kernels import EdgeMaskFn
from repro.device.sim import DeviceOutOfMemory, DeviceSim
from repro.device.tiles import (
    MIN_TILE,
    TileScratch,
    conflict_hits_strip,
    tile_scratch_bytes,
)
from repro.graphs.csr import CSRGraph, csr_from_coo_chunks
from repro.parallel.partition import partition_tiles, tile_grid
from repro.util.bits import bitset_from_lists


@dataclass
class MultiBuildStats:
    """Per-device telemetry for a multi-device build."""

    n_vertices: int
    n_conflict_edges: int
    edges_per_device: list[int]
    peak_bytes_per_device: list[int]


def build_conflict_csr_multi(
    n: int,
    edge_mask_fn: EdgeMaskFn,
    col_lists: np.ndarray,
    palette_size: int,
    devices: list[DeviceSim],
) -> tuple[CSRGraph, MultiBuildStats]:
    """Build the conflict graph across several simulated devices.

    Each device holds a replica of the encoded inputs (the lists'
    packed bitsets, which its tile kernel ANDs), one tile scratch and a
    COO buffer sized to its remaining budget, and sweeps a contiguous
    strip of the tile grid.  All devices sweep the minimum tile
    (:data:`~repro.device.tiles.MIN_TILE` rows, fewer when ``n`` is
    smaller), so the strips' pair weights balance to within one
    ``64 x 64`` tile and every device charges the same small scratch.
    Raises :class:`DeviceOutOfMemory` naming the device whose strip
    overflowed.
    """
    if not devices:
        raise ValueError("need at least one device")
    tile = min(MIN_TILE, max(n, 1))
    grid = tile_grid(n, tile)
    blocks = partition_tiles(n, tile, len(devices), keep_empty=True)
    scratch = TileScratch(tile)
    backend = resolve_backend()

    chunks: list[np.ndarray] = []
    edges_per_device: list[int] = []
    id_bytes = 4 if n < 2**31 else 8
    colmasks = bitset_from_lists(col_lists, palette_size)

    for rank, (dev, block) in enumerate(zip(devices, blocks)):
        with ExitStack() as allocs:
            allocs.enter_context(dev.scratch("colmasks", int(colmasks.nbytes)))
            counter_bytes = 4 if n * n < 2**32 else 8
            allocs.enter_context(dev.scratch("edge_counters", 2 * n * counter_bytes))
            allocs.enter_context(
                dev.scratch("tile_scratch", tile_scratch_bytes(tile))
            )
            coo_bytes = dev.available
            allocs.enter_context(dev.scratch("coo_edges", coo_bytes))
            capacity = coo_bytes // (2 * id_bytes)
            keys = conflict_hits_strip(
                colmasks, grid[block.start : block.stop], edge_mask_fn,
                scratch=scratch, backend=backend,
            )
            if len(keys) > capacity:
                dev.n_ooms += 1
                raise DeviceOutOfMemory(
                    f"device {rank} ({dev.name}): tiles "
                    f"[{block.start}, {block.stop}) produced {len(keys)} "
                    f"conflict edges, more than its capacity {capacity}"
                )
        chunks.append(keys)
        edges_per_device.append(len(keys))

    # One key chunk per device: the same edge set a single-device (or
    # strip-parallel) sweep produces, so the CSR is bit-identical.
    graph = csr_from_coo_chunks(chunks, n)
    stats = MultiBuildStats(
        n_vertices=n,
        n_conflict_edges=int(sum(edges_per_device)),
        edges_per_device=edges_per_device,
        peak_bytes_per_device=[d.peak_bytes for d in devices],
    )
    return graph, stats
