"""Multi-device conflict-graph construction (paper future work, §VIII).

The paper's stated next step is "distributed multi-GPU parallel
implementations".  The natural decomposition is already in place: the
conflict kernel's domain is the upper triangle of pair space, so ``k``
devices each own one contiguous row range of it, cut to equal pair
weight (:func:`repro.device.palette_index.pair_blocks`).  Each device
sweeps its range in row strips (:func:`repro.device.tiles.sweep_strips`)
into its own COO buffer, bounded by its own budget after its strip
scratch is charged; the host folds the per-device key arrays — one
chunk per device, in range order — straight into the shared sort-key
assembly (:func:`repro.graphs.csr.csr_from_coo_chunks`), the same path
every other build front uses: nothing is concatenated, and since the
rows depend on the edge set alone the result is bit-identical to a
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

from repro.device.kernels import EdgeMaskFn
from repro.device.palette_index import all_pairs_share, pair_blocks
from repro.device.sim import DeviceOutOfMemory, DeviceSim
from repro.device.tiles import concat_hits, strip_scratch, sweep_strips
from repro.graphs.csr import CSRGraph, csr_from_coo_chunks
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
    packed bitsets, which its strips AND), one strip scratch and a COO
    buffer sized to its remaining budget, and sweeps a contiguous row
    range of about ``1/k`` of the pairs (empty ranges stay in place, so
    device ``k`` always owns range ``k``).  Raises
    :class:`DeviceOutOfMemory` naming the device whose range
    overflowed.
    """
    if not devices:
        raise ValueError("need at least one device")
    ranges, _ = pair_blocks(n, len(devices), [1] * len(devices))
    colmasks = (
        None if all_pairs_share(col_lists, palette_size)
        else bitset_from_lists(col_lists, palette_size)
    )

    chunks: list[np.ndarray] = []
    edges_per_device: list[int] = []
    id_bytes = 4 if n < 2**31 else 8

    for rank, (dev, (a, b)) in enumerate(zip(devices, ranges)):
        with ExitStack() as allocs:
            allocs.enter_context(
                dev.scratch("colmasks", 8 * n * -(-palette_size // 64))
            )
            counter_bytes = 4 if n * n < 2**32 else 8
            allocs.enter_context(dev.scratch("edge_counters", 2 * n * counter_bytes))
            height, scratch = strip_scratch(n, dev.available)
            allocs.enter_context(dev.scratch("strip_scratch", scratch))
            coo_bytes = dev.available
            allocs.enter_context(dev.scratch("coo_edges", coo_bytes))
            capacity = coo_bytes // (2 * id_bytes)
            keys = concat_hits(sweep_strips(
                n, height, a, b, colmasks=colmasks, edge_mask_fn=edge_mask_fn,
            ), n)
            if len(keys) > capacity:
                dev.n_ooms += 1
                raise DeviceOutOfMemory(
                    f"device {rank} ({dev.name}): rows [{a}, {b}) produced "
                    f"{len(keys)} conflict edges, more than its capacity "
                    f"{capacity}"
                )
        chunks.append(keys)
        edges_per_device.append(len(keys))

    # One key chunk per device: the same edge set a single-device (or
    # range-parallel) sweep produces, so the CSR is bit-identical.
    graph = csr_from_coo_chunks(chunks, n)
    stats = MultiBuildStats(
        n_vertices=n,
        n_conflict_edges=int(sum(edges_per_device)),
        edges_per_device=edges_per_device,
        peak_bytes_per_device=[d.peak_bytes for d in devices],
    )
    return graph, stats
