"""Multi-device conflict-graph construction (paper future work, §VIII).

The paper's stated next step is "distributed multi-GPU parallel
implementations".  The natural decomposition is already in place: the
conflict kernel's domain is the flat pair range, so ``k`` devices each
own a contiguous 1/k slice of pair space.  Each device streams its
slice into its own COO buffer (bounded by its own budget); the host
folds the per-device partial edge lists — one COO chunk per device, in
slice order — straight into the shared sort-key assembly
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

from dataclasses import dataclass

import numpy as np

from repro.device.kernels import EdgeMaskFn, conflict_pair_kernel
from repro.device.sim import DeviceOutOfMemory, DeviceSim
from repro.graphs.csr import CSRGraph, csr_from_coo_chunks
from repro.parallel.partition import partition_pairs
from repro.util.bits import bitset_from_lists
from repro.util.chunking import pair_index_to_ij


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
    chunk_size: int = 1 << 18,
) -> tuple[CSRGraph, MultiBuildStats]:
    """Build the conflict graph across several simulated devices.

    Each device holds a replica of the encoded inputs (the lists'
    packed bitsets, which its pair kernel ANDs) plus a COO buffer sized
    to its remaining budget, and scans a contiguous slice of pair space.  Raises :class:`DeviceOutOfMemory` naming the
    device whose slice overflowed.
    """
    if not devices:
        raise ValueError("need at least one device")
    ranges = partition_pairs(n, len(devices))
    # partition_pairs drops empty ranges; align by padding.
    while len(ranges) < len(devices):
        from repro.parallel.partition import PairRange

        ranges.append(PairRange(0, 0))

    chunks: list[tuple[np.ndarray, np.ndarray]] = []
    edges_per_device: list[int] = []
    id_bytes = 4 if n < 2**31 else 8
    id_dtype = np.int32 if id_bytes == 4 else np.int64
    colmasks = bitset_from_lists(col_lists, palette_size)

    for rank, (dev, rng) in enumerate(zip(devices, ranges)):
        dev.alloc("colmasks", int(colmasks.nbytes))
        counter_bytes = 4 if n * n < 2**32 else 8
        dev.alloc("edge_counters", 2 * n * counter_bytes)
        coo_bytes = dev.available
        dev.alloc("coo_edges", coo_bytes)
        capacity = coo_bytes // (2 * id_bytes)
        u_buf = np.empty(capacity, dtype=id_dtype)
        v_buf = np.empty(capacity, dtype=id_dtype)
        filled = 0
        try:
            for start in range(rng.start, rng.stop, chunk_size):
                stop = min(start + chunk_size, rng.stop)
                k = np.arange(start, stop, dtype=np.int64)
                i, j = pair_index_to_ij(k, n)
                mask = conflict_pair_kernel(edge_mask_fn, colmasks, i, j).astype(
                    bool
                )
                ei, ej = i[mask], j[mask]
                if filled + len(ei) > capacity:
                    dev.n_ooms += 1
                    raise DeviceOutOfMemory(
                        f"device {rank} ({dev.name}): slice "
                        f"[{rng.start}, {rng.stop}) produced more than "
                        f"{capacity} conflict edges"
                    )
                u_buf[filled : filled + len(ei)] = ei
                v_buf[filled : filled + len(ej)] = ej
                filled += len(ei)
        finally:
            dev.free("coo_edges")
            dev.free("edge_counters")
            dev.free("colmasks")
        chunks.append((u_buf[:filled].copy(), v_buf[:filled].copy()))
        edges_per_device.append(filled)

    # One COO chunk per device: the same edge set a single-device (or
    # strip-parallel) sweep produces, so the CSR is bit-identical.
    graph = csr_from_coo_chunks(chunks, n)
    stats = MultiBuildStats(
        n_vertices=n,
        n_conflict_edges=int(sum(edges_per_device)),
        edges_per_device=edges_per_device,
        peak_bytes_per_device=[d.peak_bytes for d in devices],
    )
    return graph, stats
