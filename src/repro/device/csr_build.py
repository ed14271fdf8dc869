"""Algorithm 3: device-assisted conflict-graph construction in CSR form.

Faithful to the paper's control flow:

1. allocate ``min(worst-case edge list, remaining device memory)`` for
   the unordered COO buffer (line 1–2);
2. launch the conflict kernel — the ``rows`` strip sweep, as the
   paper's GPU kernel sweeps every pair, whose per-worker strip scratch
   is reserved ahead of the COO buffer — to fill the COO edge list and
   per-vertex degree counters (line 3); overflowing the COO buffer, or
   a budget that cannot hold one row per worker, is a device OOM, the
   failure mode Fig. 2's dashed line delimits;
3. exclusive-scan the counters into CSR offsets (line 4);
4. if the COO list fits in half the *allocated* memory, assemble CSR
   "on device", otherwise fall back to host assembly (lines 5–8) —
   CSR stores each edge twice, hence the factor of two.

Counters are 4-byte when ``|V|^2 < 2^32`` and 8-byte otherwise, exactly
as §V describes.
"""

from __future__ import annotations

from contextlib import ExitStack, closing
from dataclasses import dataclass

import numpy as np

from repro.device.kernels import EdgeMaskFn, exclusive_scan
from repro.device.sim import DeviceOutOfMemory, DeviceSim
from repro.device.tiles import EdgeBlockFn, strip_scratch
from repro.graphs.csr import CSRGraph, key_pairs
from repro.parallel.executor import Executor, owned_executor
from repro.parallel.pool import conflict_sweep_chunks


@dataclass
class BuildStats:
    """Where and how big the Algorithm 3 build was."""

    n_vertices: int
    n_conflict_edges: int
    built_on_device: bool
    device_peak_bytes: int
    coo_capacity_edges: int
    n_workers: int = 1


def build_conflict_csr(
    n: int,
    edge_mask_fn: EdgeMaskFn,
    col_lists: np.ndarray,
    palette_size: int,
    device: DeviceSim,
    edge_block_fn: EdgeBlockFn | None = None,
    n_workers: int = 1,
    executor: str | Executor = "auto",
    source=None,
    active_idx=None,
) -> tuple[CSRGraph, BuildStats]:
    """Run Algorithm 3 on a simulated device.

    Parameters
    ----------
    n:
        Number of active vertices.
    edge_mask_fn:
        Complement-edge oracle over pair index arrays.
    col_lists, palette_size:
        ``(n, L)`` candidate lists over ``{0..palette_size-1}``; the
        device sweep ANDs (and is charged for) their packed bitsets.
    device:
        Budgeted device; raises :class:`DeviceOutOfMemory` when the COO
        buffer cannot hold the conflict edges.  The strip sweep's
        scratch is a named device allocation sized against the
        remaining budget *before* the COO buffer takes the rest; a
        budget that cannot hold one row per worker raises too.
    edge_block_fn:
        Optional block edge oracle (its block temporaries are charged
        alongside the strip scratch); without it the strips test their
        palette survivors through ``edge_mask_fn``.
    n_workers:
        Worker processes for the sweep; every worker owns a private
        strip scratch, so the device is charged ``n_workers`` times the
        per-strip scratch (a multi-SM kernel reserves shared memory per
        resident block the same way).
    executor:
        Backend spec or instance (see :mod:`repro.parallel.executor`).
        A spec-created backend is closed before returning; a passed
        instance stays open for its owner.
    source, active_idx:
        Root edge source + active indices for the persistent-pool
        delta payload (:mod:`repro.parallel.pool`).

    Returns
    -------
    (graph, stats):
        The conflict graph in CSR form plus build provenance.
    """
    with owned_executor(executor, n_workers) as ex:
        return _algorithm3(
            n, edge_mask_fn, col_lists, palette_size, device, edge_block_fn,
            ex, source, active_idx,
        )


def _algorithm3(
    n, edge_mask_fn, col_lists, palette_size, device, edge_block_fn,
    ex, source, active_idx,
) -> tuple[CSRGraph, BuildStats]:
    """Algorithm 3 proper, against an already-resolved executor."""
    workers = max(1, ex.n_workers)

    # All build allocations go through DeviceSim.scratch on one
    # ExitStack — the same named-allocation discipline the coloring
    # engines use for their palette scratch — so every buffer is freed
    # exactly once whether the build completes or aborts mid-stream.
    with ExitStack() as allocs:
        # Input residency: encoded strings + color lists live on device
        # for the kernel (approximated by the packed bitset bytes the
        # palette test ANDs; the Pauli payload is charged by the
        # caller, which owns its lifetime).
        allocs.enter_context(
            device.scratch("colmasks", 8 * n * -(-palette_size // 64))
        )

        # Degree counters: 4-byte if |V|^2 < 2^32 else 8-byte (§V).
        counter_bytes = 4 if n * n < 2**32 else 8
        allocs.enter_context(
            device.scratch("edge_counters", 2 * n * counter_bytes)
        )

        height, scratch = strip_scratch(
            n, device.available, workers, edge_block_fn is not None
        )
        allocs.enter_context(device.scratch("strip_scratch", scratch))

        # COO buffer: min(worst case, all remaining memory).  Each COO
        # entry is two vertex ids.
        id_bytes = 4 if n < 2**31 else 8
        worst_case_bytes = 2 * n * max(n - 1, 0) * id_bytes
        coo_bytes = min(worst_case_bytes, device.available)
        allocs.enter_context(device.scratch("coo_edges", coo_bytes))
        capacity = coo_bytes // (2 * id_bytes)

        id_dtype = np.int32 if id_bytes == 4 else np.int64
        coo_u = np.empty(capacity, dtype=id_dtype)
        coo_v = np.empty(capacity, dtype=id_dtype)
        n_edges = 0
        with closing(conflict_sweep_chunks(
            n, edge_mask_fn, col_lists, palette_size, edge_block_fn,
            height=height, executor=ex, source=source, active_idx=active_idx,
        )) as hit_stream:
            # The sweep's CSR keys are decoded into the two-id COO
            # buffer the paper's Algorithm 3 charges.  Closing the
            # stream on overflow unwinds the executor's sweep now, not
            # at garbage collection.
            for keys in hit_stream:
                if n_edges + len(keys) > capacity:
                    device.n_ooms += 1
                    raise DeviceOutOfMemory(
                        f"COO buffer overflow: {n_edges + len(keys)} "
                        f"conflict edges exceed capacity {capacity}"
                    )
                end = n_edges + len(keys)
                coo_u[n_edges:end], coo_v[n_edges:end] = key_pairs(keys, n)
                n_edges = end

        # Degree counters in one pass over the filled COO region —
        # O(|Ec| + n), independent of how many kernel launches fed it.
        counts = np.bincount(coo_u[:n_edges], minlength=n)
        counts += np.bincount(coo_v[:n_edges], minlength=n)
        offsets = exclusive_scan(counts)

        # CSR needs each edge twice; assemble on device only if the COO
        # list occupies at most half of the *allocated* region (Alg. 3
        # line 5) — the CSR targets are then scattered into the spare
        # half of the same allocation, so no further device memory is
        # requested.  Otherwise the unordered list is read back and
        # converted on the host (lines 7-8).
        csr_payload = 2 * n_edges * id_bytes
        on_device = csr_payload <= coo_bytes // 2
        graph = _assemble_csr(
            offsets, coo_u[:n_edges], coo_v[:n_edges], id_dtype
        )

    stats = BuildStats(
        n_vertices=n,
        n_conflict_edges=n_edges,
        built_on_device=on_device,
        device_peak_bytes=device.peak_bytes,
        coo_capacity_edges=int(capacity),
        n_workers=workers,
    )
    return graph, stats


def _assemble_csr(
    offsets: np.ndarray, u: np.ndarray, v: np.ndarray, id_dtype
) -> CSRGraph:
    """Scatter the unordered COO list into CSR rows (both directions)."""
    src = np.concatenate([u, v]).astype(np.int64)
    dst = np.concatenate([v, u]).astype(id_dtype)
    order = np.argsort(src, kind="stable")
    return CSRGraph(offsets=offsets, targets=dst[order])
