"""Host-path conflict-graph construction (Algorithm 1, line 7).

An edge ``(u, v)`` of the graph being colored is *conflicted* when the
candidate color lists of ``u`` and ``v`` intersect.  Only those edges
are materialized — the sparsity that gives Picasso its sublinear space
(Lemma 2).  The device path with budget accounting lives in
:mod:`repro.device.csr_build`; this host path shares the same kernels.

Two sweep engines cover the pair space:

- ``"tiled"`` (default) — the block-broadcast engine of
  :mod:`repro.device.tiles`: each ``(row_block, col_block)`` tile loads
  its operand slices once and evaluates the fused intersect-then-edge
  kernel as a word broadcast.  No flat-index inversion, no quadratic
  row gather.  When the exact count of color-sharing candidate pairs
  makes it cheaper, a sweep enumerates through the inverted palette
  index of :mod:`repro.device.palette_index` instead of testing every
  pair; when every pair shares a color (``L = P``, the Aggressive
  preset below about 10k active vertices) it skips the palette test
  and sweeps row strips of the block oracle, whose hits arrive in the
  CSR's key order (:func:`repro.parallel.pool.sweep_plan`).
- ``"pairs"`` — the original flat pair-chunk engine (one simulated SIMT
  thread per pair, operand rows gathered per pair).  Kept as the
  ablation baseline; produces the identical conflict graph.

Both engines run through an execution backend
(:mod:`repro.parallel.executor`): serial in-process streaming, or a
process pool that sweeps balanced contiguous strips of the domain and
gathers results in deterministic strip order.  Every path emits its
hits as CSR keys (:func:`repro.graphs.csr.key_layout`) into the same
sort-key CSR assembly (:func:`repro.graphs.csr.csr_from_coo_chunks`),
whose rows depend on the edge set alone, so serial and parallel builds
are bit-identical per seed.

The Picasso driver calls :func:`build_fused_conflict_state`, which
returns the conflicted sub-CSR directly.  :func:`build_conflict_graph`
returns the full-width graph: the public API and the differential
reference the tests compare the driver's build against.
"""

from __future__ import annotations

import numpy as np

from repro.device.tiles import DEFAULT_TILE_BYTES, EdgeBlockFn
from repro.graphs.csr import CSRGraph
from repro.parallel.executor import Executor, owned_executor
from repro.parallel.pool import (
    conflict_sweep_chunks,
    fused_conflict_csr,
    gathered_conflict_csr,
)


def build_conflict_graph(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    chunk_size: int = 1 << 18,
    engine: str = "tiled",
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    n_workers: int = 1,
    executor: str | Executor = "auto",
    source=None,
    active_idx: np.ndarray | None = None,
    hosts=None,
    transport: str = "socket",
    kernel_backend: str | None = None,
) -> tuple[CSRGraph, int]:
    """Build the conflict graph over ``n`` active vertices on the host.

    Parameters
    ----------
    n, edge_mask_fn:
        Active vertex count, pairwise edge oracle.
    col_lists, palette_size:
        ``(n, L)`` candidate lists, each row ``L`` distinct colors of
        the palette ``{0..palette_size-1}``.
    chunk_size:
        Pairs per launch for the ``"pairs"`` engine.
    engine:
        ``"tiled"`` (block-broadcast sweep) or ``"pairs"`` (flat
        pair-chunk gather sweep, the ablation baseline).
    edge_block_fn:
        Optional block edge oracle for the tiled engine (dense tiles
        then skip the pairwise survivor gather entirely).
    tile_bytes:
        Per-tile scratch budget for the tiled engine.
    n_workers:
        Worker processes for the sweep (1 = serial streaming).
    executor:
        Backend spec (``"auto"``/``"serial"``/``"pool"``) or an
        :class:`~repro.parallel.executor.Executor` instance.  With a
        pool backend the edge oracle and the sweep plan ship once per
        worker and the strip results are gathered in deterministic
        order, so the built CSR is bit-identical to the serial one.
        A spec-created backend is closed before returning; a passed
        instance stays open for its owner (executor lifecycle
        contract).
    source, active_idx:
        Root edge source and active-vertex indices for the
        persistent-pool delta payload (see
        :mod:`repro.parallel.pool`).
    hosts, transport:
        Worker-agent addresses and wire protocol for the distributed
        backend (spec ``"cluster"``, or ``"auto"`` with hosts set; see
        :mod:`repro.distributed`).  Sharded builds stay bit-identical
        to serial — strips merge in canonical order.
    kernel_backend:
        Kernel-backend *name* (:mod:`repro.device.backends`) for the
        sweep's hot kernels; ``None`` runs the direct numpy path.
        Resolved worker-side, bit-identical across backends.

    Returns the CSR conflict graph and the conflict-edge count.
    """
    with owned_executor(
        executor, n_workers, hosts=hosts, transport=transport
    ) as ex:
        return gathered_conflict_csr(
            n, edge_mask_fn, col_lists, palette_size, chunk_size, engine,
            edge_block_fn, tile_bytes=tile_bytes, executor=ex,
            source=source, active_idx=active_idx, kernel_backend=kernel_backend,
        )


def build_fused_conflict_state(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    chunk_size: int = 1 << 18,
    engine: str = "tiled",
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    n_workers: int = 1,
    executor: str | Executor = "auto",
    source=None,
    active_idx: np.ndarray | None = None,
    hosts=None,
    transport: str = "socket",
    timings: dict | None = None,
    kernel_backend: str | None = None,
) -> tuple[CSRGraph, np.ndarray, int]:
    """The conflict build of every host Picasso iteration: returns the
    conflicted-subgraph CSR, the conflict vertex ids and the edge count
    in one pass, without the full-width graph (see
    :func:`repro.parallel.pool.fused_conflict_csr`).  Bit-identical
    state to :func:`build_conflict_graph` followed by a degree scan and
    ``induced_subgraph``, on every backend.  Parameters as for
    :func:`build_conflict_graph`, plus ``timings`` (a dict accumulating
    the ``sweep_s`` / ``assemble_s`` phase buckets).
    """
    with owned_executor(
        executor, n_workers, hosts=hosts, transport=transport
    ) as ex:
        return fused_conflict_csr(
            n, edge_mask_fn, col_lists, palette_size, chunk_size, engine,
            edge_block_fn, tile_bytes=tile_bytes, executor=ex,
            source=source, active_idx=active_idx, timings=timings,
            kernel_backend=kernel_backend,
        )


def count_conflict_edges(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    chunk_size: int = 1 << 18,
    engine: str = "tiled",
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    n_workers: int = 1,
    executor: str | Executor = "auto",
    hosts=None,
    transport: str = "socket",
    kernel_backend: str | None = None,
) -> int:
    """Conflict-edge count without materializing the graph (parameter
    sweeps, Fig. 5's ``max |Ec|`` heatmap)."""
    with owned_executor(
        executor, n_workers, hosts=hosts, transport=transport
    ) as ex:
        total = 0
        for keys in conflict_sweep_chunks(
            n, edge_mask_fn, col_lists, palette_size, chunk_size, engine,
            edge_block_fn, tile_bytes=tile_bytes, executor=ex,
            kernel_backend=kernel_backend,
        ):
            total += len(keys)
        return total
