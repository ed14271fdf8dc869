"""Host-path conflict-graph construction (Algorithm 1, line 7).

An edge ``(u, v)`` of the graph being colored is *conflicted* when the
candidate color lists of ``u`` and ``v`` intersect.  Only those edges
are materialized — the sparsity that gives Picasso its sublinear space
(Lemma 2).  The device path with budget accounting lives in
:mod:`repro.device.csr_build`; this host path shares the same kernels.

One sweep engine covers the pair space, with three plans
(:func:`repro.parallel.pool.sweep_plan`):

- the tile sweep of :mod:`repro.device.tiles`: each ``(row_block,
  col_block)`` tile loads its operand slices once and evaluates the
  fused intersect-then-edge kernel as a word broadcast.  No flat-index
  inversion, no quadratic row gather;
- the inverted palette index of :mod:`repro.device.palette_index`,
  when the exact count of color-sharing candidate pairs makes
  enumerating them cheaper than testing every pair;
- the ``rows`` plan, when every pair shares a color (``L = P``, the
  Aggressive preset below about 10k active vertices): it skips the
  palette test and sweeps row strips of the block oracle, whose hits
  arrive in the CSR's key order.

Every plan runs through an execution backend
(:mod:`repro.parallel.executor`): serial in-process streaming, or a
process pool that sweeps balanced contiguous strips of the domain and
gathers results in deterministic strip order.  Every path emits its
hits as CSR keys (:func:`repro.graphs.csr.key_layout`) into the same
sort-key CSR assembly (:func:`repro.graphs.csr.csr_from_coo_chunks`),
whose rows depend on the edge set alone, so serial and parallel builds
are bit-identical per seed.

A host Picasso iteration on a Pauli input (serial, pool or cluster)
calls :func:`bucket_conflict_state`, which builds no graph; the
driver's other iterations call :func:`build_fused_conflict_state`,
which returns the conflicted sub-CSR directly.
:func:`build_conflict_graph` returns the full-width graph, the public
API and the tests' differential reference.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.device.palette_index import BucketQuery, PaletteIndex
from repro.device.tiles import DEFAULT_TILE_BYTES, EdgeBlockFn
from repro.graphs.csr import CSRGraph, key_pairs
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
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    n_workers: int = 1,
    executor: str | Executor = "auto",
    source=None,
    active_idx: np.ndarray | None = None,
    hosts=None,
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
    edge_block_fn:
        Optional block edge oracle (dense tiles then skip the pairwise
        survivor gather entirely; required by the ``rows`` plan).
    tile_bytes:
        Per-tile scratch budget for the tile sweep.
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
    hosts:
        Worker-agent addresses for the distributed backend (spec
        ``"cluster"``, or ``"auto"`` with hosts set; see
        :mod:`repro.distributed`).  Sharded builds stay bit-identical
        to serial — strips merge in canonical order.
    kernel_backend:
        Kernel-backend *name* for the tile sweep's palette
        intersection (:func:`repro.device.backends.resolve_backend`;
        ``None`` is the environment's choice, numpy by default).
        Bit-identical across backends.

    Returns the CSR conflict graph and the conflict-edge count.
    """
    with owned_executor(executor, n_workers, hosts=hosts) as ex:
        return gathered_conflict_csr(
            n, edge_mask_fn, col_lists, palette_size, edge_block_fn,
            tile_bytes=tile_bytes, executor=ex,
            source=source, active_idx=active_idx, kernel_backend=kernel_backend,
        )


def build_fused_conflict_state(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    n_workers: int = 1,
    executor: str | Executor = "auto",
    source=None,
    active_idx: np.ndarray | None = None,
    hosts=None,
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
    with owned_executor(executor, n_workers, hosts=hosts) as ex:
        return fused_conflict_csr(
            n, edge_mask_fn, col_lists, palette_size, edge_block_fn,
            tile_bytes=tile_bytes, executor=ex,
            source=source, active_idx=active_idx, timings=timings,
            kernel_backend=kernel_backend,
        )


def bucket_conflict_state(
    n: int, edge_mask_fn, col_lists: np.ndarray, palette_size: int, **sweep_kw,
) -> tuple[BucketQuery, np.ndarray]:
    """The conflicted ids of :func:`build_fused_conflict_state`, detected on
    the palette index, and the bucket query Algorithm 2 runs on, with no graph.
    Sparse conflicts are marked by the palette sweep (``sweep_kw`` as for
    :func:`count_conflict_edges`), whose block oracle beats pairwise tests."""
    def swept() -> np.ndarray:
        hit = np.zeros(n, dtype=bool)
        count_conflict_edges(n, edge_mask_fn, col_lists, palette_size, hit=hit, **sweep_kw)
        return hit

    index = PaletteIndex(col_lists)
    hit, tests = index.conflicted(edge_mask_fn, swept)
    telemetry.count("conflict.detect_tests", float(tests))
    conflicted = np.flatnonzero(hit)
    return BucketQuery(index, conflicted, edge_mask_fn), conflicted


def count_conflict_edges(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    n_workers: int = 1,
    executor: str | Executor = "auto",
    hosts=None,
    kernel_backend: str | None = None,
    hit: np.ndarray | None = None,
    source=None,
    active_idx: np.ndarray | None = None,
) -> int:
    """Conflict-edge count without materializing the graph (parameter
    sweeps, Fig. 5's ``max |Ec|`` heatmap, detection's sweep); sets
    ``hit`` at both ends of every edge when given.  ``source`` and
    ``active_idx`` as for :func:`build_conflict_graph`."""
    with owned_executor(executor, n_workers, hosts=hosts) as ex:
        total = 0
        for keys in conflict_sweep_chunks(
            n, edge_mask_fn, col_lists, palette_size, edge_block_fn,
            tile_bytes=tile_bytes, executor=ex, source=source,
            active_idx=active_idx, kernel_backend=kernel_backend,
        ):
            total += len(keys)
            if hit is not None:
                i, j = key_pairs(keys, n)
                hit[i] = hit[j] = True
        return total
