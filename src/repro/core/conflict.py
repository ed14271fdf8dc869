"""Host-path conflict-graph construction (Algorithm 1, line 7).

An edge ``(u, v)`` of the graph being colored is *conflicted* when the
candidate color lists of ``u`` and ``v`` intersect.  Only those edges
are materialized — the sparsity that gives Picasso its sublinear space
(Lemma 2).  The device path with budget accounting lives in
:mod:`repro.device.csr_build`; this host path shares the same kernels.

One sweep engine covers the pair space, with two plans
(:func:`repro.parallel.pool.sweep_plan`):

- the inverted palette index of :mod:`repro.device.palette_index`,
  when the exact count of color-sharing candidate pairs makes
  enumerating them cheaper than testing every pair;
- the ``rows`` plan of :mod:`repro.device.tiles`: each row strip
  ``[r0, r1) x [r0, n)`` loads its operand slices once and ANDs the
  block oracle with the palette test as word broadcasts, with no
  flat-index inversion and no quadratic row gather (a source without a
  block oracle answers the palette survivors pairwise).  When every pair
  shares a color (``L = P``, the Aggressive preset below about 10k
  active vertices) it skips the palette test.  Its hits arrive in the
  CSR's key order.

Every plan runs through an execution backend
(:mod:`repro.parallel.executor`): serial in-process streaming, or a
process pool that sweeps balanced contiguous strips of the domain and
gathers results in deterministic strip order.  Every path emits its
hits as CSR keys (:func:`repro.graphs.csr.key_layout`) into the same
sort-key CSR assembly (:func:`repro.graphs.csr.csr_from_coo_chunks`),
whose rows depend on the edge set alone, so serial and parallel builds
are bit-identical per seed.

A host ``greedy-dynamic`` Picasso iteration (serial, pool or cluster)
builds no conflict graph: a Pauli input calls
:func:`bucket_conflict_state`, an explicit graph
:func:`adjacency_conflict_state`.  Every other run (DeviceSim, the CSR
color engines) builds the full-width graph, on the host with
:func:`build_conflict_graph`, which is also the public API and the
tests' differential reference.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.device.palette_index import BucketQuery, PaletteIndex, row_blocks
from repro.device.tiles import EdgeBlockFn
from repro.graphs.csr import CSRGraph, key_pairs
from repro.parallel.executor import Executor, owned_executor
from repro.parallel.pool import conflict_sweep_chunks, gathered_conflict_csr
from repro.util.bits import bitset_from_lists

#: Bytes of one gathered bitset operand per block of the explicit arc
#: pass; its int64 arc temporaries are about as large.  4 MiB raised the
#: max RSS of an Aggressive run on a 2,000-vertex complement graph by
#: 4 MiB, 1 MiB left it unchanged.
ARC_BLOCK_BYTES = 1 << 20


def build_conflict_graph(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    edge_block_fn: EdgeBlockFn | None = None,
    n_workers: int = 1,
    executor: str | Executor = "auto",
    source=None,
    active_idx: np.ndarray | None = None,
    hosts=None,
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
        Optional block edge oracle (required by the ``rows`` plan; a
        sweep without one takes the palette index).
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

    Returns the CSR conflict graph and the conflict-edge count.
    """
    with owned_executor(executor, n_workers, hosts=hosts) as ex:
        return gathered_conflict_csr(
            n, edge_mask_fn, col_lists, palette_size, edge_block_fn,
            executor=ex, source=source, active_idx=active_idx,
        )


def bucket_conflict_state(
    n: int, edge_mask_fn, col_lists: np.ndarray, palette_size: int, **sweep_kw,
) -> tuple[BucketQuery, np.ndarray]:
    """The conflicted ids of a Pauli iteration, detected on the palette
    index, and the bucket query Algorithm 2 runs on, with no graph.
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


def adjacency_conflict_state(
    graph: CSRGraph, col_lists: np.ndarray, palette_size: int,
) -> tuple[np.ndarray, int]:
    """``(conflicted, |Ec|)`` of an explicit graph ``G``.

    Blocked passes over ``G``'s arcs ``u < v`` mark both ends of each
    arc whose candidate lists intersect and count the distinct ones (a
    self-loop is no such arc; a repeated arc counts once).  The lists
    are tested as packed bitsets of one palette window of ``64 L``
    colors at a time, so the bitsets take the lists' own ``nL`` words
    (one window, one pass, while ``P <= 64 L``).  Algorithm 2 colors
    ``G[conflicted]`` as it would the conflict graph: a ``G``-neighbour
    of ``v`` still holding ``v``'s color ``c`` shares ``c`` with ``v``,
    so it is a conflict neighbour, and the "still holds ``c``" bit test
    drops every other one.
    """
    n, list_size = col_lists.shape
    offsets, targets = graph.offsets, graph.targets
    window = 64 * list_size
    windows = range(0, palette_size, window)
    per_block = ARC_BLOCK_BYTES // (8 * min(list_size, -(-palette_size // 64))) or 1
    blocks, _ = row_blocks(offsets, -(-len(targets) // per_block) or 1)
    # Arcs already seen to share a color, kept only if a later window could see them again.
    found = np.zeros(len(targets) if len(windows) > 1 else 0, dtype=bool)
    hit, n_edges = np.zeros(n, dtype=bool), 0
    for lo in windows:
        inside = (col_lists >= lo) & (col_lists < lo + window)
        masks = bitset_from_lists(np.where(inside, col_lists - lo, -1),
                                  min(window, palette_size - lo))
        for a, b in blocks:
            u = np.repeat(np.arange(a, b), np.diff(offsets[a : b + 1]))
            arc = np.flatnonzero(u < targets[offsets[a] : offsets[b]]) + offsets[a]
            if len(found):
                arc = arc[~found[arc]]
            u, v = u[arc - offsets[a]], targets[arc]
            share = (masks[u] & masks[v]).any(axis=1)
            if len(found):
                found[arc[share]] = True
            u, v = u[share], v[share]
            hit[u] = hit[v] = True
            keys = u * n + v  # ascending in a canonical CSR, unless an arc repeats
            n_edges += len(keys if (keys[1:] > keys[:-1]).all() else np.unique(keys))
    return np.flatnonzero(hit), n_edges


def count_conflict_edges(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    edge_block_fn: EdgeBlockFn | None = None,
    n_workers: int = 1,
    executor: str | Executor = "auto",
    hosts=None,
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
            executor=ex, source=source, active_idx=active_idx,
        ):
            total += len(keys)
            if hit is not None:
                i, j = key_pairs(keys, n)
                hit[i] = hit[j] = True
        return total
