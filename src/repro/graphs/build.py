"""Graph builders over Pauli sets.

These are the *explicit* constructions the baselines need — Picasso
itself never materializes the complement graph (that is the paper's
whole point), but ColPack-style greedy, Jones–Plassmann and speculative
coloring must load the full graph into memory, so Table IV's memory
comparison requires building it.

The pair sweep is the all-pairs row-strip sweep
(:func:`repro.device.tiles.sweep_strips`): each strip ``[r0, r1) x
[r0, n)`` evaluates the oracle's block kernel once over contiguous row
slices instead of gathering both operand rows per pair, and the hits
stream into the sort-key CSR assembly as ascending CSR keys.  With
``n_workers >= 2`` the sweep is dispatched over the execution backend
layer (:mod:`repro.parallel.executor`) as row ranges of equal pair
weight; the assembly depends on the edge set alone, so parallel and
serial builds produce bit-identical CSR.
"""

from __future__ import annotations

from repro.device.tiles import count_block_hits, strip_height
from repro.graphs.csr import CSRGraph, csr_from_coo_chunks
from repro.pauli.strings import PauliSet
from repro.util.chunking import num_pairs


def anticommute_graph(
    pauli_set: PauliSet,
    kernel: str = "iooh",
    n_workers: int = 1,
    executor=None,
    hosts=None,
) -> CSRGraph:
    """Explicit graph ``G``: edges connect anticommuting string pairs."""
    return _oracle_graph(
        pauli_set, want_anticommute=True, kernel=kernel,
        n_workers=n_workers, executor=executor, hosts=hosts,
    )


def complement_graph(
    pauli_set: PauliSet,
    kernel: str = "iooh",
    n_workers: int = 1,
    executor=None,
    hosts=None,
) -> CSRGraph:
    """Explicit complement graph ``G'``: edges connect *commuting*
    distinct pairs — the graph the coloring baselines run on (§II-B).

    ``hosts`` shards the sweep over multi-host worker agents
    (:mod:`repro.distributed`); results merge in canonical row order,
    so the built CSR is bit-identical to the serial one.
    """
    return _oracle_graph(
        pauli_set, want_anticommute=False, kernel=kernel,
        n_workers=n_workers, executor=executor, hosts=hosts,
    )


def _block_fn(oracle, want_anticommute: bool):
    """Block predicate over the oracle: anticommute or its complement.

    Bound oracle methods, not closures, so the predicate pickles into
    spawn-context pool workers.
    """
    return oracle.anticommute_block if want_anticommute else oracle.commute_block


def _oracle_graph(
    pauli_set: PauliSet,
    want_anticommute: bool,
    kernel: str,
    n_workers: int = 1,
    executor=None,
    hosts=None,
) -> CSRGraph:
    oracle = pauli_set.oracle(kernel)
    block_fn = _block_fn(oracle, want_anticommute)
    # Imported lazily: repro.parallel pulls in this package, so a
    # module-level import would be circular.
    from repro.parallel.executor import owned_executor
    from repro.parallel.pool import block_sweep_chunks

    # One path for every backend: a serial executor short-circuits to
    # the in-process sweep inside block_sweep_chunks, and the lifecycle
    # contract (close what this call materialized, leave a passed
    # instance open) lives in owned_executor.
    with owned_executor(
        executor if executor is not None else "auto", n_workers, hosts=hosts
    ) as ex:
        chunks = [
            keys
            for keys in block_sweep_chunks(pauli_set.n, block_fn, executor=ex)
            if len(keys)
        ]
    return csr_from_coo_chunks(chunks, pauli_set.n)


def complement_edge_count(pauli_set: PauliSet) -> int:
    """Number of complement edges without materializing the graph
    (used for Table II reporting at scales where the explicit graph
    would not fit)."""
    return num_pairs(pauli_set.n) - anticommute_edge_count(pauli_set)


def anticommute_edge_count(pauli_set: PauliSet) -> int:
    """Number of anticommute edges (Table II's "# of edges" column)."""
    oracle = pauli_set.oracle()
    height = strip_height(pauli_set.n)
    return count_block_hits(pauli_set.n, oracle.anticommute_block, height)
