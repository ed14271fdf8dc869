"""Conflict-CSR assembly at scale: time and traced peak over ``targets``.

For each ``n`` draws about ``--edges`` unique uniform edges, streams
them to :func:`repro.graphs.csr.csr_from_coo_chunks` as sorted key
chunks (what the palette-index sweep emits), and prints one JSON line:
assembly wall time, key width, row bands and the traced peak over
``targets.nbytes`` (from a second pass, so tracing does not slow the
timed one).  Up to 32,768 vertices the keys are int32 and the rows one
band; above, int64 keys and bands of ``2**(30 - s)`` rows.  Asserts
the CSR equals a naive ``lexsort`` reference and the peak stays
within ``targets`` plus 16 MiB; times are reported, never asserted:

    PYTHONPATH=src python benchmarks/bench_assembly_memory.py
    PYTHONPATH=src python benchmarks/bench_assembly_memory.py --sizes 10000 40000
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc

import numpy as np

from repro.graphs.csr import csr_from_coo_chunks, index_dtype, key_layout, key_pairs

#: Keys per streamed chunk.
CHUNK = 1 << 20
#: Traced scratch allowed beside ``targets``.
SLACK_BYTES = 16 << 20


def uniform_keys(n: int, n_edges: int, seed: int) -> np.ndarray:
    """Sorted unique keys ``min << s | max`` of about ``n_edges``
    uniform edges on ``n`` vertices."""
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, n, (2, n_edges))
    lo, hi = np.minimum(u, v)[u != v], np.maximum(u, v)[u != v]
    s, dtype = key_layout(n)
    return np.unique((lo << s | hi).astype(dtype))


def reference(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical CSR by one ``lexsort`` of every arc on
    ``(row, nbr < row, nbr)``."""
    i, j = key_pairs(keys, n)
    row, nbr = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((nbr, nbr < row, row))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=offsets[1:])
    return offsets, nbr[order].astype(index_dtype(n))


def chunked(keys: np.ndarray) -> list[np.ndarray]:
    return [keys[a : a + CHUNK].copy() for a in range(0, len(keys), CHUNK)]


def measure(n: int, n_edges: int, seed: int) -> dict:
    """Assemble one stream of ``n``-vertex keys, timed then traced."""
    keys = uniform_keys(n, n_edges, seed)
    chunks = chunked(keys)
    t0 = time.perf_counter()
    g = csr_from_coo_chunks(chunks, n)
    assemble_s = time.perf_counter() - t0
    offsets, targets = reference(keys, n)
    assert np.array_equal(g.offsets, offsets) and np.array_equal(g.targets, targets)
    assert g.targets.dtype == targets.dtype
    chunks = chunked(keys)
    del keys, offsets, targets, g
    tracemalloc.start()
    try:
        g = csr_from_coo_chunks(chunks, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= g.targets.nbytes + SLACK_BYTES, (peak, g.targets.nbytes)
    s, dtype = key_layout(n)
    return {
        "n": n,
        "edges": g.n_edges,
        "key_bytes": np.dtype(dtype).itemsize,
        "row_bands": -(-n >> (30 - s)),
        "assemble_s": round(assemble_s, 4),
        "targets_bytes": g.targets.nbytes,
        "traced_peak_over_targets": round(peak / g.targets.nbytes, 4),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10000, 20000, 40000])
    parser.add_argument("--edges", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    measure(1000, 10_000, args.seed)  # warm-up: first-call costs are not the assembly's
    for n in args.sizes:
        print(json.dumps(measure(n, args.edges, args.seed)), flush=True)


if __name__ == "__main__":
    main()
