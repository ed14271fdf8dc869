"""Palette state at scale: the list draw and the palette-index build.

For each ``n`` under the Normal preset (``P = 0.125n``,
``L = round(2 ln n)``) draws the candidate lists and builds the
inverted palette index from them, and prints one JSON line per ``n``:
wall time and bytes of each, plus the traced peak of the two together
(from a second pass, so tracing does not slow the timed one).
Asserts that the lists take ``n * L * itemsize`` bytes, the ``O(nL)``
Table IV term; times are reported, never asserted:

    PYTHONPATH=src python benchmarks/bench_palette_scaling.py
    PYTHONPATH=src python benchmarks/bench_palette_scaling.py --sizes 10000 40000
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc

from repro.core.palette import assign_color_lists, lists_nbytes
from repro.core.params import normal_params
from repro.device.palette_index import PaletteIndex


def measure(n: int, seed: int) -> dict:
    """Draw and index one iteration-1 palette of ``n`` vertices."""
    params = normal_params()
    palette, list_size = params.palette_size(n), params.list_size(n)
    t0 = time.perf_counter()
    lists = assign_color_lists(n, palette, list_size, rng=seed)
    t1 = time.perf_counter()
    index = PaletteIndex(lists)
    t2 = time.perf_counter()
    # A second, traced pass for the memory peak (tracing slows the timed one).
    tracemalloc.start()
    try:
        PaletteIndex(assign_color_lists(n, palette, list_size, rng=seed))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lists_nbytes(lists) == n * list_size * lists.itemsize
    index_bytes = sum(
        a.nbytes
        for a in (index.verts, index.later, index.by_vertex, index.row_candidates)
    )
    return {
        "n": n,
        "palette": palette,
        "list_size": list_size,
        "assign_s": round(t1 - t0, 4),
        "index_s": round(t2 - t1, 4),
        "lists_bytes": lists_nbytes(lists),
        "index_bytes": index_bytes,
        "traced_peak_bytes": peak,
        "candidates": index.n_candidates,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10000, 20000, 40000])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    measure(1000, args.seed)  # warm-up: first-call costs are not the palette's
    for n in args.sizes:
        print(json.dumps(measure(n, args.seed)), flush=True)


if __name__ == "__main__":
    main()
