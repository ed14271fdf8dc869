"""Algorithm 2 alone on captured iteration-1 conflict graphs.

Builds Picasso's first conflict graph and times
:func:`repro.coloring.greedy_list.greedy_list_color_dynamic` on it:
serial Normal over ``n`` uniform 50-qubit strings at each of
``--sizes``, plus the Aggressive preset on each of ``--molecules``
(``L = P``, so every list is the whole palette and most picks move
many neighbor keys).  Prints one JSON line per graph: vertices, arcs,
list size, seconds (best of ``--repeats``), picks (vertices that drew
a color), key updates (neighbors that lost a candidate, the
``coloring.key_updates`` telemetry counter) and nanoseconds per arc.
Asserts a valid list coloring at every size, and bit-identity with the
``sets`` reference up to ``--sets-max`` vertices; times are printed,
never asserted:

    PYTHONPATH=src python benchmarks/bench_alg2_scaling.py
    PYTHONPATH=src python benchmarks/bench_alg2_scaling.py --sizes 2000 10000
    PYTHONPATH=src python benchmarks/bench_alg2_scaling.py \\
        --sizes 10000 20000 40000 --molecules H4_2D_sto3g H8_2D_sto3g
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro import telemetry
from repro.coloring.greedy_list import (
    greedy_list_color_dynamic,
    greedy_list_color_dynamic_sets,
)
from repro.core.conflict import build_conflict_graph
from repro.core.palette import assign_color_lists
from repro.core.params import aggressive_params, normal_params
from repro.core.sources import PauliComplementSource
from repro.datasets import load_molecule
from repro.graphs.ops import induced_subgraph
from repro.pauli import random_pauli_set


def iteration1_graph(ps, params, seed: int):
    """The conflicted sub-CSR and its candidate lists of Picasso's first
    iteration on ``ps`` (serial build, the palette and list sizes of
    ``Picasso.color``)."""
    n = ps.n
    source = PauliComplementSource(ps)
    palette = params.palette_size(n)
    lists = assign_color_lists(n, palette, params.list_size(n), rng=seed)
    graph, _ = build_conflict_graph(
        n, source.edge_mask, lists, palette, edge_block_fn=source.edge_block
    )
    conflicted = np.flatnonzero(graph.degree())
    return induced_subgraph(graph, conflicted)[0], lists[conflicted]


def check_list_coloring(gc, lists, colors, uncolored) -> None:
    """Colors come from each vertex's own list, no arc is monochrome,
    and ``uncolored`` is exactly the vertices colored -1."""
    colored = colors >= 0
    assert (lists[colored] == colors[colored, None]).any(axis=1).all()
    rows = np.repeat(np.arange(gc.n_vertices), np.diff(gc.offsets))
    c_row, c_nbr = colors[rows], colors[gc.targets]
    assert not ((c_row >= 0) & (c_row == c_nbr)).any()
    assert np.array_equal(uncolored, np.flatnonzero(~colored))


def measure(name: str, gc, lists, seed: int, repeats: int, sets_max: int) -> dict:
    """Best-of-``repeats`` Algorithm 2 time on one graph, checked."""
    best = float("inf")
    for _ in range(repeats):
        telemetry.reset()
        t0 = time.perf_counter()
        colors, uncolored = greedy_list_color_dynamic(gc, lists, rng=seed)
        best = min(best, time.perf_counter() - t0)
    key_updates = telemetry.snapshot()["counters"].get("coloring.key_updates", 0.0)
    check_list_coloring(gc, lists, colors, uncolored)
    n = gc.n_vertices
    if n <= sets_max:
        ref_colors, ref_uncolored = greedy_list_color_dynamic_sets(gc, lists, rng=seed)
        assert np.array_equal(colors, ref_colors), f"{name}: colors differ from sets"
        assert np.array_equal(uncolored, ref_uncolored), f"{name}: Vu differs from sets"
    arcs = len(gc.targets)
    return {
        "graph": name,
        "vertices": n,
        "arcs": arcs,
        "list_size": lists.shape[1],
        "seconds": round(best, 4),
        "picks": n - len(uncolored),
        "key_updates": int(key_updates),
        "ns_per_arc": round(best / max(arcs, 1) * 1e9, 2),
        "checked_against_sets": n <= sets_max,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="*", default=[10000, 20000, 40000])
    parser.add_argument("--molecules", nargs="*", default=["H4_2D_sto3g"])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--sets-max", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    telemetry.enable()
    try:
        for n in args.sizes:
            ps = random_pauli_set(n, 50, seed=args.seed)
            gc, lists = iteration1_graph(ps, normal_params(), args.seed)
            row = measure(f"rand{n}x50-normal", gc, lists, args.seed, args.repeats, args.sets_max)
            print(json.dumps(row), flush=True)
        for name in args.molecules:
            gc, lists = iteration1_graph(load_molecule(name), aggressive_params(), args.seed)
            row = measure(f"{name}-aggressive", gc, lists, args.seed, args.repeats, args.sets_max)
            print(json.dumps(row), flush=True)
    finally:
        telemetry.enable(False)


if __name__ == "__main__":
    main()
