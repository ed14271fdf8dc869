"""Iteration-1 conflict build: the palette index vs the row strips.

Times Picasso's first host conflict build — ``build_conflict_graph``
over ``n`` uniform 50-qubit strings, serial, reduced by a degree scan
and ``induced_subgraph`` to the conflicted sub-CSR the CSR color
engines color — once with each plan forced, asserts the conflicted
sub-CSRs are bit-identical, and fits the growth exponent ``t ~ n^k``
per plan.  The ``rows`` plan (its palette test is cubic in ``n``) is
skipped above ``--rows-max``.

``--preset normal`` (default; ``P = 0.125n``, ``L = round(2 ln n)``)
compares the inverted palette index with the ``rows`` strips, which AND
the block oracle with the palette test.  The plan is forced through
the cost constant of the plan rule,
``repro.device.palette_index.INDEX_COST_PER_CANDIDATE`` (``0`` = always
the index, ``inf`` = always ``rows``).  Each row also prints the rule's
inputs — the exact candidate count ``C`` and the strips' palette word
operations ``n(n-1)/2 * W`` — so the crossover in ``ops / C`` is the
measurement behind that constant.

``--preset aggressive`` (``P = 0.03n``, ``L = min(round(30 ln n), P)``)
compares the rule's pick, the ``rows`` strips without the palette test
(lists fill the palette, ``L = P``, up to about ``n = 9k``), with the
same strips running the palette test (the ``L = P`` rule switched off):

    PYTHONPATH=src python benchmarks/bench_index_scaling.py
    PYTHONPATH=src python benchmarks/bench_index_scaling.py \\
        --sizes 1000 2000 3000 4000 --rows-max 4000
    PYTHONPATH=src python benchmarks/bench_index_scaling.py \\
        --preset aggressive --sizes 2000 4000 8000

Results go to ``benchmarks/results/index_scaling[_aggressive].json``
(untracked).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import time
from contextlib import contextmanager

import numpy as np

from repro.core.conflict import build_conflict_graph
from repro.core.palette import assign_color_lists
from repro.core.params import aggressive_params, normal_params
from repro.core.sources import PauliComplementSource
from repro.device import palette_index
from repro.graphs.ops import induced_subgraph
from repro.parallel import pool
from repro.pauli import random_pauli_set
from repro.util.chunking import num_pairs

RESULTS = pathlib.Path(__file__).resolve().parent / "results"

#: preset -> (params factory, the plan timed against ``rows``)
PRESETS = {
    "normal": (normal_params, "index"),
    "aggressive": (aggressive_params, "rule"),
}


@contextmanager
def forced(plan: str):
    """Force ``plan``: the index, or ``rows`` with its palette test,
    through ``kappa`` with the ``L = P`` rule off; ``rule`` leaves the
    rule alone."""
    saved = palette_index.INDEX_COST_PER_CANDIDATE, pool.all_pairs_share
    if plan != "rule":
        palette_index.INDEX_COST_PER_CANDIDATE = 0.0 if plan == "index" else math.inf
        pool.all_pairs_share = lambda col_lists, palette_size: False
    try:
        yield
    finally:
        palette_index.INDEX_COST_PER_CANDIDATE, pool.all_pairs_share = saved


def build_once(n: int, plan: str, seed: int, preset: str):
    """One timed iteration-1 build under ``plan``; returns the state
    and its wall time."""
    params = PRESETS[preset][0]()
    ps = random_pauli_set(n, 50, seed=seed)
    source = PauliComplementSource(ps)
    palette = params.palette_size(n)
    lists = assign_color_lists(n, palette, params.list_size(n), rng=seed)
    with forced(plan):
        t0 = time.perf_counter()
        graph, m = build_conflict_graph(
            n, source.edge_mask, lists, palette, edge_block_fn=source.edge_block
        )
        conflicted = np.flatnonzero(graph.degree())
        state = induced_subgraph(graph, conflicted)[0], conflicted, m
        elapsed = time.perf_counter() - t0
    return state, elapsed, lists


def rule_pick(n: int, lists: np.ndarray, palette: int) -> str:
    """The plan the unforced rule picks for a sweep with both oracles."""
    plan, _, masks = pool.sweep_plan(n, lists, palette, len, len)
    return "index" if plan != "rows" else "rows" if masks is not None else "rows (L = P)"


def fitted_exponent(sizes: list[int], times: list[float]) -> float | None:
    """Least-squares slope of ``log t`` against ``log n``."""
    if len(sizes) < 2:
        return None
    slope, _ = np.polyfit(np.log(sizes), np.log(times), 1)
    return float(slope)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="normal")
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="default 5000 10000 20000 40000 (normal), 2000 4000 8000 (aggressive)",
    )
    parser.add_argument("--rows-max", type=int, default=20000)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    fast = PRESETS[args.preset][1]
    sizes = args.sizes or (
        [5000, 10000, 20000, 40000] if args.preset == "normal" else [2000, 4000, 8000]
    )

    rows = []
    for n in sizes:
        plans = [fast] + (["rows"] if n <= args.rows_max else [])
        best: dict[str, float] = {}
        states = {}
        lists = None
        for _ in range(args.repeats):
            for plan in plans:
                state, elapsed, lists = build_once(n, plan, args.seed, args.preset)
                best[plan] = min(best.get(plan, math.inf), elapsed)
                states[plan] = state
        if "rows" in states:
            (gi, ci, mi), (gt, ct, mt) = states[fast], states["rows"]
            assert mi == mt, f"n={n}: edge counts differ ({mi} vs {mt})"
            assert np.array_equal(ci, ct), f"n={n}: conflicted sets differ"
            assert np.array_equal(gi.offsets, gt.offsets), f"n={n}: offsets differ"
            assert np.array_equal(gi.targets, gt.targets), f"n={n}: targets differ"
        palette = PRESETS[args.preset][0]().palette_size(n)
        candidates = palette_index.candidate_pairs(lists)
        word_ops = num_pairs(n) * -(-palette // 64)
        row = {
            "n": n,
            "palette": int(palette),
            "list_size": int(lists.shape[1]),
            "conflict_edges": states[fast][2],
            "candidates": candidates,
            "strip_word_ops": word_ops,
            "ops_per_candidate": word_ops / candidates if candidates else None,
            "rule_picks": rule_pick(n, lists, palette),
            f"{fast}_s": best[fast],
            "rows_s": best.get("rows"),
        }
        if row["rows_s"] is not None:
            row[f"rows_over_{fast}"] = row["rows_s"] / row[f"{fast}_s"]
        rows.append(row)
        print(json.dumps(row), flush=True)

    fits = {}
    for plan in (fast, "rows"):
        pts = [(r["n"], r[f"{plan}_s"]) for r in rows if r.get(f"{plan}_s")]
        fits[plan] = fitted_exponent([p[0] for p in pts], [p[1] for p in pts])
        if fits[plan] is not None:
            print(f"{plan}: t ~ n^{fits[plan]:.2f} over n = {[p[0] for p in pts]}")
    report = {
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "preset": args.preset,
        "kappa": palette_index.INDEX_COST_PER_CANDIDATE,
        "rows": rows,
        "fitted_exponent": fits,
    }
    suffix = "" if args.preset == "normal" else f"_{args.preset}"
    out_path = RESULTS / f"index_scaling{suffix}.json"
    RESULTS.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
