"""Iteration-1 conflict build: inverted palette index vs tile sweep.

Times Picasso's first conflict build — ``build_fused_conflict_state``
over ``n`` uniform 50-qubit strings with Normal-preset candidate lists
(``P = 0.125n``, ``L = round(2 ln n)``), serial — once with each
enumeration plan forced, asserts the two conflicted sub-CSRs are
bit-identical, and fits the growth exponent ``t ~ n^k`` per plan.  The
tile plan is skipped above ``--tiles-max`` (it is cubic in ``n``).

The plan is forced through the cost constant of the plan rule,
``repro.device.palette_index.INDEX_COST_PER_CANDIDATE`` (``0`` = always
the index, ``inf`` = always tiles).  Each row also prints the rule's
inputs — the exact candidate count ``C`` and the tile sweep's palette
word operations ``n(n-1)/2 * W`` — so the crossover in ``ops / C`` is
the measurement behind that constant:

    PYTHONPATH=src python benchmarks/bench_index_scaling.py
    PYTHONPATH=src python benchmarks/bench_index_scaling.py \\
        --sizes 1000 2000 3000 4000 --tiles-max 4000

Results go to ``benchmarks/results/index_scaling.json`` (untracked).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import time

import numpy as np

from repro.core.conflict import build_fused_conflict_state
from repro.core.palette import assign_color_lists
from repro.core.params import normal_params
from repro.core.sources import PauliComplementSource
from repro.device import palette_index
from repro.pauli import random_pauli_set
from repro.util.chunking import num_pairs

OUT_PATH = pathlib.Path(__file__).resolve().parent / "results" / "index_scaling.json"

KAPPA = {"index": 0.0, "tiles": float("inf")}


def build_once(n: int, plan: str, seed: int):
    """One timed iteration-1 build under ``plan``; returns the state
    and its wall time."""
    params = normal_params()
    ps = random_pauli_set(n, 50, seed=seed)
    source = PauliComplementSource(ps)
    _, masks = assign_color_lists(
        n, params.palette_size(n), params.list_size(n), rng=seed
    )
    saved = palette_index.INDEX_COST_PER_CANDIDATE
    palette_index.INDEX_COST_PER_CANDIDATE = KAPPA[plan]
    try:
        t0 = time.perf_counter()
        state = build_fused_conflict_state(
            n, source.edge_mask, masks, edge_block_fn=source.edge_block
        )
        elapsed = time.perf_counter() - t0
    finally:
        palette_index.INDEX_COST_PER_CANDIDATE = saved
    return state, elapsed, masks


def fitted_exponent(sizes: list[int], times: list[float]) -> float | None:
    """Least-squares slope of ``log t`` against ``log n``."""
    if len(sizes) < 2:
        return None
    slope, _ = np.polyfit(np.log(sizes), np.log(times), 1)
    return float(slope)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[5000, 10000, 20000, 40000]
    )
    parser.add_argument("--tiles-max", type=int, default=20000)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rows = []
    for n in args.sizes:
        plans = ["index"] + (["tiles"] if n <= args.tiles_max else [])
        best: dict[str, float] = {}
        states = {}
        masks = None
        for _ in range(args.repeats):
            for plan in plans:
                state, elapsed, masks = build_once(n, plan, args.seed)
                best[plan] = min(best.get(plan, math.inf), elapsed)
                states[plan] = state
        if "tiles" in states:
            (gi, ci, mi), (gt, ct, mt) = states["index"], states["tiles"]
            assert mi == mt, f"n={n}: edge counts differ ({mi} vs {mt})"
            assert np.array_equal(ci, ct), f"n={n}: conflicted sets differ"
            assert np.array_equal(gi.offsets, gt.offsets), f"n={n}: offsets differ"
            assert np.array_equal(gi.targets, gt.targets), f"n={n}: targets differ"
        candidates = palette_index.candidate_pairs(masks)
        word_ops = num_pairs(n) * masks.shape[1]
        row = {
            "n": n,
            "conflict_edges": states["index"][2],
            "candidates": candidates,
            "tile_word_ops": word_ops,
            "ops_per_candidate": word_ops / candidates if candidates else None,
            "rule_picks": "index" if palette_index.prefers_index(n, masks) else "tiles",
            "index_s": best["index"],
            "tiles_s": best.get("tiles"),
        }
        if row["tiles_s"] is not None:
            row["tiles_over_index"] = row["tiles_s"] / row["index_s"]
        rows.append(row)
        print(json.dumps(row), flush=True)

    fits = {}
    for plan in ("index", "tiles"):
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
        "kappa": palette_index.INDEX_COST_PER_CANDIDATE,
        "rows": rows,
        "fitted_exponent": fits,
    }
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
