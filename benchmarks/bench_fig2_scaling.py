"""E5 — Fig. 2: conflict-edge fraction vs input size, with the device
feasibility line.

For fixed parameters (P = 12.5%, alpha = 2) the maximum conflicting-edge
percentage decays as |V| grows (Lemma 2: |Ec| ~ n log^3 n while
|E| ~ n^2), while the fraction an accelerator can *hold* also decays
(budget / |E| ~ 1/n^2).  The paper's dashed A100 line is reproduced for
the simulated device budget.
"""

import numpy as np
from conftest import write_report

from repro.core import Picasso, normal_params
from repro.pauli import random_pauli_set_density
from repro.util.chunking import num_pairs

SIZES = (200, 400, 800, 1600, 3200)
DENSITY = 0.55  # complement-edge fraction of the workload family
#: Feasibility-line budget, scaled so the crossover (the paper's A100
#: dashed line crossing the measured curve) is visible at toy scale.
LINE_BUDGET = 1 * 1024 * 1024


def test_fig2_scaling(benchmark):
    rows = []
    fractions = []
    for n in SIZES:
        ps = random_pauli_set_density(
            n, 10, identity_fraction=0.35, seed=42, name=f"scale{n}"
        )
        result = Picasso(params=normal_params(), seed=0, exact_edges=True).color(ps)
        n_edges = int(DENSITY * num_pairs(n))  # nominal |E| for the family
        frac = 100.0 * result.max_conflict_edges / n_edges
        # Device feasibility: the COO buffer holds budget/8 edges (two
        # 4-byte ids each); as % of |E| this is the dashed line.
        admissible = min(100.0, 100.0 * (LINE_BUDGET / 8) / n_edges)
        fractions.append(frac)
        rows.append(
            f"{n:>6} {result.max_conflict_edges:>12,} {frac:>10.2f} "
            f"{admissible:>12.2f}"
        )

    lines = [
        "Max conflicting-edge fraction vs |V| (P = 12.5%, alpha = 2)",
        f"{'|V|':>6} {'max |Ec|':>12} {'% of |E|':>10} {'device max %':>12}",
        "-" * 46,
        *rows,
        "",
        "device max % = conflict-edge fraction that fits a "
        f"{LINE_BUDGET >> 20} MB device budget (the paper's dashed A100 line; "
        "it crosses the measured curve as |E| grows quadratically)",
    ]
    write_report("fig2_scaling", lines)

    # Paper shape: the conflicting fraction decreases monotonically in n.
    assert all(a >= b for a, b in zip(fractions, fractions[1:])), fractions

    benchmark(
        lambda: Picasso(params=normal_params(), seed=0).color(
            random_pauli_set_density(400, 10, identity_fraction=0.35, seed=42)
        )
    )
