"""E8 — Fig. 5: (P, alpha) sensitivity heatmaps on a representative input.

Three text heatmaps: final colors (% of |V|), max conflicting edges
(% of |E|) and runtime, over P in {1..20}% x alpha in {0.5..4.5}.

Paper shapes: colors improve toward small P / large alpha; conflict
edges and time grow in that same corner.
"""

import numpy as np
from conftest import write_report

from repro.core import Picasso, PicassoParams
from repro.graphs import complement_edge_count
from repro.datasets import load_molecule

P_GRID = (1.0, 5.0, 10.0, 15.0, 20.0)
A_GRID = (0.5, 1.5, 2.5, 3.5, 4.5)


def _heatmap(title: str, grid: np.ndarray, fmt: str) -> list[str]:
    lines = [title, "      " + "".join(f"P={p:<7.0f}" for p in P_GRID)]
    for r, a in enumerate(A_GRID):
        lines.append(
            f"a={a:<4}" + "".join(f"{grid[r, c]:<9{fmt}}" for c in range(len(P_GRID)))
        )
    lines.append("")
    return lines


def test_fig5_heatmap(benchmark):
    ps = load_molecule("H6_1D_sto3g")  # the representative input
    n_edges = complement_edge_count(ps)
    colors = np.zeros((len(A_GRID), len(P_GRID)))
    edges = np.zeros_like(colors)
    times = np.zeros_like(colors)
    for r, a in enumerate(A_GRID):
        for c, p in enumerate(P_GRID):
            params = PicassoParams(palette_fraction=p / 100.0, alpha=a)
            # The serial run, plus the sweep that counts |Ec| (which
            # the time includes, as it included the graph build before).
            result = Picasso(params=params, seed=0, exact_edges=True).color(ps)
            colors[r, c] = 100.0 * result.n_colors / ps.n
            edges[r, c] = 100.0 * result.max_conflict_edges / n_edges
            times[r, c] = result.elapsed_s

    lines = [
        f"Sensitivity on {ps.name} (|V| = {ps.n}, |E| = {n_edges:,})",
        "",
        *_heatmap("Final colors (% of |V|, lower better)", colors, ".1f"),
        *_heatmap("Max |Ec| (% of |E|, lower better)", edges, ".1f"),
        *_heatmap("Total time (s)", times, ".2f"),
    ]
    write_report("fig5_heatmap", lines)

    # Paper shapes.
    # 1. For fixed alpha, colors (%) rise with P (larger palette = more
    #    colors spent): compare the P extremes at the top alpha.
    assert colors[-1, 0] <= colors[-1, -1]
    # 2. For fixed P, conflict edges rise with alpha (longer lists share
    #    more) — compare alpha extremes at the largest palette.
    assert edges[0, -1] <= edges[-1, -1]
    # 3. The cheap corner (large P, small alpha) is at most as
    #    conflict-heavy as the expensive corner (small P, large alpha).
    assert edges[0, -1] <= edges[-1, 0]

    benchmark(
        lambda: Picasso(
            params=PicassoParams(palette_fraction=0.125, alpha=2.0), seed=0
        ).color(ps)
    )
