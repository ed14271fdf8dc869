"""E4 — Table V: CPU-only vs device-assisted conflict-graph build.

The paper accelerates the conflict-graph construction (its >98% hotspot
on CPU) with a CUDA kernel, reporting ~60x geometric-mean build speedup
growing with problem size.  Our analog: the scalar per-pair Python
kernel ("CPU only") vs the vectorized NumPy device kernel, on the same
inputs with identical color lists — the outputs are asserted equal.
The vectorized build passes the source's block oracle, so it runs the
all-pairs row-strip sweep (or the palette index, where the plan rule
prefers it).

Paper shape: speedup grows with problem size; build dominates total
CPU-only time.
"""

import time

import numpy as np
from conftest import write_report

from repro.core.conflict import build_conflict_graph
from repro.core.palette import assign_color_lists
from repro.core.params import PicassoParams
from repro.core.sources import PauliComplementSource
from repro.device.kernels import conflict_pair_kernel_python
from repro.util.chunking import iter_pair_chunks


def _python_build(src, col_sets, n, chunk=1 << 14):
    edges = 0
    for i, j in iter_pair_chunks(n, chunk):
        edges += int(conflict_pair_kernel_python(src.edge_mask, col_sets, i, j).sum())
    return edges


def test_table5_speedup(benchmark, small_suite):
    params = PicassoParams()  # Normal configuration (P=12.5%, alpha=2)
    rows = []
    speedups = []
    sizes = []
    for name, ps in sorted(small_suite.items(), key=lambda kv: kv[1].n):
        if not 100 <= ps.n <= 1500:
            continue
        src = PauliComplementSource(ps)
        palette = params.palette_size(ps.n)
        lists = assign_color_lists(ps.n, palette, params.list_size(ps.n), rng=0)
        col_sets = [set(row.tolist()) for row in lists]

        t0 = time.perf_counter()
        m_py = _python_build(src, col_sets, ps.n)
        t_py = time.perf_counter() - t0

        t0 = time.perf_counter()
        _, m_vec = build_conflict_graph(
            ps.n, src.edge_mask, lists, palette, edge_block_fn=src.edge_block
        )
        t_vec = time.perf_counter() - t0

        assert m_py == m_vec  # identical conflict graphs
        speedup = t_py / max(t_vec, 1e-9)
        speedups.append(speedup)
        sizes.append(ps.n)
        rows.append(
            f"{name:<16} {ps.n:>6} {t_py:>10.3f} {t_vec:>10.4f} {speedup:>9.1f}x"
        )

    geo = float(np.exp(np.mean(np.log(speedups))))
    lines = [
        "Conflict-graph build: scalar CPU kernel vs vectorized device kernel",
        f"{'Problem':<16} {'|V|':>6} {'CPU-only s':>10} {'device s':>10} {'speedup':>10}",
        "-" * 58,
        *rows,
        f"{'Geo. mean':<16} {'':>6} {'':>10} {'':>10} {geo:>9.1f}x",
    ]
    write_report("table5_speedup", lines)

    # Paper shapes: all speedups >> 1, growing with problem size.
    assert min(speedups) > 3
    assert speedups[np.argmax(sizes)] >= max(speedups) * 0.3  # big stays fast

    # pytest-benchmark timing of the device-kernel build on the largest.
    ps = max(small_suite.values(), key=lambda p: p.n)
    src = PauliComplementSource(ps)
    palette = params.palette_size(ps.n)
    lists = assign_color_lists(ps.n, palette, params.list_size(ps.n), rng=0)
    benchmark(lambda: build_conflict_graph(
        ps.n, src.edge_mask, lists, palette, edge_block_fn=src.edge_block
    ))

