"""E10 — §IV-A: the bit-encoding ablation, plus tiled-vs-gather.

The paper reports 1.4-2.0x speedup for the inverse one-hot (AND +
popcount) anticommutation kernel over direct character comparison,
including encoding overheads.  We measure all three kernels (chars,
iooh, symplectic) over the same pair stream, and then ablate the
*sweep shape* on the winning encoding: the flat pair-chunk kernel
(gathers both operand rows per pair) against the block-broadcast tiled
kernel (loads each tile's row slices once).

Paper shape: iooh faster than chars; encoding overhead amortized;
tiled sweep faster than the gather sweep.
"""

import time

import numpy as np
from conftest import write_report

from repro.device.tiles import strip_height, sweep_strips
from repro.pauli import random_pauli_set
from repro.pauli.anticommute import (
    anticommute_pairs_chars,
    anticommute_pairs_iooh,
    anticommute_pairs_symplectic,
)
from repro.pauli.encoding import encode_iooh, encode_symplectic
from repro.util.bits import parity_block
from repro.util.chunking import iter_pair_chunks

N = 1500
QUBITS = (8, 16, 24)
REPEATS = 3


def test_encoding_speedup(benchmark):
    rows = []
    speedups = []
    for nq in QUBITS:
        ps = random_pauli_set(N, nq, seed=0)
        ii, jj = np.triu_indices(N, k=1)

        t0 = time.perf_counter()
        for _ in range(REPEATS):
            ref = anticommute_pairs_chars(ps.chars, ii, jj)
        t_chars = (time.perf_counter() - t0) / REPEATS

        t0 = time.perf_counter()
        for _ in range(REPEATS):
            packed = encode_iooh(ps.chars)  # include encoding overhead
            got = anticommute_pairs_iooh(packed, ii, jj)
        t_iooh = (time.perf_counter() - t0) / REPEATS
        np.testing.assert_array_equal(got, ref)

        t0 = time.perf_counter()
        for _ in range(REPEATS):
            x, z = encode_symplectic(ps.chars)
            got2 = anticommute_pairs_symplectic(x, z, ii, jj)
        t_sym = (time.perf_counter() - t0) / REPEATS
        np.testing.assert_array_equal(got2, ref)

        speedup = t_chars / t_iooh
        speedups.append(speedup)
        rows.append(
            f"{nq:>7} {t_chars * 1e3:>10.1f} {t_iooh * 1e3:>10.1f} "
            f"{t_sym * 1e3:>10.1f} {speedup:>8.1f}x"
        )

    lines = [
        f"Anticommute kernels over {N * (N - 1) // 2:,} pairs (ms, incl. encoding)",
        f"{'qubits':>7} {'chars':>10} {'iooh':>10} {'symplect':>10} {'iooh spd':>9}",
        "-" * 52,
        *rows,
        "",
        "paper: encoded kernel 1.4-2.0x over character comparison",
    ]
    write_report("encoding_speedup", lines)

    # Paper shape: the encoded kernel wins at every width.
    assert min(speedups) > 1.2, speedups

    ps = random_pauli_set(N, 16, seed=0)
    packed = encode_iooh(ps.chars)
    ii, jj = np.triu_indices(N, k=1)
    benchmark(lambda: anticommute_pairs_iooh(packed, ii, jj))


def test_tiled_vs_gather_sweep(benchmark):
    """Same iooh kernel, two sweep shapes: flat pair-chunk gather vs
    block-broadcast tiles.  Both count anticommuting pairs over the
    full upper triangle; the tiled sweep must win and agree exactly."""
    n, nq = 4000, 30
    ps = random_pauli_set(n, nq, seed=0)
    packed = encode_iooh(ps.chars)
    rows = []
    speedups = []

    def gather_count():
        total = 0
        for i, j in iter_pair_chunks(n, 1 << 18):
            total += int(anticommute_pairs_iooh(packed, i, j).sum())
        return total

    def tiled_count():
        total = 0
        for keys in sweep_strips(
            n,
            strip_height(n),
            edge_block_fn=lambda r0, r1, c0, c1: parity_block(
                packed[r0:r1], packed[c0:c1]
            ),
        ):
            total += len(keys)
        return total

    for _ in range(REPEATS):
        t0 = time.perf_counter()
        m_gather = gather_count()
        t_gather = time.perf_counter() - t0
        t0 = time.perf_counter()
        m_tiled = tiled_count()
        t_tiled = time.perf_counter() - t0
        assert m_gather == m_tiled  # identical sweeps
        speedups.append(t_gather / max(t_tiled, 1e-9))
        rows.append(
            f"{n:>7} {t_gather * 1e3:>11.1f} {t_tiled * 1e3:>11.1f} "
            f"{speedups[-1]:>8.1f}x"
        )

    lines = [
        f"Anticommute sweep over {n * (n - 1) // 2:,} pairs "
        f"({nq} qubits): gather vs tiled (ms)",
        f"{'|V|':>7} {'gather':>11} {'tiled':>11} {'speedup':>9}",
        "-" * 44,
        *rows,
    ]
    write_report("tiled_vs_gather_sweep", lines)
    assert max(speedups) > 1.0, speedups

    benchmark(tiled_count)
