"""Pairwise "device" kernels over flat pair-index arrays.

Each function is the NumPy analog of one CUDA kernel of the paper's §V
implementation over explicit ``(i, j)`` pair arrays (one SIMT thread per
unordered pair).  The conflict sweeps themselves run the row strips of
:mod:`repro.device.tiles` and the palette index; these serve the
per-edge palette test of the semi-streaming path, the O(L)
sorted-merge ablation, the scalar Table V reference and Algorithm 3's
exclusive scan.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.util.bits import popcount_rows

#: Type of the complement-edge oracle: (i, j) -> uint8 mask (1 = edge of
#: the graph being colored exists between i and j).
EdgeMaskFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def lists_intersect_kernel(
    colmasks: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """uint8 mask: 1 where the color lists of ``i`` and ``j`` intersect.

    ``colmasks`` is the packed palette bitset matrix ``(n, W)``; the
    test is a word-wise AND + any-bit check (the sorted-list O(L) merge
    of §IV-A collapsed into SIMD popcounts).
    """
    return (popcount_rows(colmasks[i] & colmasks[j]) > 0).astype(np.uint8)


def lists_intersect_sorted(
    sorted_lists: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """The paper's O(L) sorted-merge intersection test (§IV-A), batched.

    ``sorted_lists`` is the ``(n, L)`` candidate matrix with each row
    pre-sorted.  Kept as an ablation/reference for the bitset kernel
    (:func:`lists_intersect_kernel`), which wins once L exceeds a few
    words — tested equivalent.
    """
    a = sorted_lists[i]
    b = sorted_lists[j]
    m, L = a.shape
    out = np.zeros(m, dtype=np.uint8)
    # Vectorized merge: advance per-pair pointers until hit or exhaustion.
    pa = np.zeros(m, dtype=np.int64)
    pb = np.zeros(m, dtype=np.int64)
    live = np.ones(m, dtype=bool)
    rows = np.arange(m)
    while live.any():
        r = rows[live]
        va = a[r, pa[r]]
        vb = b[r, pb[r]]
        hit = va == vb
        out[r[hit]] = 1
        live[r[hit]] = False
        adv_a = va < vb
        pa[r[adv_a]] += 1
        pb[r[~hit & ~adv_a]] += 1
        done = (pa >= L) | (pb >= L)
        live &= ~done
    return out


def conflict_pair_kernel_python(
    edge_mask_fn: EdgeMaskFn,
    col_lists: list[set[int]],
    i: np.ndarray,
    j: np.ndarray,
) -> np.ndarray:
    """Scalar reference implementation (the paper's "CPU only" row in
    Table V): per-pair Python loop with set intersection.  Used only by
    the speedup benchmark and as a correctness oracle in tests."""
    out = np.zeros(len(i), dtype=np.uint8)
    edge = edge_mask_fn(np.asarray(i), np.asarray(j))
    for k in range(len(i)):
        if edge[k] and col_lists[int(i[k])] & col_lists[int(j[k])]:
            out[k] = 1
    return out


def exclusive_scan(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum (Algorithm 3 line 4), int64 output."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out
