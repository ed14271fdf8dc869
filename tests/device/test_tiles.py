"""Tests for the row-strip sweep (device/tiles.py) and the block
kernels it runs.

The load-bearing property: every block kernel and every strip must
agree exactly with the pairwise kernels, the naive all-pairs reference
and the scalar Python reference, over random inputs, multi-word
palettes (> 64 colors) and the degenerate sizes n in {0, 1, 2}.
"""

import numpy as np
import pytest
from naive_reference import naive_conflict_csr

from repro.core.conflict import build_conflict_graph, count_conflict_edges
from repro.core.palette import assign_color_lists
from repro.core.sources import ExplicitGraphSource, PauliComplementSource
from repro.device import conflict_pair_kernel_python, lists_intersect_kernel
from repro.device.tiles import (
    SCRATCH_BYTES_PER_PAIR,
    STRIP_BYTES,
    count_block_hits,
    strip_height,
    strip_keys,
    sweep_strips,
)
from repro.graphs import erdos_renyi
from repro.graphs.csr import key_pairs, pair_keys
from repro.pauli import random_pauli_set
from repro.pauli.anticommute import (
    anticommute_block_chars,
    anticommute_block_iooh,
    anticommute_block_symplectic,
    anticommute_pairs_chars,
    anticommute_pairs_iooh,
    anticommute_pairs_symplectic,
)
from repro.pauli.encoding import encode_iooh, encode_symplectic
from repro.util.bits import anybit_block, bitset_from_lists, parity_block
from repro.util.chunking import num_pairs


def _blocks(n, size):
    """``(r0, r1, c0, c1)`` blocks of ``size``-row bands over columns
    ``c0 >= r0``: square, rectangular and diagonal-straddling shapes."""
    for r0 in range(0, n, size):
        r1 = min(r0 + size, n)
        for c0 in range(r0, n, size):
            yield r0, r1, c0, min(c0 + size + 3, n)


def _upper(r0, r1, c0, c1):
    """Local ``(li, lj)`` of a block's pairs ``i < j``."""
    li, lj = np.nonzero(
        np.arange(r0, r1)[:, None] < np.arange(c0, c1)[None, :]
    )
    return li, lj


def make_inputs(n=60, nq=6, palette=16, L=4, seed=0):
    ps = random_pauli_set(n, nq, seed=seed)
    src = PauliComplementSource(ps)
    lists = assign_color_lists(n, palette, L, rng=seed)
    return ps, src, lists, bitset_from_lists(lists, palette)


def _all_pairs(r0, r1, c0, c1):
    """A block oracle that marks every pair an edge."""
    return np.ones((r1 - r0, c1 - c0), dtype=np.uint8)


class TestTileGeometry:
    """The strips ``[r0, r1) x [r0, n)`` tile the upper triangle."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 63, 64, 65, 200])
    @pytest.mark.parametrize("tile", [1, 3, 64, 100])
    def test_tiles_cover_upper_triangle_once(self, n, tile):
        keys = np.concatenate(
            [np.empty(0, np.int64), *sweep_strips(n, tile, edge_block_fn=_all_pairs)]
        )
        assert (np.diff(keys) > 0).all()
        i, j = key_pairs(keys, n)
        ei, ej = np.triu_indices(n, k=1)
        np.testing.assert_array_equal(i, ei)
        np.testing.assert_array_equal(j, ej)
        assert len(keys) == num_pairs(n) == count_block_hits(n, _all_pairs, tile)

    def test_invalid_tile(self):
        with pytest.raises(ValueError):
            list(sweep_strips(5, 0, edge_block_fn=_all_pairs))

    def test_strip_height_fits_the_budget(self):
        for n in (1, 10, 80, 1000, 100_000):
            height = strip_height(n)
            assert 1 <= height <= n
            assert height == 1 or SCRATCH_BYTES_PER_PAIR * height * n <= STRIP_BYTES
        assert strip_height(0) == 1
        assert strip_height(1000, 1) == 1  # at least one row
        assert strip_height(10, 1 << 40) == 10  # at most n


class TestBlockKernelsMatchPairKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("nq", [3, 25, 70])
    def test_anticommute_blocks_all_kernels(self, seed, nq):
        ps = random_pauli_set(50, nq, seed=seed)
        packed = encode_iooh(ps.chars)
        x, z = encode_symplectic(ps.chars)
        ii, jj = np.triu_indices(50, k=1)
        ref = anticommute_pairs_iooh(packed, ii, jj)
        np.testing.assert_array_equal(
            anticommute_pairs_chars(ps.chars, ii, jj), ref
        )
        np.testing.assert_array_equal(
            anticommute_pairs_symplectic(x, z, ii, jj), ref
        )
        for r0, r1, c0, c1 in _blocks(50, 17):
            blk_iooh = anticommute_block_iooh(packed, r0, r1, c0, c1)
            blk_chars = anticommute_block_chars(ps.chars, r0, r1, c0, c1)
            blk_sym = anticommute_block_symplectic(x, z, r0, r1, c0, c1)
            li, lj = _upper(r0, r1, c0, c1)
            expected = anticommute_pairs_iooh(packed, li + r0, lj + c0)
            np.testing.assert_array_equal(blk_iooh[li, lj], expected)
            np.testing.assert_array_equal(blk_chars[li, lj], expected)
            np.testing.assert_array_equal(blk_sym[li, lj], expected)
            np.testing.assert_array_equal(
                parity_block(packed[r0:r1], packed[c0:c1]), blk_iooh
            )

    def test_oracle_block_matches_pairwise(self):
        ps = random_pauli_set(40, 8, seed=3)
        for kernel in ("iooh", "chars", "symplectic"):
            oracle = ps.oracle(kernel)
            blk = oracle.anticommute_block(0, 40, 0, 40)
            cblk = oracle.commute_block(0, 40, 0, 40)
            ii, jj = np.triu_indices(40, k=1)
            np.testing.assert_array_equal(blk[ii, jj], oracle.anticommute(ii, jj))
            np.testing.assert_array_equal(cblk[ii, jj], oracle.commute_edges(ii, jj))

    @pytest.mark.parametrize("palette,L", [(16, 4), (70, 9), (200, 30)])
    def test_palette_strips_match_kernel(self, palette, L):
        """The strips' palette test against the pairwise kernel; covers
        multi-word palettes (> 64 colors)."""
        _, _, lists, masks = make_inputs(n=45, palette=palette, L=L, seed=5)
        assert masks.shape[1] == (palette + 63) // 64
        for r0, r1, c0, c1 in _blocks(45, 16):
            blk = anybit_block(masks[r0:r1], masks[c0:c1])
            li, lj = _upper(r0, r1, c0, c1)
            np.testing.assert_array_equal(
                blk[li, lj].astype(np.uint8),
                lists_intersect_kernel(masks, li + r0, lj + c0),
            )
        # Scratch and no-scratch paths agree.
        tmp = np.empty((45, 45), np.uint64), np.empty((45, 45), bool)
        np.testing.assert_array_equal(
            anybit_block(masks, masks),
            anybit_block(masks, masks, *tmp, np.ones((45, 45), bool)),
        )
        # The whole strip sweep: exactly the color-sharing pairs.
        ii, jj = np.triu_indices(45, k=1)
        share = lists_intersect_kernel(masks, ii, jj).astype(bool)
        keys = np.concatenate(list(sweep_strips(
            45, 16, edge_block_fn=_all_pairs, colmasks=masks,
        )))
        np.testing.assert_array_equal(keys, pair_keys(ii[share], jj[share], 45))


def _keys_to_set(chunks, n):
    """The pair set of a stream of CSR key chunks over ``n`` vertices."""
    out = set()
    for keys in chunks:
        i, j = key_pairs(keys, n)
        out.update(zip(i.tolist(), j.tolist()))
    return out


class TestFusedConflictKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n,palette,L", [(60, 16, 4), (37, 130, 11)])
    def test_three_way_equivalence(self, seed, n, palette, L):
        """strip hits == naive reference == scalar Python reference."""
        ps, src, lists, masks = make_inputs(n=n, palette=palette, L=L, seed=seed)
        ii, jj = np.triu_indices(n, k=1)
        ref, _ = naive_conflict_csr(n, src.edge_mask, lists)
        expected = {(a, b) for a, b in ref.edges().tolist()}

        sets = [set(row.tolist()) for row in lists]
        slow = conflict_pair_kernel_python(src.edge_mask, sets, ii, jj).astype(bool)
        assert set(zip(ii[slow].tolist(), jj[slow].tolist())) == expected

        for oracle in ({"edge_block_fn": src.edge_block},
                       {"edge_mask_fn": src.edge_mask}):
            strips = _keys_to_set(
                sweep_strips(n, 19, colmasks=masks, **oracle), n
            )
            assert strips == expected

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_degenerate_sizes(self, n):
        ps, src, lists, masks = make_inputs(n=n, palette=4, L=2, seed=0)
        hits = _keys_to_set(
            sweep_strips(n, 3, colmasks=masks, edge_mask_fn=src.edge_mask), n
        )
        if n < 2:
            assert hits == set()
        gt, mt = build_conflict_graph(n, src.edge_mask, lists, 4)
        gp, mp = naive_conflict_csr(n, src.edge_mask, lists)
        assert mt == mp == len(hits)
        np.testing.assert_array_equal(gt.offsets, gp.offsets)

    def test_dense_and_sparse_paths_agree(self):
        """The block oracle over the whole strip and the pairwise gather
        of the palette survivors give the same keys, strip by strip."""
        _, src, _, masks = make_inputs(n=50, palette=12, L=6, seed=7)
        for r0, r1 in ((0, 50), (0, 7), (13, 30), (49, 50)):
            via_block = strip_keys(50, r0, r1, src.edge_block, masks)
            via_gather = strip_keys(50, r0, r1, colmasks=masks, edge_mask_fn=src.edge_mask)
            np.testing.assert_array_equal(via_block, via_gather)

    def test_requires_an_oracle(self):
        _, _, _, masks = make_inputs(n=10)
        with pytest.raises(ValueError):
            strip_keys(10, 0, 10, colmasks=masks)

    def test_unknown_engine_rejected(self):
        """The sweep engine is not a parameter, so naming one is an
        error."""
        _, src, lists, _ = make_inputs(n=10)
        with pytest.raises(TypeError):
            build_conflict_graph(10, src.edge_mask, lists, 16, engine="warp")


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_identical_csr_including_arc_order(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        nq = int(rng.integers(4, 12))  # 4**nq >= 256 > max n
        palette = int(rng.integers(2, 90))
        L = int(rng.integers(1, min(6, palette) + 1))
        ps = random_pauli_set(n, nq, seed=seed)
        src = PauliComplementSource(ps)
        lists = assign_color_lists(n, palette, L, rng=seed)
        gt, mt = build_conflict_graph(
            n, src.edge_mask, lists, palette, edge_block_fn=src.edge_block,
        )
        gp, mp = naive_conflict_csr(n, src.edge_mask, lists)
        assert mt == mp
        np.testing.assert_array_equal(gt.offsets, gp.offsets)
        np.testing.assert_array_equal(gt.targets, gp.targets)
        assert mt == count_conflict_edges(
            n, src.edge_mask, lists, palette, edge_block_fn=src.edge_block,
        )
        assert mt == count_conflict_edges(n, src.edge_mask, lists, palette)

    def test_explicit_graph_edge_block(self):
        g = erdos_renyi(70, 0.3, seed=9)
        src = ExplicitGraphSource(g)
        for r0, r1, c0, c1 in _blocks(70, 23):
            blk = src.edge_block(r0, r1, c0, c1)
            li, lj = _upper(r0, r1, c0, c1)
            np.testing.assert_array_equal(
                blk[li, lj], src.edge_mask(li + r0, lj + c0)
            )


class TestBlockSweeps:
    def test_sweep_and_count_agree(self):
        ps = random_pauli_set(55, 7, seed=11)
        oracle = ps.oracle()
        hits = _keys_to_set(sweep_strips(55, 16, edge_block_fn=oracle.anticommute_block), 55)
        assert len(hits) == count_block_hits(55, oracle.anticommute_block, 16)
        ii, jj = np.triu_indices(55, k=1)
        anti = oracle.anticommute(ii, jj).astype(bool)
        assert hits == set(zip(ii[anti].tolist(), jj[anti].tolist()))
