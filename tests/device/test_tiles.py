"""Tests for the block-tiled kernel engine (device/tiles.py).

The load-bearing property: every tiled kernel must agree exactly with
the pairwise kernels, the naive all-pairs reference and the scalar
Python reference, over random inputs, multi-word palettes (> 64 colors)
and the degenerate sizes n in {0, 1, 2}.
"""

import numpy as np
import pytest
from naive_reference import naive_conflict_csr

from repro.core.conflict import build_conflict_graph, count_conflict_edges
from repro.core.palette import assign_color_lists
from repro.core.sources import ExplicitGraphSource, PauliComplementSource
from repro.device import conflict_pair_kernel_python, lists_intersect_kernel
from repro.device.backends import resolve_backend
from repro.device.tiles import (
    MIN_TILE,
    TileScratch,
    conflict_hits_block,
    count_block_hits,
    iter_tiles,
    lists_intersect_block,
    sweep_block_hits,
    sweep_conflict_hits,
    tile_edge,
    tile_scratch_bytes,
    upper_triangle_mask,
)
from repro.graphs import erdos_renyi
from repro.graphs.csr import key_pairs
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
from repro.util.bits import bitset_from_lists, parity_block
from repro.util.chunking import num_pairs

#: The tile drivers' kernel backend: the environment's choice, so a
#: ``REPRO_KERNEL_BACKEND=numba`` run checks the compiled kernel here.
BACKEND = resolve_backend()


def make_inputs(n=60, nq=6, palette=16, L=4, seed=0):
    ps = random_pauli_set(n, nq, seed=seed)
    src = PauliComplementSource(ps)
    lists = assign_color_lists(n, palette, L, rng=seed)
    return ps, src, lists, bitset_from_lists(lists, palette)


class TestTileGeometry:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 63, 64, 65, 200])
    @pytest.mark.parametrize("tile", [1, 3, 64, 100])
    def test_tiles_cover_upper_triangle_once(self, n, tile):
        seen = set()
        for r0, r1, c0, c1 in iter_tiles(n, tile):
            assert r0 < r1 <= n and c0 < c1 <= n and c0 >= r0
            mask = upper_triangle_mask(r0, r1, c0, c1)
            li, lj = np.nonzero(mask)
            for a, b in zip((li + r0).tolist(), (lj + c0).tolist()):
                assert a < b
                assert (a, b) not in seen
                seen.add((a, b))
        assert len(seen) == num_pairs(n)

    def test_invalid_tile(self):
        with pytest.raises(ValueError):
            list(iter_tiles(5, 0))

    def test_tile_edge_clamped_and_snapped(self):
        assert tile_edge(0) == MIN_TILE
        assert tile_edge() % MIN_TILE == 0
        assert tile_edge(n=10) == 10  # capped by problem size
        big = tile_edge(1 << 40)
        assert big % MIN_TILE == 0
        assert tile_scratch_bytes(big) > 0

    def test_scratch_views(self):
        sc = TileScratch(8)
        tmp, tb, hit = sc.views(3, 5)
        assert tmp.shape == (3, 5) and tb.shape == (3, 5) and hit.shape == (3, 5)


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
        for r0, r1, c0, c1 in iter_tiles(50, 17):
            blk_iooh = anticommute_block_iooh(packed, r0, r1, c0, c1)
            blk_chars = anticommute_block_chars(ps.chars, r0, r1, c0, c1)
            blk_sym = anticommute_block_symplectic(x, z, r0, r1, c0, c1)
            keep = upper_triangle_mask(r0, r1, c0, c1)
            li, lj = np.nonzero(keep)
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
    def test_lists_intersect_block_matches_kernel(self, palette, L):
        """Covers multi-word palettes (> 64 colors)."""
        _, _, lists, masks = make_inputs(n=45, palette=palette, L=L, seed=5)
        assert masks.shape[1] == (palette + 63) // 64
        ii, jj = np.triu_indices(45, k=1)
        ref = lists_intersect_kernel(masks, ii, jj)
        sc = TileScratch(16)
        for r0, r1, c0, c1 in iter_tiles(45, 16):
            blk = lists_intersect_block(masks, r0, r1, c0, c1, scratch=sc)
            keep = upper_triangle_mask(r0, r1, c0, c1)
            li, lj = np.nonzero(keep)
            np.testing.assert_array_equal(
                blk[li, lj].astype(np.uint8),
                lists_intersect_kernel(masks, li + r0, lj + c0),
            )
        # Scratch and no-scratch paths agree.
        np.testing.assert_array_equal(
            lists_intersect_block(masks, 0, 45, 0, 45),
            lists_intersect_block(masks, 0, 45, 0, 45, scratch=TileScratch(45)),
        )


def _hits_to_set(hits):
    out = set()
    for i, j in hits:
        out.update(zip(i.tolist(), j.tolist()))
    return out


def _keys_to_set(chunks, n):
    """The pair set of a stream of CSR key chunks over ``n`` vertices."""
    return _hits_to_set(key_pairs(keys, n) for keys in chunks)


class TestFusedConflictKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n,palette,L", [(60, 16, 4), (37, 130, 11)])
    def test_three_way_equivalence(self, seed, n, palette, L):
        """tiled hits == naive reference == scalar Python reference."""
        ps, src, lists, masks = make_inputs(n=n, palette=palette, L=L, seed=seed)
        ii, jj = np.triu_indices(n, k=1)
        ref, _ = naive_conflict_csr(n, src.edge_mask, lists)
        expected = {(a, b) for a, b in ref.edges().tolist()}

        sets = [set(row.tolist()) for row in lists]
        slow = conflict_pair_kernel_python(src.edge_mask, sets, ii, jj).astype(bool)
        assert set(zip(ii[slow].tolist(), jj[slow].tolist())) == expected

        tiled = _keys_to_set(
            sweep_conflict_hits(
                n, masks, src.edge_mask, src.edge_block, tile=19,
                backend=BACKEND,
            ),
            n,
        )
        assert tiled == expected

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_degenerate_sizes(self, n):
        ps, src, lists, masks = make_inputs(n=n, palette=4, L=2, seed=0)
        hits = _keys_to_set(
            sweep_conflict_hits(n, masks, src.edge_mask, backend=BACKEND), n
        )
        if n < 2:
            assert hits == set()
        gt, mt = build_conflict_graph(n, src.edge_mask, lists, 4)
        gp, mp = naive_conflict_csr(n, src.edge_mask, lists)
        assert mt == mp == len(hits)
        np.testing.assert_array_equal(gt.offsets, gp.offsets)

    def test_dense_and_sparse_paths_agree(self):
        """Force both survivor strategies and compare."""
        _, src, _, masks = make_inputs(n=50, palette=12, L=6, seed=7)
        via_block = _hits_to_set([
            conflict_hits_block(
                masks, 0, 50, 0, 50,
                edge_mask_fn=None,  # always block oracle
                edge_block_fn=src.edge_block,
                backend=BACKEND,
            )
        ])
        via_gather = _hits_to_set([
            conflict_hits_block(
                masks, 0, 50, 0, 50,
                edge_mask_fn=src.edge_mask,
                edge_block_fn=None,  # always pairwise gather
                backend=BACKEND,
            )
        ])
        assert via_block == via_gather

    def test_requires_an_oracle(self):
        _, _, _, masks = make_inputs(n=10)
        with pytest.raises(ValueError):
            conflict_hits_block(masks, 0, 10, 0, 10, backend=BACKEND)

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
            n, src.edge_mask, lists, palette,
            edge_block_fn=src.edge_block, tile_bytes=1 << 14,
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
        for r0, r1, c0, c1 in iter_tiles(70, 23):
            blk = src.edge_block(r0, r1, c0, c1)
            keep = upper_triangle_mask(r0, r1, c0, c1)
            li, lj = np.nonzero(keep)
            np.testing.assert_array_equal(
                blk[li, lj], src.edge_mask(li + r0, lj + c0)
            )


class TestBlockSweeps:
    def test_sweep_and_count_agree(self):
        ps = random_pauli_set(55, 7, seed=11)
        oracle = ps.oracle()
        hits = _keys_to_set(sweep_block_hits(55, oracle.anticommute_block, 16), 55)
        assert len(hits) == count_block_hits(55, oracle.anticommute_block, 16)
        ii, jj = np.triu_indices(55, k=1)
        anti = oracle.anticommute(ii, jj).astype(bool)
        assert hits == set(zip(ii[anti].tolist(), jj[anti].tolist()))
