"""Unit tests for the TileBlock tile-grid partitioner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.tiles import iter_tiles, upper_triangle_mask
from repro.parallel.partition import (
    TileBlock,
    block_pair_count,
    partition_tiles,
    tile_grid,
)
from repro.util.chunking import num_pairs


class TestTileGrid:
    def test_matches_iter_tiles_order(self):
        assert tile_grid(300, 64) == list(iter_tiles(300, 64))

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=97),
    )
    @settings(max_examples=50, deadline=None)
    def test_block_pair_count_exact(self, n, tile):
        """Per-tile weights sum to the whole pair space, and each equals
        the tile's actual strict-upper-triangle census."""
        total = 0
        for r0, r1, c0, c1 in tile_grid(n, tile):
            w = block_pair_count(r0, r1, c0, c1)
            assert w == int(upper_triangle_mask(r0, r1, c0, c1).sum())
            total += w
        assert total == num_pairs(n)


class TestPartitionTiles:
    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=97),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_full_coverage_no_overlap(self, n, tile, parts):
        """Strips tile [0, n_tiles) contiguously, weights add up."""
        grid = tile_grid(n, tile)
        blocks = partition_tiles(n, tile, parts)
        prev_stop = 0
        for b in blocks:
            assert b.start == prev_stop
            prev_stop = b.stop
        assert prev_stop == len(grid) or (
            num_pairs(n) == 0 and blocks == [TileBlock(0, 0, 0)]
        )
        assert sum(b.n_pairs for b in blocks) == num_pairs(n)

    @given(
        st.integers(min_value=2, max_value=300),
        st.integers(min_value=1, max_value=97),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_balance_within_one_tile(self, n, tile, parts):
        """Every strip's weight is within one tile's weight of the
        ideal share — tiles are atomic, so that is the best possible
        contiguous balance."""
        grid = tile_grid(n, tile)
        weights = [block_pair_count(*b) for b in grid]
        w_max = max(weights)
        ideal = num_pairs(n) / parts
        for b in partition_tiles(n, tile, parts):
            assert abs(b.n_pairs - ideal) < w_max + 1

    def test_covers_every_pair_exactly_once(self):
        """Expanding the strips' tiles marks each i < j pair once."""
        n, tile = 37, 8
        grid = tile_grid(n, tile)
        seen = np.zeros((n, n), dtype=np.int64)
        for b in partition_tiles(n, tile, 5):
            for r0, r1, c0, c1 in grid[b.start : b.stop]:
                seen[r0:r1, c0:c1] += upper_triangle_mask(r0, r1, c0, c1)
        ii, jj = np.triu_indices(n, k=1)
        assert (seen[ii, jj] == 1).all()
        assert seen.sum() == num_pairs(n)

    def test_more_parts_than_tiles(self):
        blocks = partition_tiles(10, 64, 8)
        assert len(blocks) == 1
        assert blocks[0].n_pairs == num_pairs(10)

    def test_degenerate(self):
        assert partition_tiles(1, 64, 4) == [TileBlock(0, 0, 0)]
        assert partition_tiles(0, 64, 4) == [TileBlock(0, 0, 0)]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            partition_tiles(10, 64, 0)


_shares = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=12
)


class TestWeightedPartition:
    """Property tests for the capacity-weighted partitioners (PR 7)."""

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=97),
        _shares,
    )
    @settings(max_examples=60, deadline=None)
    def test_tiles_weighted_balance_within_one_tile(self, n, tile, shares):
        """Strip k's pair weight is within one tile's weight of its
        proportional quota total * shares[k] / sum(shares)."""
        grid = tile_grid(n, tile)
        weights = [block_pair_count(*b) for b in grid]
        w_max = max(weights, default=0)
        total = num_pairs(n)
        blocks = partition_tiles(
            n, tile, len(shares), shares=shares, keep_empty=True
        )
        assert len(blocks) == len(shares)
        assert sum(b.n_pairs for b in blocks) == total
        prev_stop = 0
        for b, share in zip(blocks, shares):
            assert b.start == prev_stop or total == 0
            prev_stop = b.stop
            quota = total * share / sum(shares)
            assert abs(b.n_pairs - quota) < w_max + 1

    @given(
        st.integers(min_value=0, max_value=300),
        _shares,
    )
    @settings(max_examples=60, deadline=None)
    def test_pairs_weighted_balance_within_one_pair(self, n, shares):
        """One-vertex tiles hold at most one pair each, so weighted
        strips land within one pair of their quota."""
        total = num_pairs(n)
        blocks = partition_tiles(
            n, 1, len(shares), shares=shares, keep_empty=True
        )
        assert len(blocks) == len(shares)
        assert sum(b.n_pairs for b in blocks) == total
        prev_stop = 0
        for b, share in zip(blocks, shares):
            assert b.start == prev_stop or total == 0
            prev_stop = b.stop
            quota = total * share / sum(shares)
            assert abs(b.n_pairs - quota) <= 1
        assert prev_stop == len(tile_grid(n, 1)) or total == 0

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=97),
        _shares,
    )
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, n, tile, shares):
        """Same inputs -> same partition, across call sites and list vs
        array share types (the bit-identity contract rests on this)."""
        a = partition_tiles(n, tile, len(shares), shares=shares, keep_empty=True)
        b = partition_tiles(
            n, tile, len(shares),
            shares=np.asarray(shares, dtype=np.int64), keep_empty=True,
        )
        assert a == b

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=97),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_uniform_shares_reproduce_unweighted(self, n, tile, parts):
        """Equal tile shares are a strict generalization: byte-exact
        match with the classic partition (with empties dropped)."""
        classic = partition_tiles(n, tile, parts)
        weighted = partition_tiles(
            n, tile, parts, shares=[3] * parts, keep_empty=True
        )
        kept = [b for b in weighted if len(b)] or [TileBlock(0, 0, 0)]
        assert kept == classic

    def test_one_strip(self):
        assert partition_tiles(37, 8, 1, shares=[4], keep_empty=True) == (
            partition_tiles(37, 8, 1)
        )

    def test_zero_pair_grid_keeps_all_strips(self):
        blocks = partition_tiles(1, 64, 4, shares=[1, 2, 3, 4], keep_empty=True)
        assert blocks == [TileBlock(0, 0, 0)] * 4

    def test_more_strips_than_tiles_keeps_empties_in_place(self):
        """With more strips than tiles the surplus strips are empty but
        stay at their positional index (the deal alignment)."""
        shares = [1] * 8
        blocks = partition_tiles(10, 64, 8, shares=shares, keep_empty=True)
        assert len(blocks) == 8
        assert sum(b.n_pairs for b in blocks) == num_pairs(10)
        assert sum(1 for b in blocks if len(b)) == 1

    def test_extreme_skew_starves_light_strips(self):
        """A dominant share takes (nearly) everything; tiny shares can
        legitimately come out empty but positions are kept."""
        n, tile = 120, 16
        shares = [1, 1000, 1]
        blocks = partition_tiles(n, tile, 3, shares=shares, keep_empty=True)
        assert len(blocks) == 3
        assert blocks[1].n_pairs >= 0.9 * num_pairs(n)

    def test_invalid_shares(self):
        for bad in ([0, 1], [-1, 2], [1, 2, 3]):
            with pytest.raises(ValueError):
                partition_tiles(10, 8, 2, shares=bad)
