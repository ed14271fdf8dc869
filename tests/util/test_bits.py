"""Unit and property tests for packed-bitset primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import bits


class TestPopcount:
    def test_zero(self):
        assert bits.popcount(np.array([0], dtype=np.uint64))[0] == 0

    def test_all_ones(self):
        assert bits.popcount(np.array([np.uint64(2**64 - 1)]))[0] == 64

    def test_single_bits(self):
        for k in range(64):
            w = np.array([np.uint64(1) << np.uint64(k)])
            assert bits.popcount(w)[0] == 1

    def test_matches_python_bitcount(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, size=100, dtype=np.uint64)
        expected = [int(w).bit_count() for w in words]
        np.testing.assert_array_equal(bits.popcount(words), expected)

    def test_swar_fallback_matches(self):
        rng = np.random.default_rng(1)
        words = rng.integers(0, 2**63, size=256, dtype=np.uint64)
        np.testing.assert_array_equal(
            bits._popcount_swar(words), bits.popcount(words)
        )

    def test_preserves_shape(self):
        words = np.zeros((3, 4), dtype=np.uint64)
        assert bits.popcount(words).shape == (3, 4)


class TestPopcountRows:
    def test_rows(self):
        m = np.array([[1, 1], [3, 0], [0, 0]], dtype=np.uint64)
        np.testing.assert_array_equal(bits.popcount_rows(m), [2, 2, 0])

    def test_parity(self):
        m = np.array([[1, 1], [3, 1], [0, 0]], dtype=np.uint64)
        np.testing.assert_array_equal(bits.parity_rows(m), [0, 1, 0])


class TestPackbitsRows:
    def test_roundtrip_simple(self):
        b = np.array([[1, 0, 1, 1], [0, 0, 0, 1]], dtype=np.uint8)
        packed = bits.packbits_rows(b)
        assert packed.shape == (2, 1)
        assert packed[0, 0] == 0b1101
        assert packed[1, 0] == 0b1000

    def test_multiword(self):
        b = np.zeros((1, 130), dtype=np.uint8)
        b[0, 0] = 1
        b[0, 64] = 1
        b[0, 129] = 1
        packed = bits.packbits_rows(b)
        assert packed.shape == (1, 3)
        assert packed[0, 0] == 1
        assert packed[0, 1] == 1
        assert packed[0, 2] == np.uint64(1) << np.uint64(1)

    def test_width_padding(self):
        b = np.ones((2, 3), dtype=np.uint8)
        packed = bits.packbits_rows(b, width=200)
        assert packed.shape == (2, 4)
        assert packed[0, 0] == 0b111

    def test_width_too_small_raises(self):
        with pytest.raises(ValueError):
            bits.packbits_rows(np.ones((1, 5), dtype=np.uint8), width=3)

    def test_non_2d_raises(self):
        with pytest.raises(ValueError):
            bits.packbits_rows(np.ones(5, dtype=np.uint8))

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_popcount_of_packed_equals_sum(self, n, b, seed):
        rng = np.random.default_rng(seed)
        mat = rng.integers(0, 2, size=(n, b), dtype=np.uint8)
        packed = bits.packbits_rows(mat)
        np.testing.assert_array_equal(
            bits.popcount_rows(packed), mat.sum(axis=1)
        )


class TestBitsetOps:
    def test_set_test_clear(self):
        masks = np.zeros((2, 2), dtype=np.uint64)
        bits.bitset_set(masks, 0, 70)
        assert bits.bitset_test(masks, 0, 70)
        assert not bits.bitset_test(masks, 0, 69)
        assert not bits.bitset_test(masks, 1, 70)
        bits.bitset_clear(masks, 0, 70)
        assert not bits.bitset_test(masks, 0, 70)

    def test_from_ragged_lists(self):
        masks = bits.bitset_from_lists([np.array([0, 65]), np.array([], dtype=int)], 128)
        assert masks.shape == (2, 2)
        assert bits.bitset_test(masks, 0, 0)
        assert bits.bitset_test(masks, 0, 65)
        assert bits.popcount_rows(masks)[1] == 0

    def test_from_dense_matrix(self):
        lists = np.array([[0, 5], [1, -1]], dtype=np.int64)
        masks = bits.bitset_from_lists(lists, 64)
        assert bits.bitset_test(masks, 0, 0)
        assert bits.bitset_test(masks, 0, 5)
        assert bits.bitset_test(masks, 1, 1)
        assert bits.popcount_rows(masks)[1] == 1  # -1 padding skipped

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            bits.bitset_from_lists([np.array([64])], 64)
        with pytest.raises(ValueError):
            bits.bitset_from_lists(np.array([[64]]), 64)

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_intersection_matches_sets(self, nbits, seed):
        rng = np.random.default_rng(seed)
        a = rng.choice(nbits, size=min(10, nbits), replace=False)
        b = rng.choice(nbits, size=min(10, nbits), replace=False)
        masks = bits.bitset_from_lists([a, b], nbits)
        inter = bits.popcount_rows(masks[0:1] & masks[1:2])[0]
        assert inter == len(set(a.tolist()) & set(b.tolist()))


class TestLowestSetBitRows:
    def test_basic(self):
        masks = np.array(
            [[0b1000, 0], [0, 1], [0, 0], [1, 1]], dtype=np.uint64
        )
        np.testing.assert_array_equal(
            bits.lowest_set_bit_rows(masks), [3, 64, -1, 0]
        )

    def test_high_bits(self):
        masks = np.zeros((2, 2), dtype=np.uint64)
        masks[0, 0] = np.uint64(1) << np.uint64(63)
        masks[1, 1] = np.uint64(1) << np.uint64(63)
        np.testing.assert_array_equal(
            bits.lowest_set_bit_rows(masks), [63, 127]
        )

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            bits.lowest_set_bit_rows(np.zeros(3, dtype=np.uint64))

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_bitset_indices(self, nbits, seed):
        rng = np.random.default_rng(seed)
        rows = [
            rng.choice(nbits, size=rng.integers(0, min(8, nbits) + 1), replace=False)
            for _ in range(5)
        ]
        masks = bits.bitset_from_lists(rows, nbits)
        got = bits.lowest_set_bit_rows(masks)
        for i, row in enumerate(rows):
            expect = int(row.min()) if len(row) else -1
            assert got[i] == expect


def _ref_lowest_set_bit_rows(masks):
    """Naive per-bit reference: the lowest set bit of each row, -1 for
    an all-zero row."""
    out = np.empty(len(masks), dtype=np.int64)
    for i, row in enumerate(masks):
        for w, word in enumerate(row):
            if int(word):
                val = int(word)
                out[i] = 64 * w + (val & -val).bit_length() - 1
                break
        else:
            out[i] = -1
    return out


class TestLowestSetBitRowsReference:
    @pytest.mark.parametrize("words", [1, 4])
    def test_matches_reference(self, words):
        # Sparse words: dense random ones almost never leave a row
        # all zero, which is one of the interesting cases.
        rng = np.random.default_rng(13 * words)
        masks = np.packbits(
            rng.random((64, words * 64)) < 0.05, axis=1, bitorder="little"
        ).view(np.uint64).reshape(64, words)
        masks[0] = 0  # all-zero row -> -1
        masks[1] = 0
        masks[1, -1] = np.uint64(1) << np.uint64(63)  # highest bit only
        got = bits.lowest_set_bit_rows(masks)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _ref_lowest_set_bit_rows(masks))

    def test_empty_and_shape(self):
        empty = np.empty((0, 2), dtype=np.uint64)
        assert bits.lowest_set_bit_rows(empty).shape == (0,)
        with pytest.raises(ValueError):
            bits.lowest_set_bit_rows(np.zeros(4, dtype=np.uint64))


class TestSmallestAvailableColor:
    """Canonical home moved here from coloring.base — the same
    lowest-set-bit primitive the list engines pick colors with."""

    def test_empty(self):
        assert bits.smallest_available_color(np.array([], dtype=np.int64)) == 0

    def test_ignores_negative(self):
        assert bits.smallest_available_color(np.array([-1, -1])) == 0

    def test_gap(self):
        assert bits.smallest_available_color(np.array([0, 2, 3])) == 1

    def test_dense_prefix(self):
        assert bits.smallest_available_color(np.array([0, 1, 2])) == 3

    def test_duplicates(self):
        assert bits.smallest_available_color(np.array([0, 0, 1, 1])) == 2

    def test_huge_values_ignored(self):
        assert bits.smallest_available_color(np.array([10**9])) == 0

    def test_beyond_word_boundary(self):
        assert bits.smallest_available_color(np.arange(130)) == 130

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        forbidden = rng.integers(-1, 20, size=rng.integers(0, 40))
        taken = set(int(c) for c in forbidden if c >= 0)
        expect = next(c for c in range(len(forbidden) + 2) if c not in taken)
        assert bits.smallest_available_color(forbidden) == expect
