"""Tests for palette/list assignment (Algorithm 1, line 6)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import palette as palette_mod
from repro.core.palette import assign_color_lists, lists_nbytes
from repro.device.palette_index import PaletteIndex
from repro.util.bits import bitset_from_lists, popcount_rows


def _chi2(values: np.ndarray, palette: int) -> float:
    """Chi-square statistic of ``values`` against uniform on the palette."""
    counts = np.bincount(values.ravel(), minlength=palette)
    expected = values.size / palette
    return float(((counts - expected) ** 2 / expected).sum())


class TestAssignColorLists:
    def test_shapes(self):
        lists = assign_color_lists(10, 20, 5, rng=0)
        assert lists.shape == (10, 5)
        assert lists.dtype == np.int64

    def test_within_palette(self):
        lists = assign_color_lists(50, 13, 4, rng=1)
        assert lists.min() >= 0
        assert lists.max() < 13

    def test_no_duplicates_per_row(self):
        for palette, list_size in ((30, 10), (1000, 12), (13, 6), (13, 7), (9, 9)):
            lists = assign_color_lists(300, palette, list_size, rng=2)
            distinct = (np.diff(np.sort(lists, axis=1), axis=1) > 0).all(axis=1)
            assert distinct.all()

    def test_masks_match_lists(self):
        """The bitsets the row strips build from the lists hold exactly
        the listed colors."""
        lists = assign_color_lists(40, 70, 8, rng=3)
        masks = bitset_from_lists(lists, 70)
        assert (popcount_rows(masks) == 8).all()
        for v in range(40):
            for c in lists[v]:
                word, bit = divmod(int(c), 64)
                assert (masks[v, word] >> np.uint64(bit)) & np.uint64(1) == 1

    def test_full_palette_case(self):
        """``L = P`` draws nothing: byte-equal to the tiled palette."""
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        lists = assign_color_lists(5, 7, 7, rng=rng)
        assert lists.tobytes() == np.tile(np.arange(7, dtype=np.int64), (5, 1)).tobytes()
        assert lists.dtype == np.int64 and lists.shape == (5, 7)
        assert rng.bit_generator.state == state

    def test_zero_vertices(self):
        for palette, list_size in ((5, 2), (5, 4), (5, 5)):
            lists = assign_color_lists(0, palette, list_size, rng=0)
            assert lists.shape == (0, list_size)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            assign_color_lists(5, 0, 1)
        with pytest.raises(ValueError):
            assign_color_lists(5, 4, 5)
        with pytest.raises(ValueError):
            assign_color_lists(5, 4, 0)

    def test_redrawn_rows_valid(self, monkeypatch):
        """With no spare draws (10 per row here) most rows come up
        short and are redrawn; every row still holds distinct
        in-palette colors and position 0 stays uniform."""
        monkeypatch.setattr(palette_mod, "SPARE_DRAWS", 0)
        lists = assign_color_lists(8000, 16, 6, rng=4)
        assert lists.shape == (8000, 6)
        assert ((lists >= 0) & (lists < 16)).all()
        assert (np.diff(np.sort(lists, axis=1), axis=1) > 0).all()
        assert _chi2(lists[:, 0], 16) < 40

    def test_reproducible(self):
        a = assign_color_lists(20, 40, 5, rng=7)
        b = assign_color_lists(20, 40, 5, rng=7)
        np.testing.assert_array_equal(a, b)

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_uniform_marginal(self, n, palette, seed):
        """Each color must be sampled without bias: property-check that
        all entries are valid and rows unique; full uniformity is checked
        statistically in the dedicated test below."""
        list_size = max(1, palette // 3)
        lists = assign_color_lists(n, palette, list_size, rng=seed)
        assert ((lists >= 0) & (lists < palette)).all()
        assert (np.diff(np.sort(lists, axis=1), axis=1) > 0).all()

    def test_uniformity_statistical(self):
        """Color frequencies should be flat: chi-square sanity bound."""
        n, palette, L = 4000, 16, 4
        lists = assign_color_lists(n, palette, L, rng=11)
        # dof = 15; P(chi2 > 40) ~ 5e-4 — loose but catches real bias.
        assert _chi2(lists, palette) < 40

    @pytest.mark.parametrize("palette, list_size", [
        (16, 4),  # draw-and-reject
        (16, 8),  # draw-and-reject at 2L = P
        (16, 11),  # dense lists: argsort of P keys
    ])
    def test_uniform_per_position(self, palette, list_size):
        """Every list position, position 0 included (the color an
        unconflicted vertex takes), is uniform over the palette."""
        lists = assign_color_lists(20_000, palette, list_size, rng=palette + list_size)
        for k in range(list_size):
            # dof = 15; P(chi2 > 40) ~ 5e-4 per position.
            assert _chi2(lists[:, k], palette) < 40, k

    def test_scratch_independent_of_palette(self):
        """Assignment plus index build at fixed ``n`` and ``L`` peak at
        the same traced memory for ``P = 2^10`` and ``P = 2^20``: no
        scratch scales with the palette."""
        peaks = []
        for palette in (1 << 10, 1 << 20):
            tracemalloc.start()
            try:
                lists = assign_color_lists(2000, palette, 8, rng=0)
                index = PaletteIndex(lists)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert index.n == 2000
        assert peaks[1] < 1.25 * peaks[0]


class TestListsNbytes:
    def test_counts_lists_alone(self):
        lists = assign_color_lists(10, 20, 5, rng=0)
        assert lists_nbytes(lists) == lists.nbytes == 10 * 5 * lists.itemsize
