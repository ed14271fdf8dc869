"""Tests for the Lemma 2 closed-form predictors, including empirical
concentration checks against simulated list assignments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    expected_conflict_edges,
    list_share_probability,
    predict_coo_bytes,
    share_probability_upper_bound,
    sublinear_space_bound,
)
from repro.core.palette import assign_color_lists
from repro.device.kernels import lists_intersect_kernel
from repro.util.bits import bitset_from_lists


class TestShareProbability:
    def test_disjoint_impossible(self):
        # L > P/2 forces overlap.
        assert list_share_probability(10, 6) == 1.0

    def test_singleton_lists(self):
        # Two singletons over P colors share with probability 1/P.
        assert list_share_probability(10, 1) == pytest.approx(0.1)

    def test_full_palette(self):
        assert list_share_probability(4, 4) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            list_share_probability(4, 5)

    def test_monotone_in_list_size(self):
        probs = [list_share_probability(100, L) for L in range(1, 20)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_union_bound_dominates(self):
        for P, L in [(50, 3), (100, 7), (1000, 10)]:
            assert list_share_probability(P, L) <= share_probability_upper_bound(
                P, L
            ) + 1e-12

    @given(
        st.integers(min_value=2, max_value=200),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_empirical_frequency(self, palette, seed):
        list_size = max(1, palette // 8)
        n = 600
        masks = bitset_from_lists(
            assign_color_lists(n, palette, list_size, rng=seed), palette
        )
        ii = np.arange(0, n - 1, 2)
        jj = ii + 1
        emp = lists_intersect_kernel(masks, ii, jj).mean()
        exact = list_share_probability(palette, list_size)
        # 300 Bernoulli samples: allow 5 sigma.
        sigma = np.sqrt(exact * (1 - exact) / len(ii) + 1e-12)
        assert abs(emp - exact) <= max(5 * sigma, 0.05)


class TestConflictEdgePrediction:
    def test_expected_edges_formula(self):
        assert expected_conflict_edges(1000, 50, 1) == pytest.approx(
            1000 * list_share_probability(50, 1)
        )

    def test_empirical_conflict_edges_concentrate(self):
        """Lemma 2.3 in practice: measured |Ec| within 3x of expectation
        over a complete graph (every pair an edge)."""
        n, P, L = 300, 40, 3
        rng = np.random.default_rng(0)
        masks = bitset_from_lists(assign_color_lists(n, P, L, rng=rng), P)
        ii, jj = np.triu_indices(n, k=1)
        measured = int(lists_intersect_kernel(masks, ii, jj).sum())
        expected = expected_conflict_edges(len(ii), P, L)
        assert expected / 3 <= measured <= expected * 3

    def test_sublinear_bound_shape(self):
        assert sublinear_space_bound(1) == 0.0
        # n log^3 n grows superlinearly but far below n^2.
        n = 10_000
        assert n < sublinear_space_bound(n) < n**2

    def test_predict_coo_bytes_positive(self):
        b = predict_coo_bytes(1000, 500_000, 125, 15)
        assert b > 0
        # Safety factor scales linearly.
        assert predict_coo_bytes(
            1000, 500_000, 125, 15, safety=6.0
        ) == pytest.approx(2 * b, rel=0.01)
