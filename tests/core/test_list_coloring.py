"""Tests for Algorithm 2 (dynamic most-constrained-first list coloring)
and the static list-coloring variants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.coloring.engine import GreedyDynamicEngine
from repro.coloring.greedy_list import (
    # The implementation home; repro.core.list_coloring is a deprecated
    # shim that warns on import (tested in tests/coloring/test_engines.py).
    greedy_list_color_dynamic,
    greedy_list_color_dynamic_sets,
    greedy_list_color_static,
)
from repro.core import Picasso, aggressive_params, normal_params
from repro.datasets import load_molecule
from repro.graphs import (
    complement_graph, complete_graph, cycle_graph, empty_graph, erdos_renyi,
)
from repro.graphs.csr import CSRGraph
from repro.pauli import random_pauli_set


def assert_valid_list_coloring(gc, col_lists, colors, uncolored):
    """Invariants shared by all list-coloring schemes."""
    n = gc.n_vertices
    colored = np.nonzero(colors >= 0)[0]
    # Every assigned color comes from the vertex's own list.
    for v in colored:
        assert colors[v] in col_lists[v]
    # No conflict edge is monochrome.
    e = gc.edges()
    if len(e):
        both = (colors[e[:, 0]] >= 0) & (colors[e[:, 1]] >= 0)
        assert not (colors[e[both, 0]] == colors[e[both, 1]]).any()
    # Uncolored = exactly the -1 vertices.
    np.testing.assert_array_equal(np.sort(uncolored), np.nonzero(colors < 0)[0])
    assert len(colored) + len(uncolored) == n


def algorithm2_inputs(pauli_set, params):
    """``(gc, col_lists)`` of every Algorithm 2 call of a real Picasso
    run on the explicit complement graph, in iteration order: the
    subgraphs its conflicted vertices induce (int32 targets, rows
    rotated rather than sorted; a Pauli input builds no graph)."""
    calls = []
    real = GreedyDynamicEngine.color

    def spy(self, gc, col_lists, rng=None, device=None):
        calls.append((gc, np.array(col_lists)))
        return real(self, gc, col_lists, rng, device)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GreedyDynamicEngine, "color", spy)
        Picasso(params=params, seed=0).color(complement_graph(pauli_set))
    return calls


class TestDynamic:
    def test_empty_graph_all_colored(self):
        gc = empty_graph(6)
        lists = np.tile(np.arange(3), (6, 1))
        colors, vu = greedy_list_color_dynamic(gc, lists, rng=0)
        assert len(vu) == 0
        assert (colors >= 0).all()

    def test_zero_vertices(self):
        gc = empty_graph(0)
        colors, vu = greedy_list_color_dynamic(gc, np.empty((0, 2), dtype=np.int64), rng=0)
        assert len(colors) == 0 and len(vu) == 0

    def test_triangle_with_ample_lists(self):
        gc = complete_graph(3)
        lists = np.tile(np.arange(5), (3, 1))
        colors, vu = greedy_list_color_dynamic(gc, lists, rng=0)
        assert len(vu) == 0
        assert_valid_list_coloring(gc, lists, colors, vu)

    def test_forced_failure(self):
        """K3 with identical single-color lists: only one vertex colorable."""
        gc = complete_graph(3)
        lists = np.zeros((3, 1), dtype=np.int64)
        colors, vu = greedy_list_color_dynamic(gc, lists, rng=0)
        assert (colors >= 0).sum() == 1
        assert len(vu) == 2
        assert_valid_list_coloring(gc, lists, colors, vu)

    def test_most_constrained_first(self):
        """A vertex with a singleton list must be processed before its
        neighbors can steal its only color."""
        # Path 0-1: v0 has {5}, v1 has {5, 7}. Dynamic order colors v0
        # first (smaller list), so both get colored.
        gc = cycle_graph(3)  # triangle 0-1-2
        lists = np.array([[5, -1], [5, 7], [5, 7]], dtype=np.int64)
        # Keep rectangular lists: pad with a distinct color for v0.
        lists[0] = [5, 5]  # duplicate harmless: set() dedupes to {5}
        colors, vu = greedy_list_color_dynamic(gc, lists, rng=1)
        assert colors[0] == 5  # the constrained vertex won its color

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            greedy_list_color_dynamic(empty_graph(3), np.zeros((2, 2), dtype=np.int64))

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_random_instances_valid(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        gc = erdos_renyi(n, float(rng.random()), seed=seed)
        L = int(rng.integers(1, 6))
        P = int(rng.integers(L, L + 10))
        lists = np.stack(
            [rng.choice(P, size=L, replace=False) for _ in range(n)]
        ).astype(np.int64)
        colors, vu = greedy_list_color_dynamic(gc, lists, rng=seed)
        assert_valid_list_coloring(gc, lists, colors, vu)


class TestBitsetMatchesSetsReference:
    """The bitset Algorithm 2 must reproduce the Python-set reference
    exactly (same colors AND same Vu) for any fixed seed — they draw
    the same random numbers and make identical canonical choices."""

    @staticmethod
    def assert_equivalent(gc, lists, seed):
        c_bits, vu_bits = greedy_list_color_dynamic(gc, lists, rng=seed)
        c_sets, vu_sets = greedy_list_color_dynamic_sets(gc, lists, rng=seed)
        np.testing.assert_array_equal(c_bits, c_sets)
        np.testing.assert_array_equal(vu_bits, vu_sets)
        assert_valid_list_coloring(gc, lists, c_bits, vu_bits)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        gc = erdos_renyi(n, float(rng.random()), seed=seed)
        L = int(rng.integers(1, 6))
        P = int(rng.integers(L, L + 10))
        lists = np.stack(
            [rng.choice(P, size=L, replace=False) for _ in range(n)]
        ).astype(np.int64)
        self.assert_equivalent(gc, lists, seed)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_multiword_palette(self, seed):
        """Palettes above 64 colors exercise multi-word bitsets."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 35))
        gc = erdos_renyi(n, 0.5, seed=seed)
        L = int(rng.integers(2, 9))
        P = int(rng.integers(70, 200))
        lists = np.stack(
            [rng.choice(P, size=L, replace=False) for _ in range(n)]
        ).astype(np.int64)
        # Multi-word with high probability; the rare draw where every
        # chosen color lands in word 0 proves nothing about multi-word
        # bitsets, so skip it rather than fail on the test data itself.
        assume(int(lists.max()) >= 64)
        self.assert_equivalent(gc, lists, seed)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_degenerate_sizes(self, n):
        gc = empty_graph(n)
        lists = np.tile(np.arange(3, dtype=np.int64), (n, 1))
        self.assert_equivalent(gc, lists, seed=0)
        if n == 2:
            gc = complete_graph(2)
            lists = np.zeros((2, 1), dtype=np.int64)  # forced conflict
            self.assert_equivalent(gc, lists, seed=1)

    def test_duplicate_candidates_collapse(self):
        gc = cycle_graph(4)
        lists = np.array([[5, 5], [5, 7], [7, 5], [5, 7]], dtype=np.int64)
        self.assert_equivalent(gc, lists, seed=3)

    @pytest.mark.parametrize(
        "case", ["H4_2D_sto3g-aggressive", "rand300x8-normal"]
    )
    def test_fused_builder_conflict_graphs(self, case):
        """Every iteration's Algorithm 2 input from a real run on an
        explicit graph.  The Aggressive run has L = P (full lists), so every vertex
        starts in the top bucket and the lower buckets grow from
        empty."""
        if case == "H4_2D_sto3g-aggressive":
            calls = algorithm2_inputs(
                load_molecule("H4_2D_sto3g"), aggressive_params()
            )
            lists = calls[0][1]
            assert lists.shape[1] == int(lists.max()) + 1  # L = P
        else:
            calls = algorithm2_inputs(
                random_pauli_set(300, 8, seed=5), normal_params()
            )
        assert len(calls) >= 2
        gc = calls[0][0]
        assert gc.targets.dtype == np.int32
        # Rows are rotated (targets above v first, then below it).
        assert any(
            (np.diff(gc.neighbors(v)) < 0).any() for v in range(gc.n_vertices)
        )
        for seed, (gc, lists) in enumerate(calls):
            self.assert_equivalent(gc, lists, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_multiword_palette_high_degree(self, seed):
        """Multi-word bitsets under neighbor updates of several hundred
        vertices per step."""
        rng = np.random.default_rng(seed)
        n, P = 400, 150
        gc = erdos_renyi(n, 0.7, seed=seed)
        assert gc.degree().min() >= 200
        L = (12, 40, P)[seed]
        lists = np.stack(
            [rng.choice(P, size=L, replace=False) for _ in range(n)]
        ).astype(np.int64)
        self.assert_equivalent(gc, lists, seed)

    def test_padding_rows_join_vu(self):
        """All-padding rows (negative ids) have no candidates: both
        engines send them to Vu, so Vu is exactly the -1 vertices."""
        gc = empty_graph(3)
        lists = np.array([[0, 1], [-1, -1], [2, 0]], dtype=np.int64)
        self.assert_equivalent(gc, lists, seed=0)
        colors, vu = greedy_list_color_dynamic(gc, lists, rng=0)
        assert colors[1] == -1
        np.testing.assert_array_equal(vu, [1])
        assert (colors[[0, 2]] >= 0).all()

    @pytest.mark.parametrize("p", [0.05, 0.8], ids=["sparse", "dense"])
    @pytest.mark.parametrize("n", [63, 64, 65, 128, 200])
    def test_key_blocks(self, n, p):
        """Keys sit in blocks of 64 at these sizes: one partial block
        (63), whole blocks only (64, 128), and a partial last block (65,
        200)."""
        rng = np.random.default_rng(n)
        gc = erdos_renyi(n, p, seed=n)
        lists = np.stack(
            [rng.choice(90, size=6, replace=False) for _ in range(n)]
        ).astype(np.int64)
        self.assert_equivalent(gc, lists, seed=n)

    @pytest.mark.parametrize("seed", range(3))
    def test_lists_empty_mid_run(self, seed):
        """On a dense graph with a small palette most lists empty while
        other vertices are still live; an emptied vertex is picked next
        and joins Vu without a draw."""
        rng = np.random.default_rng(seed)
        n = 150
        gc = erdos_renyi(n, 0.9, seed=seed)
        lists = np.stack(
            [rng.choice(10, size=4, replace=False) for _ in range(n)]
        ).astype(np.int64)
        self.assert_equivalent(gc, lists, seed)
        colors, vu = greedy_list_color_dynamic(gc, lists, rng=seed)
        assert 0 < (colors >= 0).sum() and len(vu) > n // 2


class TestEngineMemoryReport:
    """``GreedyDynamicEngine.color`` reports a ``peak_bytes`` (graph +
    charged scratch + colors) that must bound what the call allocates."""

    @staticmethod
    def traced_peak(gc, lists):
        tracemalloc.start()
        try:
            outcome = GreedyDynamicEngine().color(gc, lists, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, outcome

    def test_dense_conflict_graph(self):
        """Arcs >> n: a widened copy of the adjacency would break the
        bound.  Iteration 2 of an Aggressive H6 run."""
        calls = algorithm2_inputs(
            load_molecule("H6_2D_sto3g"), aggressive_params()
        )
        gc, lists = calls[1]
        assert len(gc.targets) > 100 * gc.n_vertices
        peak, outcome = self.traced_peak(gc, lists)
        assert peak <= outcome.peak_bytes

    def test_edgeless_graph_charges_bookkeeping(self):
        """No arcs, so the graph term gives no slack: the charged
        scratch alone must cover the per-vertex bookkeeping."""
        n, L, P = 20_000, 40, 300
        gc = CSRGraph(
            offsets=np.zeros(n + 1, dtype=np.int64),
            targets=np.zeros(0, dtype=np.int32),
        )
        lists = np.random.default_rng(0).integers(0, P, size=(n, L))
        peak, outcome = self.traced_peak(gc, lists)
        assert peak <= outcome.peak_bytes


class TestStatic:
    @pytest.mark.parametrize("order", ["natural", "random", "lf"])
    def test_valid_on_random(self, order):
        rng = np.random.default_rng(3)
        n = 30
        gc = erdos_renyi(n, 0.3, seed=3)
        lists = np.stack(
            [rng.choice(12, size=4, replace=False) for _ in range(n)]
        ).astype(np.int64)
        colors, vu = greedy_list_color_static(gc, lists, order, rng=0)
        assert_valid_list_coloring(gc, lists, colors, vu)

    @pytest.mark.parametrize("order", ["natural", "random", "lf"])
    def test_padding_is_skipped(self, order):
        """Negative ids are padding, never a color."""
        gc = empty_graph(2)
        lists = np.array([[-1, 5], [3, -1]], dtype=np.int64)
        colors, vu = greedy_list_color_static(gc, lists, order, rng=0)
        np.testing.assert_array_equal(colors, [5, 3])
        assert len(vu) == 0

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            greedy_list_color_static(
                empty_graph(2), np.zeros((2, 1), dtype=np.int64), "sl"
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            greedy_list_color_static(
                empty_graph(3), np.zeros((2, 2), dtype=np.int64)
            )

    def test_dynamic_not_worse_on_average(self):
        """The paper picks Algorithm 2 because it colors more vertices;
        check the tendency statistically on tight lists."""
        wins = ties = losses = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = 40
            gc = erdos_renyi(n, 0.4, seed=seed)
            lists = np.stack(
                [rng.choice(8, size=3, replace=False) for _ in range(n)]
            ).astype(np.int64)
            _, vu_dyn = greedy_list_color_dynamic(gc, lists, rng=seed)
            _, vu_nat = greedy_list_color_static(gc, lists, "natural", rng=seed)
            if len(vu_dyn) < len(vu_nat):
                wins += 1
            elif len(vu_dyn) == len(vu_nat):
                ties += 1
            else:
                losses += 1
        assert wins + ties >= losses
