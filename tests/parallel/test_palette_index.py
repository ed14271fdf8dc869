"""Differential tests for the inverted palette index.

The index (:mod:`repro.device.palette_index`) and the tile sweep
enumerate the same conflict pairs, so every conflict build must come
out bit-identical under either plan — serial, 2/3-worker pool and shm
gather — and equal to the ``"pairs"`` reference engine.  The driver's
build (conflicted sub-CSR plus vertex ids) must equal the full-width
reference graph reduced by a degree scan and ``induced_subgraph``.
The plan is forced by patching the cost constant ``kappa``: ``0``
takes the index for every sweep of two or more vertices, ``inf`` never
does.  Inputs are adversarial: ``n`` at and around a word
boundary, ``P = 1``, ``L = P``, duplicate and identity strings, fully
commuting and fully anticommuting sets, and an explicit graph.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Picasso, PicassoParams
from repro.core.conflict import build_conflict_graph, build_fused_conflict_state
from repro.core.palette import assign_color_lists
from repro.core.sources import ExplicitGraphSource, PauliComplementSource
from repro.device import palette_index
from repro.device.csr_build import build_conflict_csr
from repro.device.palette_index import PaletteIndex, candidate_pairs, prefers_index
from repro.device.sim import DeviceSim
from repro.graphs.generators import erdos_renyi
from repro.graphs.ops import induced_subgraph
from repro.parallel import PoolExecutor, pool
from repro.pauli import PauliSet, random_pauli_set
from repro.util.bits import popcount_rows

_CI_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))
_WORKER_COUNTS = sorted({2, 3, _CI_WORKERS})

PLANS = ("index", "tiles")


def _any_edge(i, j):
    """A pairwise oracle for plan-choice tests (its answers are unused)."""
    return np.ones(len(i), dtype=np.uint8)


def force_plan(monkeypatch, plan: str) -> None:
    kappa = 0.0 if plan == "index" else float("inf")
    monkeypatch.setattr(palette_index, "INDEX_COST_PER_CANDIDATE", kappa)


def _anticommuting(n_qubits: int) -> PauliSet:
    """``2N + 1`` mutually anticommuting strings (Jordan-Wigner
    Majoranas plus ``Z...Z``)."""
    strings = [
        "Z" * k + p + "I" * (n_qubits - k - 1)
        for k in range(n_qubits)
        for p in "XY"
    ]
    return PauliSet.from_strings(strings + ["Z" * n_qubits])


def _random(n: int, nq: int = 6, seed: int = 0) -> PauliSet:
    if n == 0:
        return PauliSet(np.zeros((0, nq), dtype=np.uint8))
    return random_pauli_set(n, nq, seed=seed)


def _diagonal(n: int, nq: int, seed: int) -> PauliSet:
    rng = np.random.default_rng(seed)
    return PauliSet(3 * rng.integers(0, 2, size=(n, nq), dtype=np.uint8))


#: name -> (pauli set, palette size, list size)
CASES = {
    "n0": (_random(0), 1, 1),
    "n1": (_random(1), 1, 1),
    "n2": (_random(2), 2, 1),
    "n63": (_random(63, seed=1), 8, 3),
    "n64": (_random(64, seed=2), 8, 3),
    "n65": (_random(65, seed=3), 8, 3),
    "P1": (_random(40, seed=4), 1, 1),
    "L=P": (_random(50, seed=5), 5, 5),
    "duplicates": (
        PauliSet(np.tile(_random(20, 5, seed=6).chars, (3, 1))), 6, 2
    ),
    "identity": (PauliSet(np.zeros((60, 5), dtype=np.uint8)), 6, 2),
    "all-commuting": (_diagonal(60, 6, seed=7), 6, 2),
    "all-anticommuting": (_anticommuting(32), 8, 3),
}


def _masks(case: str, seed: int = 0) -> tuple[PauliSet, np.ndarray]:
    ps, palette, list_size = CASES[case]
    _, masks = assign_color_lists(ps.n, palette, list_size, rng=seed)
    return ps, masks


def _assert_csr_equal(got, ref):
    np.testing.assert_array_equal(got.offsets, ref.offsets)
    np.testing.assert_array_equal(got.targets, ref.targets)
    assert got.targets.dtype == ref.targets.dtype


def _build(ps, masks, **kw):
    src = PauliComplementSource(ps)
    return build_conflict_graph(
        ps.n, src.edge_mask, masks, edge_block_fn=src.edge_block, **kw
    )


def _build_fused(ps, masks, **kw):
    src = PauliComplementSource(ps)
    return build_fused_conflict_state(
        ps.n, src.edge_mask, masks, edge_block_fn=src.edge_block, **kw
    )


def _induced(full):
    """The conflict state the driver's build must reproduce: the full
    graph's non-isolated vertices and the subgraph they induce."""
    conflicted = np.flatnonzero(full.degree())
    return induced_subgraph(full, conflicted)[0], conflicted


def _brute_shared(masks: np.ndarray) -> np.ndarray:
    """``(n, n)`` shared-color counts ``popcount(m_i & m_j)``."""
    n = len(masks)
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        out[i] = popcount_rows(masks[i][None, :] & masks)
    return out


class TestIndex:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_candidate_count_exact(self, case):
        _, masks = _masks(case)
        shared = np.triu(_brute_shared(masks), 1)
        index = PaletteIndex(masks)
        assert index.n_candidates == candidate_pairs(masks) == int(shared.sum())
        np.testing.assert_array_equal(
            np.diff(index.row_candidates), shared.sum(axis=1)
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("n_blocks", [1, 2, 7])
    def test_blocks_enumerate_sharing_pairs_sorted(self, case, n_blocks):
        _, masks = _masks(case)
        index = PaletteIndex(masks)
        blocks, weights = index.row_blocks(n_blocks)
        bounds = [a for a, _ in blocks] + [blocks[-1][1]] if blocks else []
        assert all(a < b for a, b in blocks)
        assert bounds == sorted(bounds)
        assert int(weights.sum()) == index.n_candidates
        pairs = [index.block_pairs(a, b) for a, b in blocks]
        i = np.concatenate([p[0] for p in pairs] + [np.empty(0, np.int64)])
        j = np.concatenate([p[1] for p in pairs] + [np.empty(0, np.int64)])
        ei, ej = np.nonzero(np.triu(_brute_shared(masks), 1))
        np.testing.assert_array_equal(i, ei)
        np.testing.assert_array_equal(j, ej)

    def test_weighted_blocks_keep_alignment(self):
        _, masks = _masks("n65")
        index = PaletteIndex(masks)
        blocks, weights = index.row_blocks(6, shares=[1, 3] * 3)
        assert len(blocks) == 6
        assert blocks[0][0] == 0 and blocks[-1][1] == 65
        assert int(weights.sum()) == index.n_candidates

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_property_blocks_match_brute(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 140))
        palette = int(rng.integers(1, 150))
        list_size = int(rng.integers(1, palette + 1))
        _, masks = assign_color_lists(n, palette, list_size, rng=seed)
        index = PaletteIndex(masks)
        blocks, _ = index.row_blocks(int(rng.integers(1, 9)))
        got = [index.block_pairs(a, b) for a, b in blocks]
        ei, ej = np.nonzero(np.triu(_brute_shared(masks), 1))
        keys = np.concatenate([i * max(n, 1) + j for i, j in got] + [ei[:0]])
        np.testing.assert_array_equal(keys, ei * max(n, 1) + ej)


class TestCostRule:
    def test_tiles_when_lists_fill_the_palette(self):
        """``L = P`` puts every vertex in every bucket, so ``C = P``
        times the pair count: the rule keeps the tile sweep."""
        for n, palette in ((50, 5), (400, 40), (2000, 100)):
            _, masks = assign_color_lists(n, palette, palette, rng=0)
            assert candidate_pairs(masks) == palette * n * (n - 1) // 2
            assert not prefers_index(n, masks)
            index, tile = pool.sweep_plan(n, masks, "tiled", None, None, _any_edge)
            assert index is None and tile is not None

    def test_index_for_normal_preset_at_scale(self):
        n = 4000
        params = PicassoParams()
        _, masks = assign_color_lists(
            n, params.palette_size(n), params.list_size(n), rng=0
        )
        assert prefers_index(n, masks)
        index, tile = pool.sweep_plan(n, masks, "tiled", None, None, _any_edge)
        assert isinstance(index, PaletteIndex) and tile is None

    def test_pinned_tile_pairs_engine_and_block_only_oracle_keep_tiles(
        self, monkeypatch
    ):
        force_plan(monkeypatch, "index")
        _, masks = _masks("n65")
        assert pool.sweep_plan(65, masks, "tiled", 64, None, _any_edge) == (None, 64)
        assert pool.sweep_plan(65, masks, "pairs", None, None, _any_edge) == (None, None)
        index, tile = pool.sweep_plan(65, masks, "tiled", None, None, None)
        assert index is None and tile is not None


class TestSerialEquivalence:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_index_tiles_pairs_bit_identical(self, case, monkeypatch):
        ps, masks = _masks(case)
        ref, m_ref = _build(ps, masks, engine="pairs")
        sub_ref = _induced(ref)
        sub, conflicted, m_fused = _build_fused(ps, masks, engine="pairs")
        assert m_fused == m_ref
        _assert_csr_equal(sub, sub_ref[0])
        np.testing.assert_array_equal(conflicted, sub_ref[1])
        for plan in PLANS:
            force_plan(monkeypatch, plan)
            got, m = _build(ps, masks)
            assert m == m_ref
            _assert_csr_equal(got, ref)
            sub, conflicted, m_fused = _build_fused(ps, masks)
            assert m_fused == m_ref
            _assert_csr_equal(sub, sub_ref[0])
            np.testing.assert_array_equal(conflicted, sub_ref[1])

    def test_index_plan_runs(self, monkeypatch):
        """Forcing kappa = 0 really routes the sweep through the index."""
        ps, masks = _masks("n64")
        calls = []
        original = PaletteIndex.block_hits

        def spy(self, a, b, edge_mask_fn):
            calls.append((a, b))
            return original(self, a, b, edge_mask_fn)

        monkeypatch.setattr(PaletteIndex, "block_hits", spy)
        force_plan(monkeypatch, "index")
        _build(ps, masks)
        assert calls and calls[0][0] == 0 and calls[-1][1] == 64
        calls.clear()
        force_plan(monkeypatch, "tiles")
        _build(ps, masks)
        assert calls == []

    def test_explicit_graph_source(self, monkeypatch):
        g = erdos_renyi(90, 0.3, seed=5)
        src = ExplicitGraphSource(g)
        _, masks = assign_color_lists(90, 12, 3, rng=1)
        ref, m_ref = build_conflict_graph(90, src.edge_mask, masks, engine="pairs")
        for plan in PLANS:
            force_plan(monkeypatch, plan)
            got, m = build_conflict_graph(
                90, src.edge_mask, masks, edge_block_fn=src.edge_block
            )
            assert m == m_ref
            _assert_csr_equal(got, ref)

    def test_device_build_keeps_tiles(self, monkeypatch):
        """The DeviceSim build pins its budgeted tile, so it never
        builds an index even when the rule would pick one."""
        ps, masks = _masks("n65")
        src = PauliComplementSource(ps)
        ref, _ = _build(ps, masks, engine="pairs")
        force_plan(monkeypatch, "index")

        def refuse(*args, **kwargs):
            raise AssertionError("device build must not build an index")

        monkeypatch.setattr(pool, "PaletteIndex", refuse)
        got, stats = build_conflict_csr(
            ps.n, src.edge_mask, masks, DeviceSim(),
            edge_block_fn=src.edge_block,
        )
        _assert_csr_equal(got, ref)


#: Pool builds are slower to set up; cover the cases whose structure
#: differs most, plus a plain random problem with several blocks.
POOL_CASES = ("n65", "P1", "duplicates", "all-anticommuting")


class TestPoolEquivalence:
    @pytest.mark.parametrize("shm", [False, True])
    @pytest.mark.parametrize("n_workers", _WORKER_COUNTS)
    def test_pool_bit_identical(self, n_workers, shm, monkeypatch):
        problems = [_masks(case) for case in POOL_CASES]
        ps = random_pauli_set(300, 8, seed=11)
        problems.append((ps, assign_color_lists(300, 40, 6, rng=2)[1]))
        # Small blocks, so every worker gets several row blocks.
        monkeypatch.setattr(palette_index, "INDEX_BLOCK_CANDIDATES", 256)
        force_plan(monkeypatch, "index")
        with PoolExecutor(n_workers) as ex:
            for ps, masks in problems:
                ref, m_ref = _build(ps, masks, engine="pairs")
                sub_ref = _induced(ref)
                got, m = _build(ps, masks, executor=ex, shm=shm)
                assert m == m_ref
                _assert_csr_equal(got, ref)
                sub, conflicted, m_fused = _build_fused(
                    ps, masks, executor=ex, shm=shm
                )
                assert m_fused == m_ref
                _assert_csr_equal(sub, sub_ref[0])
                np.testing.assert_array_equal(conflicted, sub_ref[1])

    def test_weighted_cluster_bit_identical(self, monkeypatch):
        """Mixed-capacity agents get capacity-weighted row blocks under
        the positional deal; full and sub-CSR builds stay identical."""
        from repro.distributed import ClusterExecutor, LocalCluster

        ps = random_pauli_set(300, 8, seed=12)
        _, masks = assign_color_lists(300, 40, 6, rng=4)
        ref, m_ref = _build(ps, masks, engine="pairs")
        sub_ref = _induced(ref)
        monkeypatch.setattr(palette_index, "INDEX_BLOCK_CANDIDATES", 256)
        force_plan(monkeypatch, "index")
        with LocalCluster(1) as flat, LocalCluster(1, inner_workers=2) as hier:
            with ClusterExecutor(flat.hosts + hier.hosts) as ex:
                assert ex.worker_capacities() == [1, 2]
                got, m = _build(ps, masks, executor=ex)
                sub, conflicted, m_fused = _build_fused(ps, masks, executor=ex)
        assert m == m_fused == m_ref
        _assert_csr_equal(got, ref)
        _assert_csr_equal(sub, sub_ref[0])
        np.testing.assert_array_equal(conflicted, sub_ref[1])

    def test_pool_explicit_graph(self, monkeypatch):
        g = erdos_renyi(120, 0.2, seed=6)
        src = ExplicitGraphSource(g)
        _, masks = assign_color_lists(120, 15, 3, rng=3)
        ref, m_ref = build_conflict_graph(120, src.edge_mask, masks, engine="pairs")
        force_plan(monkeypatch, "index")
        got, m = build_conflict_graph(
            120, src.edge_mask, masks, edge_block_fn=src.edge_block,
            n_workers=2,
        )
        assert m == m_ref
        _assert_csr_equal(got, ref)


class TestPicasso:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_colorings_match_pairs_per_seed(self, seed, monkeypatch):
        ps = random_pauli_set(200, 8, seed=20 + seed)
        ref = Picasso(PicassoParams(engine="pairs"), seed=seed).color(ps)
        for plan in PLANS:
            force_plan(monkeypatch, plan)
            got = Picasso(PicassoParams(), seed=seed).color(ps)
            np.testing.assert_array_equal(got.colors, ref.colors)
            assert [s.n_conflict_edges for s in got.iterations] == [
                s.n_conflict_edges for s in ref.iterations
            ]

    def test_pool_coloring_matches_pairs(self, monkeypatch):
        ps = random_pauli_set(200, 8, seed=30)
        ref = Picasso(PicassoParams(engine="pairs"), seed=4).color(ps)
        force_plan(monkeypatch, "index")
        for shm in (False, True):
            got = Picasso(
                PicassoParams(n_workers=2, shm_gather=shm), seed=4
            ).color(ps)
            np.testing.assert_array_equal(got.colors, ref.colors)

    def test_explicit_graph_coloring_matches_pairs(self, monkeypatch):
        g = erdos_renyi(150, 0.4, seed=8)
        ref = Picasso(PicassoParams(engine="pairs"), seed=5).color(g)
        force_plan(monkeypatch, "index")
        got = Picasso(seed=5).color(g)
        np.testing.assert_array_equal(got.colors, ref.colors)
        assert g.validate_coloring(got.colors)
