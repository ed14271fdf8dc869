"""Differential tests for the sweep plans: the inverted palette
index, the tile sweep and the ``L = P`` row strips.

The index (:mod:`repro.device.palette_index`), the tile sweep and the
``rows`` plan enumerate the same conflict pairs, so every conflict
build must come out bit-identical under any plan — serial, 2/3-worker
pool and weighted cluster — and equal to the ``"pairs"``
reference engine.  The driver's build (conflicted sub-CSR plus vertex
ids) must equal the full-width reference graph reduced by a degree
scan and ``induced_subgraph``.  The index and tile plans are forced by
patching the cost constant ``kappa`` (``0`` takes the index for every
sweep of two or more vertices, ``inf`` never does) and switching the
``rows`` rule off; ``rows`` is what the rule itself picks whenever all
lists equal the palette.  Inputs are adversarial: ``n`` at and around
a word boundary, ``P = 1``, ``L = P``, duplicate and identity strings,
fully commuting and fully anticommuting sets, and an explicit graph.
"""

import os
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import Picasso, PicassoParams
from repro.core.conflict import build_conflict_graph, build_fused_conflict_state
from repro.core.palette import assign_color_lists
from repro.core.params import aggressive_params
from repro.core.sources import ExplicitGraphSource, PauliComplementSource
from repro.datasets import load_molecule
from repro.device import palette_index
from repro.device.csr_build import build_conflict_csr
from repro.device.palette_index import PaletteIndex, candidate_pairs, prefers_index
from repro.device.sim import DeviceSim
from repro.device.tiles import DEFAULT_TILE_BYTES, strip_height
from repro.graphs.csr import csr_from_coo_chunks, key_layout, key_pairs, pair_keys
from repro.graphs.generators import erdos_renyi
from repro.graphs.ops import induced_subgraph
from repro.parallel import PoolExecutor, pool
from repro.pauli import PauliSet, random_pauli_set
from repro.util.bits import bitset_from_lists, popcount_rows

_CI_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))
_WORKER_COUNTS = sorted({2, 3, _CI_WORKERS})

PLANS = ("index", "tiles")


def _any_edge(i, j):
    """A pairwise oracle for plan-choice tests (its answers are unused)."""
    return np.ones(len(i), dtype=np.uint8)


def _any_block(r0, r1, c0, c1):
    """A block oracle for plan-choice tests (its answers are unused)."""
    return np.ones((r1 - r0, c1 - c0), dtype=bool)


def force_plan(monkeypatch, plan: str) -> None:
    """Force the index or the tile plan, with the ``rows`` rule off."""
    kappa = 0.0 if plan == "index" else float("inf")
    monkeypatch.setattr(palette_index, "INDEX_COST_PER_CANDIDATE", kappa)
    monkeypatch.setattr(pool, "all_pairs_share", lambda col_lists, palette_size: False)


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


def _palette(case: str, seed: int = 0) -> tuple[PauliSet, tuple[np.ndarray, int]]:
    """The case's Pauli set and its palette ``(lists, P)``."""
    ps, palette, list_size = CASES[case]
    return ps, (assign_color_lists(ps.n, palette, list_size, rng=seed), palette)


def _assert_csr_equal(got, ref):
    np.testing.assert_array_equal(got.offsets, ref.offsets)
    np.testing.assert_array_equal(got.targets, ref.targets)
    assert got.targets.dtype == ref.targets.dtype


def _build(ps, pal, **kw):
    src = PauliComplementSource(ps)
    return build_conflict_graph(
        ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block, **kw
    )


def _build_fused(ps, pal, **kw):
    src = PauliComplementSource(ps)
    return build_fused_conflict_state(
        ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block, **kw
    )


def _induced(full):
    """The conflict state the driver's build must reproduce: the full
    graph's non-isolated vertices and the subgraph they induce."""
    conflicted = np.flatnonzero(full.degree())
    return induced_subgraph(full, conflicted)[0], conflicted


def _brute_shared(pal: tuple[np.ndarray, int]) -> np.ndarray:
    """``(n, n)`` shared-color counts ``popcount(m_i & m_j)`` over the
    lists' packed bitsets."""
    masks = bitset_from_lists(*pal)
    n = len(masks)
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        out[i] = popcount_rows(masks[i][None, :] & masks)
    return out


class TestIndex:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_candidate_count_exact(self, case):
        _, pal = _palette(case)
        shared = np.triu(_brute_shared(pal), 1)
        index = PaletteIndex(pal[0])
        assert index.n_candidates == candidate_pairs(pal[0]) == int(shared.sum())
        np.testing.assert_array_equal(
            np.diff(index.row_candidates), shared.sum(axis=1)
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("n_blocks", [1, 2, 7])
    def test_blocks_enumerate_sharing_pairs_sorted(self, case, n_blocks):
        _, pal = _palette(case)
        n = len(pal[0])
        index = PaletteIndex(pal[0])
        blocks, weights = index.row_blocks(n_blocks)
        bounds = [a for a, _ in blocks] + [blocks[-1][1]] if blocks else []
        assert all(a < b for a, b in blocks)
        assert bounds == sorted(bounds)
        assert int(weights.sum()) == index.n_candidates
        keys = [index.block_keys(a, b) for a, b in blocks]
        assert all(k.dtype == key_layout(n)[1] for k in keys)
        i, j = key_pairs(np.concatenate([np.empty(0, np.int32), *keys]), n)
        ei, ej = np.nonzero(np.triu(_brute_shared(pal), 1))
        np.testing.assert_array_equal(i, ei)
        np.testing.assert_array_equal(j, ej)

    def test_weighted_blocks_keep_alignment(self):
        _, (lists, _) = _palette("n65")
        index = PaletteIndex(lists)
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
        lists = assign_color_lists(n, palette, list_size, rng=seed)
        index = PaletteIndex(lists)
        blocks, _ = index.row_blocks(int(rng.integers(1, 9)))
        got = [index.block_keys(a, b) for a, b in blocks]
        ei, ej = np.nonzero(np.triu(_brute_shared((lists, palette)), 1))
        keys = np.concatenate([np.empty(0, np.int32), *got])
        np.testing.assert_array_equal(keys, pair_keys(ei, ej, n))


def test_index_rejects_a_repeated_color():
    """A row holding a color twice would pair the vertex with itself."""
    with pytest.raises(ValueError, match="twice"):
        PaletteIndex(np.array([[0, 1], [2, 2], [1, 3]]))


def _naive_buckets(lists: np.ndarray, palette: int) -> list[np.ndarray]:
    """The bucket oracle: per color, the ascending ids of the vertices
    whose packed bitset holds it."""
    masks = bitset_from_lists(lists, palette).astype("<u8")
    bits = np.unpackbits(masks.view(np.uint8), axis=1, bitorder="little")
    return [np.flatnonzero(bits[:, c]) for c in range(palette)]


class TestIndexAgainstBucketOracle:
    """The list-built index against buckets read off the bitsets."""

    @pytest.mark.parametrize("n, palette, list_size", [
        (0, 4, 2), (1, 3, 3), (200, 64, 5), (300, 70, 40), (500, 9, 9),
        (32_768, 40_000, 2),  # the last n with int32 keys
        (32_769, 40_000, 2),  # the first with int64 keys
    ])
    def test_index_matches_oracle(self, n, palette, list_size):
        lists = assign_color_lists(n, palette, list_size, rng=n + palette)
        buckets = _naive_buckets(lists, palette)
        index = PaletteIndex(lists)
        np.testing.assert_array_equal(index.verts, np.concatenate(buckets))
        np.testing.assert_array_equal(
            index.later,
            np.concatenate([np.arange(len(b))[::-1] for b in buckets]),
        )
        per_row = np.zeros(n, dtype=np.int64)
        for b in buckets:
            np.add.at(per_row, b, np.arange(len(b))[::-1])
        np.testing.assert_array_equal(np.diff(index.row_candidates), per_row)
        sizes = np.array([len(b) for b in buckets])
        assert index.n_candidates == int((sizes * (sizes - 1) // 2).sum())
        pairs = [np.triu_indices(len(b), 1) for b in buckets]
        ref = np.unique(np.concatenate([
            np.empty(0, key_layout(n)[1]),
            *(pair_keys(b[p], b[q], n) for b, (p, q) in zip(buckets, pairs)),
        ]))
        blocks, _ = index.row_blocks(3)
        keys = [index.block_keys(a, b) for a, b in blocks]
        assert all(k.dtype == key_layout(n)[1] for k in keys)
        np.testing.assert_array_equal(
            np.concatenate([np.empty(0, key_layout(n)[1]), *keys]), ref
        )


class TestCostRule:
    def test_rows_when_lists_fill_the_palette(self, monkeypatch):
        """``L = P`` puts every vertex in every bucket, so ``C = P``
        times the pair count and the index never wins; with a block
        oracle the sweep takes the ``rows`` plan without consulting the
        index rule, builds no bitsets, and its strips fit the tile
        budget."""
        for n, palette in ((50, 5), (400, 40), (2000, 100)):
            lists = assign_color_lists(n, palette, palette, rng=0)
            assert candidate_pairs(lists) == palette * n * (n - 1) // 2
            assert not prefers_index(n, lists, palette)
            with monkeypatch.context() as m:
                m.setattr(pool, "prefers_index", None)  # not consulted
                plan, height, masks = pool.sweep_plan(
                    n, lists, palette, "tiled", None, None, _any_edge, _any_block
                )
            assert plan == "rows" and masks is None
            assert height == strip_height(n, DEFAULT_TILE_BYTES)
            assert height * n * 10 <= DEFAULT_TILE_BYTES
            plan, height, _ = pool.sweep_plan(
                n, lists, palette, "tiled", None, 1 << 14, _any_edge, _any_block
            )
            assert plan == "rows" and height == max(1, (1 << 14) // (10 * n))

    def test_equal_empty_lists_are_not_rows(self):
        """Equal but empty lists share nothing: no ``rows`` plan."""
        lists = np.zeros((50, 0), dtype=np.int64)
        plan, _, _ = pool.sweep_plan(
            50, lists, 2, "tiled", None, None, _any_edge, _any_block
        )
        assert plan != "rows"
        assert not palette_index.all_pairs_share(lists, 2)
        assert not palette_index.all_pairs_share(np.zeros((0, 2), np.int64), 2)

    def test_unequal_lists_are_not_rows(self):
        """Lists short of the palette (``L < P``) never take ``rows``,
        even when every pair happens to share a color."""
        lists = assign_color_lists(5000, 40, 39, rng=0)
        assert not palette_index.all_pairs_share(lists, 40)
        assert not palette_index.all_pairs_share(np.zeros((9, 1), np.int64), 2)
        assert palette_index.all_pairs_share(np.zeros((9, 1), np.int64), 1)

    def test_rows_needs_block_oracle_and_free_tile(self):
        """A block-less oracle, a pinned tile and the ``"pairs"`` engine
        never pick ``rows``, even when every list is the palette; they
        sweep the packed bitsets."""
        lists = assign_color_lists(65, 5, 5, rng=0)
        masks = bitset_from_lists(lists, 5)
        assert palette_index.all_pairs_share(lists, 5)
        plan, tile, got = pool.sweep_plan(
            65, lists, 5, "tiled", None, None, _any_edge, None
        )
        assert plan is None and tile is not None
        np.testing.assert_array_equal(got, masks)
        for engine, tile in (("tiled", 64), ("pairs", None)):
            plan, got_tile, got = pool.sweep_plan(
                65, lists, 5, engine, tile, None, _any_edge, _any_block
            )
            assert (plan, got_tile) == (None, tile)
            np.testing.assert_array_equal(got, masks)

    def test_index_for_normal_preset_at_scale(self):
        n = 4000
        params = PicassoParams()
        palette = params.palette_size(n)
        lists = assign_color_lists(n, palette, params.list_size(n), rng=0)
        assert prefers_index(n, lists, palette)
        for block_fn in (None, _any_block):
            index, tile, masks = pool.sweep_plan(
                n, lists, palette, "tiled", None, None, _any_edge, block_fn
            )
            assert isinstance(index, PaletteIndex) and tile is None
            assert masks is None

    def test_pinned_tile_pairs_engine_and_block_only_oracle_keep_tiles(
        self, monkeypatch
    ):
        force_plan(monkeypatch, "index")
        _, pal = _palette("n65")
        assert pool.sweep_plan(65, *pal, "tiled", 64, None, _any_edge)[:2] == (None, 64)
        assert pool.sweep_plan(65, *pal, "pairs", None, None, _any_edge)[:2] == (None, None)
        index, tile, _ = pool.sweep_plan(65, *pal, "tiled", None, None, None)
        assert index is None and tile is not None

    def test_rule_counts_buckets_like_the_bitsets(self):
        """The plan rule's candidate count, from a ``bincount`` of the
        lists, equals the count from the unpacked bitsets' per-color
        popcounts."""
        for n, palette, list_size in ((300, 70, 6), (1000, 130, 9), (40, 3, 2)):
            lists = assign_color_lists(n, palette, list_size, rng=n)
            bits = np.unpackbits(
                bitset_from_lists(lists, palette).astype("<u8").view(np.uint8),
                axis=1, bitorder="little",
            )[:, :palette]
            sizes = bits.sum(axis=0)
            assert candidate_pairs(lists) == int((sizes * (sizes - 1) // 2).sum())


class TestSerialEquivalence:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_index_tiles_pairs_bit_identical(self, case, monkeypatch):
        ps, pal = _palette(case)
        ref, m_ref = _build(ps, pal, engine="pairs")
        sub_ref = _induced(ref)
        sub, conflicted, m_fused = _build_fused(ps, pal, engine="pairs")
        assert m_fused == m_ref
        _assert_csr_equal(sub, sub_ref[0])
        np.testing.assert_array_equal(conflicted, sub_ref[1])
        for plan in PLANS:
            force_plan(monkeypatch, plan)
            got, m = _build(ps, pal)
            assert m == m_ref
            _assert_csr_equal(got, ref)
            sub, conflicted, m_fused = _build_fused(ps, pal)
            assert m_fused == m_ref
            _assert_csr_equal(sub, sub_ref[0])
            np.testing.assert_array_equal(conflicted, sub_ref[1])

    def test_index_plan_runs(self, monkeypatch):
        """Forcing kappa = 0 really routes the sweep through the index."""
        ps, pal = _palette("n64")
        calls = []
        original = PaletteIndex.block_hits

        def spy(self, a, b, edge_mask_fn):
            calls.append((a, b))
            return original(self, a, b, edge_mask_fn)

        monkeypatch.setattr(PaletteIndex, "block_hits", spy)
        force_plan(monkeypatch, "index")
        _build(ps, pal)
        assert calls and calls[0][0] == 0 and calls[-1][1] == 64
        calls.clear()
        force_plan(monkeypatch, "tiles")
        _build(ps, pal)
        assert calls == []

    def test_explicit_graph_source(self, monkeypatch):
        g = erdos_renyi(90, 0.3, seed=5)
        src = ExplicitGraphSource(g)
        pal = (assign_color_lists(90, 12, 3, rng=1), 12)
        ref, m_ref = build_conflict_graph(90, src.edge_mask, *pal, engine="pairs")
        for plan in PLANS:
            force_plan(monkeypatch, plan)
            got, m = build_conflict_graph(
                90, src.edge_mask, *pal, edge_block_fn=src.edge_block
            )
            assert m == m_ref
            _assert_csr_equal(got, ref)

    def test_device_build_keeps_tiles(self, monkeypatch):
        """The DeviceSim build pins its budgeted tile, so it never
        builds an index even when the rule would pick one."""
        ps, pal = _palette("n65")
        src = PauliComplementSource(ps)
        ref, _ = _build(ps, pal, engine="pairs")
        force_plan(monkeypatch, "index")

        def refuse(*args, **kwargs):
            raise AssertionError("device build must not build an index")

        monkeypatch.setattr(pool, "PaletteIndex", refuse)
        got, stats = build_conflict_csr(
            ps.n, src.edge_mask, *pal, DeviceSim(),
            edge_block_fn=src.edge_block,
        )
        _assert_csr_equal(got, ref)


#: Pool builds are slower to set up; cover the cases whose structure
#: differs most, plus a plain random problem with several blocks.
POOL_CASES = ("n65", "P1", "duplicates", "all-anticommuting")


class TestPoolEquivalence:
    @pytest.mark.parametrize("n_workers", _WORKER_COUNTS)
    def test_pool_bit_identical(self, n_workers, monkeypatch):
        problems = [_palette(case) for case in POOL_CASES]
        ps = random_pauli_set(300, 8, seed=11)
        problems.append((ps, (assign_color_lists(300, 40, 6, rng=2), 40)))
        # Small blocks, so every worker gets several row blocks.
        monkeypatch.setattr(palette_index, "INDEX_BLOCK_CANDIDATES", 256)
        force_plan(monkeypatch, "index")
        with PoolExecutor(n_workers) as ex:
            for ps, pal in problems:
                ref, m_ref = _build(ps, pal, engine="pairs")
                sub_ref = _induced(ref)
                got, m = _build(ps, pal, executor=ex)
                assert m == m_ref
                _assert_csr_equal(got, ref)
                sub, conflicted, m_fused = _build_fused(ps, pal, executor=ex)
                assert m_fused == m_ref
                _assert_csr_equal(sub, sub_ref[0])
                np.testing.assert_array_equal(conflicted, sub_ref[1])

    def test_weighted_cluster_bit_identical(self, monkeypatch):
        """Mixed-capacity agents get capacity-weighted row blocks under
        the positional deal; full and sub-CSR builds stay identical."""
        from repro.distributed import ClusterExecutor, LocalCluster

        ps = random_pauli_set(300, 8, seed=12)
        pal = (assign_color_lists(300, 40, 6, rng=4), 40)
        ref, m_ref = _build(ps, pal, engine="pairs")
        sub_ref = _induced(ref)
        monkeypatch.setattr(palette_index, "INDEX_BLOCK_CANDIDATES", 256)
        force_plan(monkeypatch, "index")
        with LocalCluster(1) as flat, LocalCluster(1, inner_workers=2) as hier:
            with ClusterExecutor(flat.hosts + hier.hosts) as ex:
                assert ex.worker_capacities() == [1, 2]
                got, m = _build(ps, pal, executor=ex)
                sub, conflicted, m_fused = _build_fused(ps, pal, executor=ex)
        assert m == m_fused == m_ref
        _assert_csr_equal(got, ref)
        _assert_csr_equal(sub, sub_ref[0])
        np.testing.assert_array_equal(conflicted, sub_ref[1])

    def test_pool_explicit_graph(self, monkeypatch):
        g = erdos_renyi(120, 0.2, seed=6)
        src = ExplicitGraphSource(g)
        pal = (assign_color_lists(120, 15, 3, rng=3), 15)
        ref, m_ref = build_conflict_graph(120, src.edge_mask, *pal, engine="pairs")
        force_plan(monkeypatch, "index")
        got, m = build_conflict_graph(
            120, src.edge_mask, *pal, edge_block_fn=src.edge_block,
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
        got = Picasso(PicassoParams(n_workers=2), seed=4).color(ps)
        np.testing.assert_array_equal(got.colors, ref.colors)

    def test_explicit_graph_coloring_matches_pairs(self, monkeypatch):
        g = erdos_renyi(150, 0.4, seed=8)
        ref = Picasso(PicassoParams(engine="pairs"), seed=5).color(g)
        force_plan(monkeypatch, "index")
        got = Picasso(seed=5).color(g)
        np.testing.assert_array_equal(got.colors, ref.colors)
        assert g.validate_coloring(got.colors)


def _rows_problems():
    """``L = P`` inputs for the ``rows`` plan: Pauli sets and explicit
    graphs, ``n`` in {1, 2, 65, 300}, ``P`` in {1, 5}; each as
    ``(name, n, source, pal)``."""
    out = []
    for n in (1, 2, 65, 300):
        for palette in (1, 5):
            pal = (assign_color_lists(n, palette, palette, rng=n), palette)
            sources = {
                "pauli": PauliComplementSource(random_pauli_set(n, 6, seed=n)),
                "explicit": ExplicitGraphSource(erdos_renyi(n, 0.3, seed=n)),
            }
            for kind, src in sources.items():
                out.append((f"{kind}-n{n}-P{palette}", n, src, pal))
    return out


ROWS_PROBLEMS = _rows_problems()


def _rows_build(n, src, pal, **kw):
    return build_conflict_graph(
        n, src.edge_mask, *pal, edge_block_fn=src.edge_block, **kw
    )


def _rows_build_fused(n, src, pal, **kw):
    return build_fused_conflict_state(
        n, src.edge_mask, *pal, edge_block_fn=src.edge_block, **kw
    )


def _pinned_tiles(n, src, pal):
    """The tile sweep with a pinned 64-wide tile, assembled."""
    chunks = [
        keys
        for keys in pool.conflict_sweep_chunks(
            n, src.edge_mask, *pal, edge_block_fn=src.edge_block, tile=64
        )
        if len(keys)
    ]
    m = sum(len(keys) for keys in chunks)
    return csr_from_coo_chunks(chunks, n), m


def _assert_rows_matches(n, src, pal, **kw):
    """The ``rows`` build equals the ``"pairs"`` engine and the
    pinned-tile sweep, full-width and as the driver's sub-CSR."""
    plan, _, _ = pool.sweep_plan(
        n, *pal, "tiled", None, None, src.edge_mask, src.edge_block
    )
    assert plan == "rows"
    ref, m_ref = build_conflict_graph(n, src.edge_mask, *pal, engine="pairs")
    tiles, m_tiles = _pinned_tiles(n, src, pal)
    assert m_tiles == m_ref
    _assert_csr_equal(tiles, ref)
    got, m = _rows_build(n, src, pal, **kw)
    assert m == m_ref
    _assert_csr_equal(got, ref)
    sub_ref, conflicted_ref = _induced(ref)
    sub, conflicted, m_fused = _rows_build_fused(n, src, pal, **kw)
    assert m_fused == m_ref
    _assert_csr_equal(sub, sub_ref)
    np.testing.assert_array_equal(conflicted, conflicted_ref)


def _keys(chunks, n):
    """One key array from a sweep's chunks, checked to be 1-D arrays in
    ``key_layout(n)`` that decode to pairs ``i < j``."""
    assert all(k.ndim == 1 and k.dtype == key_layout(n)[1] for k in chunks)
    keys = np.concatenate([np.empty(0, key_layout(n)[1]), *chunks])
    i, j = key_pairs(keys, n)
    assert (i < j).all() and (j < n).all()
    return keys


class TestRowsPlan:
    @pytest.mark.parametrize(
        "problem", ROWS_PROBLEMS, ids=[p[0] for p in ROWS_PROBLEMS]
    )
    def test_serial_bit_identical(self, problem):
        _, n, src, pal = problem
        _assert_rows_matches(n, src, pal)
        # Strips of one and of seven rows: every strip shape, the same CSR.
        for tile_bytes in (1, 70 * max(n, 1)):
            _assert_rows_matches(n, src, pal, tile_bytes=tile_bytes)

    @pytest.mark.parametrize("n_workers", _WORKER_COUNTS)
    def test_pool_bit_identical(self, n_workers):
        with PoolExecutor(n_workers) as ex:
            for _, n, src, pal in ROWS_PROBLEMS:
                _assert_rows_matches(n, src, pal, executor=ex)

    def test_weighted_cluster_bit_identical(self):
        """Mixed-capacity agents get capacity-weighted row ranges under
        the positional deal; full and sub-CSR builds stay identical."""
        from repro.distributed import ClusterExecutor, LocalCluster

        with LocalCluster(1) as flat, LocalCluster(1, inner_workers=2) as hier:
            with ClusterExecutor(flat.hosts + hier.hosts) as ex:
                assert ex.worker_capacities() == [1, 2]
                tasks, weights = pool.sweep_strip_tasks(300, "tiled", 7, ex, "rows")
                assert len(tasks) == ex.n_workers * pool.TASKS_PER_WORKER
                assert int(weights.sum()) == 300 * 299 // 2
                for _, n, src, pal in ROWS_PROBLEMS:
                    _assert_rows_matches(n, src, pal, executor=ex)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_hit_stream_in_key_order(self, n_workers):
        """Rows hits arrive strictly increasing in ``i << s | j`` (the
        CSR assembly's key), serial and gathered from a pool."""
        for _, n, src, pal in ROWS_PROBLEMS:
            with PoolExecutor(n_workers) if n_workers > 1 else nullcontext() as ex:
                chunks = list(pool.conflict_sweep_chunks(
                    n, src.edge_mask, *pal, edge_block_fn=src.edge_block,
                    tile_bytes=70 * n, executor=ex,
                ))
            keys = _keys(chunks, n)
            assert (np.diff(keys) > 0).all()
            _, m = _rows_build(n, src, pal, engine="pairs")
            assert len(keys) == m

    def test_aggressive_hamiltonian_counts_only_rows(self):
        """An Aggressive run on H4 is ``L = P`` at every iteration: the
        telemetry counts one ``rows`` plan per sweep and nothing else,
        and pool strips are tagged ``plan="rows"``."""
        ps = load_molecule("H4_2D_sto3g")
        try:
            result = Picasso(
                aggressive_params(n_workers=2, telemetry=True), seed=0
            ).color(ps)
        finally:
            telemetry.reset()
            telemetry.enable(False)
        counters = result.telemetry["counters"]
        plans = {k: v for k, v in counters.items() if k.startswith("sweep.plan.")}
        assert plans == {"sweep.plan.rows": float(len(result.iterations))}
        strips = [
            e["attrs"] for e in result.telemetry["events"]
            if e["name"] == "pool.strip"
        ]
        assert strips and all(a["plan"] == "rows" for a in strips)


def _stream(ps, pal, executor=None, **kw):
    src = PauliComplementSource(ps)
    return list(pool.conflict_sweep_chunks(
        ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block,
        executor=executor, **kw,
    ))


class TestKeyStream:
    """Every plan and engine yields 1-D CSR key arrays in
    ``key_layout(n)``; the index and ``rows`` streams arrive strictly
    increasing, so the assembly takes them unsorted-check only."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("plan", ["index", "rows", "tiles", "pairs"])
    def test_every_plan_yields_keys(self, plan, n_workers, monkeypatch):
        ps = random_pauli_set(300, 8, seed=13)
        list_size = 40 if plan == "rows" else 6
        pal = (assign_color_lists(300, 40, list_size, rng=5), 40)
        _, m_ref = _build(ps, pal, engine="pairs")
        if plan in PLANS:
            monkeypatch.setattr(palette_index, "INDEX_BLOCK_CANDIDATES", 256)
            force_plan(monkeypatch, plan)
        kw = {"engine": "pairs", "chunk_size": 4096} if plan == "pairs" else {}
        with PoolExecutor(n_workers) if n_workers > 1 else nullcontext() as ex:
            chunks = _stream(ps, pal, ex, **kw)
        assert len(chunks) > 1
        keys = _keys(chunks, 300)
        assert len(keys) == m_ref
        if plan in ("index", "rows"):
            assert (np.diff(keys) > 0).all()
        else:
            assert len(np.unique(keys)) == m_ref

    def test_index_blocks_strictly_increasing(self):
        _, pal = _palette("n65")
        index = PaletteIndex(pal[0])
        blocks, _ = index.row_blocks(5)
        keys = [index.block_keys(a, b) for a, b in blocks]
        assert all(k.dtype == np.int32 for k in keys)
        assert (np.diff(np.concatenate(keys)) > 0).all()

    def test_hit_bytes_counts_key_width(self):
        """``sweep.hit_bytes`` is the gathered key bytes: ``m`` times the
        4-byte key width, on a 2-worker pool, and the driver's
        iteration stats carry the same figure."""
        ps = random_pauli_set(300, 8, seed=14)
        pal = (assign_color_lists(300, 40, 6, rng=6), 40)
        telemetry.reset()
        telemetry.enable(True)
        try:
            with PoolExecutor(2) as ex:
                timings = {}
                _, _, m = _build_fused(ps, pal, executor=ex, timings=timings)
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.reset()
            telemetry.enable(False)
        assert m > 0
        assert counters["sweep.hit_bytes"] == timings["hit_bytes"] == 4 * m
        result = Picasso(PicassoParams(n_workers=2), seed=1).color(ps)
        for it in result.iterations:
            assert it.hit_bytes == 4 * it.n_conflict_edges


class TestFusedSubCsr:
    """``_fused_sub_csr`` marks the conflict vertices and relabels in
    key space; it must equal ``induced_subgraph`` of the full graph."""

    @pytest.mark.parametrize(
        "n, n_conflicted",
        [
            (120, 120),  # identity relabel: the keys pass straight through
            (120, 119),  # the last vertex is isolated
            (120, 50),  # the subgraph's keys shift by one bit less
            (40_000, 300),  # int64 keys in, int32 keys out
        ],
    )
    def test_matches_induced_subgraph(self, n, n_conflicted):
        rng = np.random.default_rng(n_conflicted)
        keep = np.sort(rng.choice(n, n_conflicted, replace=False))
        if n_conflicted < n:
            keep[-1] = min(keep[-1], n - 2)  # vertex n - 1 stays isolated
        # A cycle through the kept vertices (every one has an edge) plus
        # random chords among them.
        u = np.concatenate([keep, rng.choice(keep, 4 * n_conflicted)])
        v = np.concatenate([np.roll(keep, 1), rng.choice(keep, 4 * n_conflicted)])
        u, v = np.minimum(u, v)[u != v], np.maximum(u, v)[u != v]
        keys = np.unique(pair_keys(u, v, n))
        ref, conflicted_ref = _induced(csr_from_coo_chunks([keys.copy()], n))
        np.testing.assert_array_equal(conflicted_ref, np.unique(keep))
        chunks = np.split(keys, [7, len(keys) // 2, len(keys) // 2 + 1])
        sub, conflicted = pool._fused_sub_csr(n, chunks)
        assert chunks == []
        np.testing.assert_array_equal(conflicted, conflicted_ref)
        _assert_csr_equal(sub, ref)

    def test_no_edges(self):
        sub, conflicted = pool._fused_sub_csr(10, [])
        assert sub.n_vertices == 0 and len(conflicted) == 0
