"""Differential tests for the sweep plans: the inverted palette
index and the ``rows`` strips, with and without their palette test.

The index (:mod:`repro.device.palette_index`) and the ``rows`` plan
(:mod:`repro.device.tiles`) enumerate the same conflict pairs, so every
conflict build must come out bit-identical under either plan — serial,
2/3-worker pool and weighted cluster — and equal to the naive
all-pairs reference (:func:`naive_reference.naive_conflict_csr`,
"pairs" in the test names), also once reduced to the driver's coloring
state (conflicted vertex ids and the sub-CSR they induce).  The plans
are forced by patching the cost constant ``kappa`` (``0`` takes the
index for every sweep of two or more vertices, ``inf`` never does) and
switching the ``L = P`` rule off, so a forced ``rows`` plan always runs
the palette test; the unforced rule takes ``rows`` without it whenever
all lists equal the palette.  Inputs are adversarial: ``n`` at and around
a word boundary, ``P = 1``, ``L = P``, duplicate and identity strings,
fully commuting and fully anticommuting sets, and an explicit graph.
"""

import os
import pickle
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_reference import naive_conflict_csr, reference_coloring

from repro import telemetry
from repro.core import Picasso, PicassoParams
from repro.core.conflict import build_conflict_graph
from repro.core.palette import assign_color_lists
from repro.core.params import aggressive_params
from repro.core.sources import ExplicitGraphSource, PauliComplementSource
from repro.datasets import load_molecule
from repro.device import palette_index
from repro.device import multi as multi_module
from repro.device.csr_build import build_conflict_csr
from repro.device.multi import build_conflict_csr_multi
from repro.device.palette_index import PaletteIndex, candidate_pairs, prefers_index
from repro.device.sim import DeviceSim
from repro.device.tiles import STRIP_BYTES, strip_height
from repro.graphs.csr import csr_from_coo_chunks, key_layout, key_pairs, pair_keys
from repro.graphs.build import complement_graph
from repro.graphs.generators import erdos_renyi
from repro.graphs.ops import induced_subgraph
from repro.parallel import PoolExecutor, pool
from repro.pauli import PauliSet, random_pauli_set
from repro.util.bits import bitset_from_lists, popcount_rows

_CI_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))
_WORKER_COUNTS = sorted({2, 3, _CI_WORKERS})

PLANS = ("index", "rows")


def _any_edge(i, j):
    """A pairwise oracle for plan-choice tests (its answers are unused)."""
    return np.ones(len(i), dtype=np.uint8)


def _any_block(r0, r1, c0, c1):
    """A block oracle for plan-choice tests (its answers are unused)."""
    return np.ones((r1 - r0, c1 - c0), dtype=bool)


def force_plan(monkeypatch, plan: str) -> None:
    """Force the index or the ``rows`` plan, with the ``L = P`` rule
    off (so ``rows`` runs its palette test)."""
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


def _build_state(ps, pal, **kw):
    """The driver's host conflict state: ``(sub-CSR, conflicted, m)``."""
    graph, m = _build(ps, pal, **kw)
    return (*_induced(graph), m)


def _naive(ps, pal):
    """The naive reference graph of a Pauli problem."""
    return naive_conflict_csr(ps.n, PauliComplementSource(ps).edge_mask, pal[0])


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

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pickle_drops_entry_colors(self, case):
        """Worker payloads carry the index without the entry colors,
        which only the parent's detection and bucket query read."""
        _, pal = _palette(case)
        index = PaletteIndex(pal[0])
        wire = pickle.dumps(index)
        assert len(wire) <= len(pickle.dumps(vars(index))) - index.color.nbytes
        got = pickle.loads(wire)
        assert not hasattr(got, "color")
        blocks, _ = index.row_blocks(3)
        for a, b in blocks:
            np.testing.assert_array_equal(got.block_keys(a, b), index.block_keys(a, b))

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
    whose packed bitset holds it.  One 64-color word column is unpacked
    at a time, so the scratch is ``64 n`` bytes, not ``n P``."""
    masks = bitset_from_lists(lists, palette).astype("<u8", copy=False)
    buckets: list[np.ndarray] = []
    for w in range(masks.shape[1]):
        word = np.ascontiguousarray(masks[:, w]).view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(word, axis=1, bitorder="little").T.copy()
        buckets.extend(np.flatnonzero(b) for b in bits[: palette - 64 * w])
    return buckets


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
        index rule, builds no bitsets, and its strips fit the strip
        budget.  A pinned height is kept."""
        for n, palette in ((50, 5), (400, 40), (2000, 100)):
            lists = assign_color_lists(n, palette, palette, rng=0)
            assert candidate_pairs(lists) == palette * n * (n - 1) // 2
            assert not prefers_index(n, lists, palette)
            with monkeypatch.context() as m:
                m.setattr(pool, "prefers_index", None)  # not consulted
                plan, height, masks = pool.sweep_plan(
                    n, lists, palette, _any_edge, _any_block
                )
            assert plan == "rows" and masks is None
            assert height == strip_height(n, STRIP_BYTES)
            assert height * n * 10 <= STRIP_BYTES
            plan, height, _ = pool.sweep_plan(
                n, lists, palette, _any_edge, _any_block, height=7
            )
            assert plan == "rows" and height == 7

    def test_equal_empty_lists_are_not_rows(self):
        """Equal but empty lists share nothing: no ``rows`` plan."""
        lists = np.zeros((50, 0), dtype=np.int64)
        plan, _, _ = pool.sweep_plan(50, lists, 2, _any_edge, _any_block)
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

    def test_block_less_full_palette_is_not_the_index(self, monkeypatch):
        """A block-less oracle never takes the index when every list is
        the palette (``C = P`` times the pair count): it sweeps rows
        without the palette test and answers every pair through the
        pairwise oracle.  A pinned height is kept; a pinned ``rows``
        sweep of lists short of the palette ANDs their packed bitsets."""
        lists = assign_color_lists(65, 5, 5, rng=0)
        assert palette_index.all_pairs_share(lists, 5)
        with monkeypatch.context() as m:
            m.setattr(pool, "prefers_index", None)  # not consulted
            plan, height, got = pool.sweep_plan(65, lists, 5, _any_edge)
        assert (plan, height, got) == ("rows", strip_height(65), None)
        short = assign_color_lists(65, 5, 2, rng=0)
        with monkeypatch.context() as m:
            m.setattr(pool, "prefers_index", lambda *a: False)
            plan, height, got = pool.sweep_plan(65, short, 5, _any_edge)
        assert (plan, height) == ("rows", strip_height(65))
        np.testing.assert_array_equal(got, bitset_from_lists(short, 5))
        assert pool.sweep_plan(65, lists, 5, _any_edge, height=64) == ("rows", 64, None)
        short = assign_color_lists(65, 5, 2, rng=0)
        plan, height, got = pool.sweep_plan(65, short, 5, _any_edge, height=64)
        assert (plan, height) == ("rows", 64)
        np.testing.assert_array_equal(got, bitset_from_lists(short, 5))

    def test_index_for_normal_preset_at_scale(self):
        n = 4000
        params = PicassoParams()
        palette = params.palette_size(n)
        lists = assign_color_lists(n, palette, params.list_size(n), rng=0)
        assert prefers_index(n, lists, palette)
        for block_fn in (None, _any_block):
            index, height, masks = pool.sweep_plan(
                n, lists, palette, _any_edge, block_fn
            )
            assert isinstance(index, PaletteIndex) and height is None
            assert masks is None

    def test_pinned_height_and_block_only_oracle_keep_rows(self, monkeypatch):
        force_plan(monkeypatch, "index")
        _, pal = _palette("n65")
        assert pool.sweep_plan(65, *pal, _any_edge, _any_block, 64)[:2] == ("rows", 64)
        plan, height, masks = pool.sweep_plan(65, *pal, None, _any_block)
        assert plan == "rows" and height == strip_height(65)
        np.testing.assert_array_equal(masks, bitset_from_lists(*pal))

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
        """Every forced plan (the index, and the ``rows`` strips with
        their palette test) builds the naive reference's CSR and
        conflict state."""
        ps, pal = _palette(case)
        ref, m_ref = _naive(ps, pal)
        sub_ref = _induced(ref)
        for plan in PLANS:
            force_plan(monkeypatch, plan)
            got, m = _build(ps, pal)
            assert m == m_ref
            _assert_csr_equal(got, ref)
            sub, conflicted, m_state = _build_state(ps, pal)
            assert m_state == m_ref
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
        force_plan(monkeypatch, "rows")
        _build(ps, pal)
        assert calls == []

    def test_explicit_graph_source(self, monkeypatch):
        g = erdos_renyi(90, 0.3, seed=5)
        src = ExplicitGraphSource(g)
        pal = (assign_color_lists(90, 12, 3, rng=1), 12)
        ref, m_ref = naive_conflict_csr(90, src.edge_mask, pal[0])
        for plan in PLANS:
            force_plan(monkeypatch, plan)
            got, m = build_conflict_graph(
                90, src.edge_mask, *pal, edge_block_fn=src.edge_block
            )
            assert m == m_ref
            _assert_csr_equal(got, ref)

    def test_device_build_sweeps_rows(self, monkeypatch):
        """The DeviceSim build pins its budgeted strip height, so it
        never builds an index even when the rule would pick one."""
        ps, pal = _palette("n65")
        src = PauliComplementSource(ps)
        ref, _ = _naive(ps, pal)
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
                ref, m_ref = _naive(ps, pal)
                sub_ref = _induced(ref)
                got, m = _build(ps, pal, executor=ex)
                assert m == m_ref
                _assert_csr_equal(got, ref)
                sub, conflicted, m_state = _build_state(ps, pal, executor=ex)
                assert m_state == m_ref
                _assert_csr_equal(sub, sub_ref[0])
                np.testing.assert_array_equal(conflicted, sub_ref[1])

    def test_weighted_cluster_bit_identical(self, monkeypatch):
        """Mixed-capacity agents get capacity-weighted row blocks under
        the positional deal; full and sub-CSR builds stay identical."""
        from repro.distributed import ClusterExecutor, LocalCluster

        ps = random_pauli_set(300, 8, seed=12)
        pal = (assign_color_lists(300, 40, 6, rng=4), 40)
        ref, m_ref = _naive(ps, pal)
        sub_ref = _induced(ref)
        monkeypatch.setattr(palette_index, "INDEX_BLOCK_CANDIDATES", 256)
        force_plan(monkeypatch, "index")
        with LocalCluster(1) as flat, LocalCluster(1, inner_workers=2) as hier:
            with ClusterExecutor(flat.hosts + hier.hosts) as ex:
                assert ex.worker_capacities() == [1, 2]
                got, m = _build(ps, pal, executor=ex)
                sub, conflicted, m_state = _build_state(ps, pal, executor=ex)
        assert m == m_state == m_ref
        _assert_csr_equal(got, ref)
        _assert_csr_equal(sub, sub_ref[0])
        np.testing.assert_array_equal(conflicted, sub_ref[1])

    def test_pool_explicit_graph(self, monkeypatch):
        g = erdos_renyi(120, 0.2, seed=6)
        src = ExplicitGraphSource(g)
        pal = (assign_color_lists(120, 15, 3, rng=3), 15)
        ref, m_ref = naive_conflict_csr(120, src.edge_mask, pal[0])
        force_plan(monkeypatch, "index")
        got, m = build_conflict_graph(
            120, src.edge_mask, *pal, edge_block_fn=src.edge_block,
            n_workers=2,
        )
        assert m == m_ref
        _assert_csr_equal(got, ref)


@pytest.fixture(scope="module")
def pool2():
    """One 2-worker pool for every example of the property test."""
    with PoolExecutor(2) as ex:
        yield ex


class TestPlansAgainstNaive:
    @given(
        n=st.sampled_from([0, 1, 2, 63, 64, 65]),
        shape=st.sampled_from(["L=1", "L=P", "P=1"]),
        palette=st.integers(2, 70),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_every_plan_matches_naive(self, pool2, n, shape, palette, seed):
        """Each plan, forced, serial and on a 2-worker pool, builds the
        naive reference's CSR and conflict state: index and ``rows``
        with its palette test through the patch, and ``rows`` without
        it wherever every list is the palette (the rule's own pick)."""
        palette = 1 if shape == "P=1" else palette
        list_size = palette if shape == "L=P" else 1
        ps = _random(n, seed=seed % 1000)
        src = PauliComplementSource(ps)
        pal = (assign_color_lists(n, palette, list_size, rng=seed), palette)
        ref, m_ref = naive_conflict_csr(n, src.edge_mask, pal[0])
        sub_ref, conflicted_ref = _induced(ref)
        plans = [(plan, True) for plan in PLANS]
        if palette_index.all_pairs_share(pal[0], palette):
            plans.append(("rows", False))
        for plan, forced in plans:
            with pytest.MonkeyPatch.context() as mp:
                if forced:
                    force_plan(mp, plan)
                chosen, _, masks = pool.sweep_plan(
                    n, *pal, src.edge_mask, src.edge_block
                )
                assert n < 2 or pool._plan_name(chosen) == plan
                assert n < 2 or (masks is None) == (plan == "index" or not forced)
                for ex in ("serial", pool2):
                    got, m = _build(ps, pal, executor=ex)
                    assert m == m_ref
                    _assert_csr_equal(got, ref)
                    sub, conflicted, m_state = _build_state(ps, pal, executor=ex)
                    assert m_state == m_ref
                    _assert_csr_equal(sub, sub_ref)
                    np.testing.assert_array_equal(conflicted, conflicted_ref)


class TestPicasso:
    """Whole runs under every plan against :func:`reference_coloring`
    (the ``sets`` color engine on naive all-pairs builds).  A Pauli run
    builds no conflict graph, so the plans run on a 2-worker pool as
    its ``exact_edges`` counts; the explicit complement graph, which
    colors through its own arcs, must agree as well."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_colorings_match_pairs_per_seed(self, seed, monkeypatch):
        ps = random_pauli_set(200, 8, seed=20 + seed)
        ref = reference_coloring(ps, seed)
        serial = Picasso(PicassoParams(), seed=seed).color(ps)
        np.testing.assert_array_equal(serial.colors, ref.colors)
        graph = complement_graph(ps)
        for plan in PLANS:
            force_plan(monkeypatch, plan)
            counted = Picasso(PicassoParams(n_workers=2), seed=seed,
                              exact_edges=True).color(ps)
            built = Picasso(PicassoParams(n_workers=2), seed=seed).color(graph)
            for got in (counted, built):
                np.testing.assert_array_equal(got.colors, ref.colors)
                assert [s.n_conflict_edges for s in got.iterations] == [
                    s.n_conflict_edges for s in ref.iterations
                ]

    def test_pool_coloring_matches_pairs(self, monkeypatch):
        ps = random_pauli_set(200, 8, seed=30)
        ref = reference_coloring(ps, 4)
        force_plan(monkeypatch, "index")
        got = Picasso(PicassoParams(n_workers=2), seed=4).color(ps)
        np.testing.assert_array_equal(got.colors, ref.colors)

    def test_explicit_graph_coloring_matches_pairs(self, monkeypatch):
        g = erdos_renyi(150, 0.4, seed=8)
        ref = reference_coloring(g, 5)
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


def _rows_build_state(n, src, pal, **kw):
    graph, m = _rows_build(n, src, pal, **kw)
    return (*_induced(graph), m)


def _pinned_rows(n, src, pal):
    """The ``rows`` sweep at a pinned height of 64 rows, with its
    palette test switched on, assembled."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pool, "all_pairs_share", lambda col_lists, palette_size: False)
        chunks = [
            keys
            for keys in pool.conflict_sweep_chunks(
                n, src.edge_mask, *pal, edge_block_fn=src.edge_block, height=64
            )
            if len(keys)
        ]
    m = sum(len(keys) for keys in chunks)
    return csr_from_coo_chunks(chunks, n), m


def _assert_rows_matches(n, src, pal, **kw):
    """The ``rows`` build equals the naive reference and the pinned
    sweep with its palette test, full-width and as the driver's
    sub-CSR."""
    plan, _, _ = pool.sweep_plan(n, *pal, src.edge_mask, src.edge_block)
    assert plan == "rows"
    ref, m_ref = naive_conflict_csr(n, src.edge_mask, pal[0])
    pinned, m_pinned = _pinned_rows(n, src, pal)
    assert m_pinned == m_ref
    _assert_csr_equal(pinned, ref)
    got, m = _rows_build(n, src, pal, **kw)
    assert m == m_ref
    _assert_csr_equal(got, ref)
    sub_ref, conflicted_ref = _induced(ref)
    sub, conflicted, m_state = _rows_build_state(n, src, pal, **kw)
    assert m_state == m_ref
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
    def test_serial_bit_identical(self, problem, monkeypatch):
        _, n, src, pal = problem
        _assert_rows_matches(n, src, pal)
        # Strips of one and of seven rows: every strip shape, the same CSR.
        for height in (1, 7):
            monkeypatch.setattr(pool, "strip_height", lambda n, h=height: h)
            _assert_rows_matches(n, src, pal)

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
                tasks, weights = pool.sweep_strip_tasks(300, ex, "rows")
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
                    height=7, executor=ex,
                ))
            keys = _keys(chunks, n)
            assert (np.diff(keys) > 0).all()
            _, m = naive_conflict_csr(n, src.edge_mask, pal[0])
            assert len(keys) == m

    def test_aggressive_hamiltonian_counts_only_rows(self):
        """An Aggressive run on H4's complement graph is ``L = P`` at
        every iteration: the telemetry counts one ``rows`` plan per
        sweep (one build per iteration; ``greedy-static`` colors a built
        graph) and nothing else, and pool strips are tagged
        ``plan="rows"``."""
        graph = complement_graph(load_molecule("H4_2D_sto3g"))
        try:
            result = Picasso(aggressive_params(
                n_workers=2, telemetry=True, color_engine="greedy-static",
            ), seed=0).color(graph)
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
    """Every plan yields 1-D CSR key arrays in ``key_layout(n)``,
    arriving strictly increasing, so the assembly takes them
    unsorted-check only."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("plan", PLANS)
    def test_every_plan_yields_keys(self, plan, n_workers, monkeypatch):
        ps = random_pauli_set(300, 8, seed=13)
        pal = (assign_color_lists(300, 40, 6, rng=5), 40)
        _, m_ref = _naive(ps, pal)
        monkeypatch.setattr(palette_index, "INDEX_BLOCK_CANDIDATES", 256)
        force_plan(monkeypatch, plan)
        with PoolExecutor(n_workers) if n_workers > 1 else nullcontext() as ex:
            chunks = _stream(ps, pal, ex)
        assert len(chunks) > 1
        keys = _keys(chunks, 300)
        assert len(keys) == m_ref
        assert (np.diff(keys) > 0).all()

    def test_index_blocks_strictly_increasing(self):
        _, pal = _palette("n65")
        index = PaletteIndex(pal[0])
        blocks, _ = index.row_blocks(5)
        keys = [index.block_keys(a, b) for a, b in blocks]
        assert all(k.dtype == np.int32 for k in keys)
        assert (np.diff(np.concatenate(keys)) > 0).all()

    def test_hit_bytes_counts_key_width(self):
        """``sweep.hit_bytes`` is the gathered key bytes: ``m`` times the
        4-byte key width, on a 2-worker pool, and a driver run that
        builds its graphs (``greedy-static``) counts the same figure."""
        ps = random_pauli_set(300, 8, seed=14)
        pal = (assign_color_lists(300, 40, 6, rng=6), 40)
        telemetry.reset()
        telemetry.enable(True)
        try:
            with PoolExecutor(2) as ex:
                _, m = _build(ps, pal, executor=ex)
            counters = telemetry.snapshot()["counters"]
            telemetry.reset()
            result = Picasso(PicassoParams(
                n_workers=2, telemetry=True, color_engine="greedy-static",
            ), seed=1).color(ps)
        finally:
            telemetry.reset()
            telemetry.enable(False)
        assert m > 0
        assert counters["sweep.hit_bytes"] == 4 * m
        edges = sum(it.n_conflict_edges for it in result.iterations)
        assert result.telemetry["counters"]["sweep.hit_bytes"] == 4 * edges > 0


#: name -> PicassoParams knobs: lists short of the palette with sparse
#: and with dense sharing, lists that are the palette, one color.
REGIMES = {
    "L<P-sparse": {},
    "L<P-dense": {"palette_fraction": 0.2, "alpha": 1.5},
    "L=P": {"palette_fraction": 0.03, "alpha": 30.0},
    "P=1": {"palette_fraction": 0.001},
}

#: name -> input: a Pauli set and an explicit graph.
SOURCES = {
    "pauli": lambda: random_pauli_set(120, 8, seed=41),
    "explicit": lambda: erdos_renyi(100, 0.3, seed=42),
}


class TestEveryPathAgainstNaive:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_colors_and_edges_match_reference(self, kind, regime):
        """Every build path under every plan against the naive reference:
        whole runs (serial, ``n_workers=2``, DeviceSim with 1 and 2
        workers; host Pauli runs count ``|Ec|`` with ``exact_edges``)
        give :func:`reference_coloring`'s colors and per-iteration
        ``|Ec|``, and 1-3 devices build its first conflict graph.  Each
        run takes the index forced, ``rows`` forced with its palette
        test, and the rule's own pick."""
        inp, knobs, seed = SOURCES[kind](), REGIMES[regime], 6
        ref = reference_coloring(inp, seed, **knobs)
        ref_edges = [s.n_conflict_edges for s in ref.iterations]
        params = PicassoParams(**knobs)
        n = inp.n if kind == "pauli" else inp.n_vertices
        src = PauliComplementSource(inp) if kind == "pauli" else ExplicitGraphSource(inp)
        lists = assign_color_lists(
            n, params.palette_size(n), params.list_size(n), rng=seed
        )
        pal = (lists, params.palette_size(n))
        assert palette_index.all_pairs_share(*pal) == (regime in ("L=P", "P=1"))
        graph_ref, m_ref = naive_conflict_csr(n, src.edge_mask, lists)
        for plan in (*PLANS, None):
            with pytest.MonkeyPatch.context() as mp:
                if plan is not None:
                    force_plan(mp, plan)
                    mp.setattr(multi_module, "all_pairs_share", lambda *a: False)
                runs = [
                    Picasso(PicassoParams(**knobs), seed=seed, exact_edges=True),
                    Picasso(PicassoParams(n_workers=2, **knobs), seed=seed,
                            exact_edges=True),
                    Picasso(PicassoParams(**knobs), seed=seed, device=DeviceSim()),
                    Picasso(PicassoParams(n_workers=2, **knobs), seed=seed,
                            device=DeviceSim()),
                ]
                for run in runs:
                    got = run.color(inp)
                    np.testing.assert_array_equal(got.colors, ref.colors)
                    assert [s.n_conflict_edges for s in got.iterations] == ref_edges
                for k in (1, 2, 3):
                    devices = [DeviceSim() for _ in range(k)]
                    graph, stats = build_conflict_csr_multi(
                        n, src.edge_mask, *pal, devices
                    )
                    assert stats.n_conflict_edges == m_ref
                    _assert_csr_equal(graph, graph_ref)
