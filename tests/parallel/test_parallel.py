"""Tests for pair-space partitioning and executor-routed conflict builds."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Picasso, PicassoParams
from repro.core.conflict import build_conflict_graph, count_conflict_edges
from repro.core.palette import assign_color_lists
from repro.core.sources import PauliComplementSource
from repro.device.backends import available_backends
from repro.parallel import (
    PoolExecutor,
    parallel_conflict_graph,
    partition_pairs,
)
from repro.pauli import random_pauli_set
from repro.util.chunking import num_pairs

#: CI pins the backend-equivalence pool size via REPRO_TEST_N_WORKERS
#: (the Actions matrix sets 2); the suite always covers 2 and 3 too.
_CI_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))
_WORKER_COUNTS = sorted({2, 3, _CI_WORKERS})


class TestPartition:
    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=50, deadline=None)
    def test_covers_exactly(self, n, parts):
        ranges = partition_pairs(n, parts)
        total = 0
        prev_stop = 0
        for r in ranges:
            assert r.start == prev_stop
            prev_stop = r.stop
            total += len(r)
        assert total == num_pairs(n)

    def test_balanced(self):
        ranges = partition_pairs(100, 7)
        sizes = [len(r) for r in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            partition_pairs(10, 0)

    def test_degenerate(self):
        ranges = partition_pairs(1, 4)
        assert sum(len(r) for r in ranges) == 0


def _assert_bit_identical(got, ref):
    np.testing.assert_array_equal(got.offsets, ref.offsets)
    np.testing.assert_array_equal(got.targets, ref.targets)
    assert got.targets.dtype == ref.targets.dtype


class TestParallelConflictGraph:
    def _expected(self, ps, pal):
        src = PauliComplementSource(ps)
        return build_conflict_graph(ps.n, src.edge_mask, *pal)

    @pytest.mark.parametrize("engine", ["tiled", "pairs"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_matches_sequential(self, n_workers, engine):
        ps = random_pauli_set(70, 6, seed=0)
        pal = (assign_color_lists(70, 12, 4, rng=0), 12)
        expect_g, expect_m = self._expected(ps, pal)
        got_g, got_m = parallel_conflict_graph(
            ps, *pal, n_workers=n_workers, chunk_size=101, engine=engine
        )
        assert got_m == expect_m
        _assert_bit_identical(got_g, expect_g)

    def test_anticommute_orientation(self):
        """want_anticommute flips which pairs count as edges."""
        ps = random_pauli_set(40, 5, seed=1)
        # Full palette overlap: every pair shares a color, so the
        # conflict graph equals the underlying edge set.
        pal = (assign_color_lists(40, 2, 2, rng=0), 2)
        g_comm, m_comm = parallel_conflict_graph(ps, *pal, n_workers=1)
        g_anti, m_anti = parallel_conflict_graph(
            ps, *pal, n_workers=1, want_anticommute=True
        )
        assert m_comm + m_anti == num_pairs(40)

    def test_anticommute_parallel_matches_serial(self):
        ps = random_pauli_set(50, 5, seed=4)
        pal = (assign_color_lists(50, 8, 3, rng=2), 8)
        ref, m_ref = parallel_conflict_graph(
            ps, *pal, n_workers=1, want_anticommute=True
        )
        got, m_got = parallel_conflict_graph(
            ps, *pal, n_workers=2, want_anticommute=True
        )
        assert m_got == m_ref
        _assert_bit_identical(got, ref)

    @pytest.mark.parametrize("chunk_size", [0, -1])
    @pytest.mark.parametrize(
        "n_workers,shm", [(1, False), (2, False), (2, True)],
        ids=["serial", "pool", "pool-shm"],
    )
    def test_bad_chunk_size_rejected(self, n_workers, shm, chunk_size):
        """Every gather path refuses a non-positive chunk size instead
        of sweeping nothing (a negative ``range`` step in each pool
        pair range) or failing inside a worker."""
        ps = random_pauli_set(40, 5, seed=3)
        pal = (assign_color_lists(40, 8, 3, rng=1), 8)
        with pytest.raises(ValueError, match="chunk_size"):
            parallel_conflict_graph(
                ps, *pal, n_workers=n_workers, chunk_size=chunk_size,
                engine="pairs", shm=shm,
            )

    def test_empty_conflicts(self):
        """Disjoint singleton lists across a huge palette -> few conflicts."""
        ps = random_pauli_set(30, 5, seed=2)
        lists = np.arange(30, dtype=np.int64).reshape(-1, 1)
        pal = (lists, 30)
        _, m = parallel_conflict_graph(ps, *pal, n_workers=2)
        assert m == 0


class TestBackendEquivalence:
    """ISSUE 2 acceptance: tiled-parallel builds are bit-identical to
    tiled-serial and to the pairs engine, and colorings match per seed."""

    def _build(self, ps, pal, **kw):
        src = PauliComplementSource(ps)
        return build_conflict_graph(
            ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block, **kw
        )

    @pytest.mark.parametrize("kernel_backend", available_backends())
    @pytest.mark.parametrize("n_workers", _WORKER_COUNTS)
    def test_tiled_parallel_bit_identical(self, n_workers, kernel_backend):
        ps = random_pauli_set(120, 7, seed=5)
        pal = (assign_color_lists(120, 18, 5, rng=3), 18)
        ref, m_ref = self._build(ps, pal)
        pairs, m_pairs = self._build(ps, pal, engine="pairs")
        got, m_got = self._build(
            ps, pal, n_workers=n_workers, kernel_backend=kernel_backend
        )
        serial, m_serial = self._build(
            ps, pal, kernel_backend=kernel_backend
        )
        assert m_got == m_ref == m_pairs == m_serial
        _assert_bit_identical(got, ref)
        _assert_bit_identical(got, pairs)
        _assert_bit_identical(serial, ref)

    @pytest.mark.parametrize("n_workers", _WORKER_COUNTS)
    def test_shm_gather_bit_identical(self, n_workers):
        """ISSUE 3 acceptance: the shared-memory gather reproduces the
        pickled gather bit for bit at every pool size."""
        ps = random_pauli_set(120, 7, seed=5)
        pal = (assign_color_lists(120, 18, 5, rng=3), 18)
        ref, m_ref = self._build(ps, pal)
        got, m_got = self._build(ps, pal, n_workers=n_workers, shm=True)
        assert m_got == m_ref
        _assert_bit_identical(got, ref)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_property_backends_agree_per_seed(self, seed):
        """For random seeds: serial tiled, parallel tiled (2 workers)
        and the pairs engine all build the same CSR bit for bit."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 90))
        ps = random_pauli_set(n, int(rng.integers(4, 9)), seed=seed)
        palette = int(rng.integers(2, max(3, n // 3)))
        lsize = int(rng.integers(1, palette + 1))
        pal = (assign_color_lists(n, palette, lsize, rng=seed), palette)
        ref, m_ref = self._build(ps, pal)
        par, m_par = self._build(ps, pal, n_workers=2)
        pairs, m_pairs = self._build(ps, pal, engine="pairs")
        assert m_par == m_ref == m_pairs
        _assert_bit_identical(par, ref)
        _assert_bit_identical(pairs, ref)

    @pytest.mark.parametrize("kernel_backend", available_backends())
    @pytest.mark.parametrize("n_workers", _WORKER_COUNTS)
    def test_picasso_colorings_identical(self, n_workers, kernel_backend):
        """End-to-end Algorithm 1: the parallel backend draws the same
        conflict graphs, so the coloring is identical per seed — on
        every available kernel backend."""
        ps = random_pauli_set(150, 8, seed=9)
        serial = Picasso(params=PicassoParams(), seed=11).color(ps)
        par = Picasso(
            params=PicassoParams(
                n_workers=n_workers, kernel_backend=kernel_backend
            ),
            seed=11,
        ).color(ps)
        np.testing.assert_array_equal(serial.colors, par.colors)
        assert serial.n_colors == par.n_colors
        pairs_par = Picasso(
            params=PicassoParams(engine="pairs", n_workers=n_workers), seed=11
        ).color(ps)
        np.testing.assert_array_equal(serial.colors, pairs_par.colors)

    def test_forced_pool_single_worker(self):
        """executor="pool" with one worker still routes through the
        process pool and stays bit-identical."""
        ps = random_pauli_set(60, 6, seed=6)
        pal = (assign_color_lists(60, 10, 3, rng=4), 10)
        ref, m_ref = self._build(ps, pal)
        got, m_got = self._build(ps, pal, n_workers=1, executor="pool")
        assert m_got == m_ref
        _assert_bit_identical(got, ref)

    def test_count_conflict_edges_parallel(self):
        ps = random_pauli_set(80, 6, seed=7)
        src = PauliComplementSource(ps)
        pal = (assign_color_lists(80, 12, 4, rng=5), 12)
        assert count_conflict_edges(
            80, src.edge_mask, *pal, n_workers=2
        ) == count_conflict_edges(80, src.edge_mask, *pal)

    def test_explicit_pool_executor_instance(self):
        ps = random_pauli_set(100, 7, seed=8)
        pal = (assign_color_lists(100, 15, 4, rng=6), 15)
        ref, m_ref = self._build(ps, pal)
        got, m_got = self._build(
            ps, pal, executor=PoolExecutor(_CI_WORKERS)
        )
        assert m_got == m_ref
        _assert_bit_identical(got, ref)
