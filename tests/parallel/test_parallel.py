"""Tests for pair-space partitioning and executor-routed conflict builds."""

import multiprocessing as mp
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_reference import naive_conflict_csr

from repro import telemetry
from repro.core import Picasso, PicassoParams
from repro.core.conflict import build_conflict_graph, count_conflict_edges
from repro.core.palette import assign_color_lists
from repro.core.sources import PauliComplementSource
from repro.device.palette_index import pair_blocks
from repro.parallel import PoolExecutor, pin_current_worker
from repro.pauli import random_pauli_set
from repro.pauli.anticommute import AnticommuteOracle
from repro.util.chunking import num_pairs

#: CI pins the backend-equivalence pool size via REPRO_TEST_N_WORKERS
#: (the Actions matrix sets 2); the suite always covers 2 and 3 too.
_CI_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))
_WORKER_COUNTS = sorted({2, 3, _CI_WORKERS})


class TestPartition:
    """The ``rows`` plan's row ranges (:func:`pair_blocks`, row ``i``
    holding ``n - 1 - i`` pairs) cover the pair space once, each within
    one row's pairs of its quota; capacity shares keep every range,
    empty ones included, in place."""

    @staticmethod
    def _check_cover(n, blocks, weights):
        bounds = [a for a, _ in blocks] + [blocks[-1][1]]
        assert bounds[0] == 0 and bounds[-1] == n
        assert all(a <= b for a, b in blocks)
        assert all(b == a2 for (_, b), (a2, _) in zip(blocks, blocks[1:]))
        for (a, b), w in zip(blocks, weights):
            assert w == sum(n - 1 - i for i in range(a, b))
        assert int(weights.sum()) == num_pairs(n)

    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=50, deadline=None)
    def test_covers_exactly(self, n, parts):
        blocks, weights = pair_blocks(n, parts)
        assert all(a < b for a, b in blocks)
        self._check_cover(n, blocks, weights)

    def test_balanced(self):
        """Every range is within one row (at most ``n - 1`` pairs) of
        its equal quota."""
        n, parts = 100, 7
        blocks, weights = pair_blocks(n, parts)
        assert len(blocks) == parts
        quota = num_pairs(n) / parts
        assert all(abs(w - quota) < n - 1 for w in weights)

    @given(
        st.integers(min_value=0, max_value=300),
        st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_weighted_shares_keep_ranges_in_place(self, n, shares):
        """Capacity-weighted ranges: one per share, in share order, empty
        ones kept, each weight within one row of its quota; uniform
        shares cut where the unweighted partition does."""
        blocks, weights = pair_blocks(n, len(shares), shares)
        assert len(blocks) == len(shares)
        if n:
            self._check_cover(n, blocks, weights)
        quota = num_pairs(n) * np.array(shares) / sum(shares)
        assert (np.abs(weights - quota) <= max(n - 1, 0) * 2).all()
        uniform, _ = pair_blocks(n, len(shares), [3] * len(shares))
        assert [b for b in uniform if b[1] > b[0]] == pair_blocks(n, len(shares))[0]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            pair_blocks(10, 0)

    def test_degenerate(self):
        blocks, weights = pair_blocks(1, 4)
        assert int(weights.sum()) == 0
        blocks, weights = pair_blocks(3, 8, [1] * 8)
        assert len(blocks) == 8 and int(weights.sum()) == 3


def _assert_bit_identical(got, ref):
    np.testing.assert_array_equal(got.offsets, ref.offsets)
    np.testing.assert_array_equal(got.targets, ref.targets)
    assert got.targets.dtype == ref.targets.dtype


def _pauli_conflict_graph(ps, lists, palette, want_anticommute=False, **kw):
    """The conflict graph over a Pauli set's commute graph, or over its
    anticommute graph with ``want_anticommute``."""
    oracle = AnticommuteOracle(ps.chars)
    if want_anticommute:
        fns = oracle.anticommute, oracle.anticommute_block
    else:
        fns = oracle.commute_edges, oracle.commute_block
    return build_conflict_graph(
        ps.n, fns[0], lists, palette, edge_block_fn=fns[1], **kw
    )


class TestParallelConflictGraph:
    @pytest.mark.parametrize("reference", ["tiled", "pairs"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_matches_sequential(self, n_workers, reference):
        """Against the serial build (``tiled``: whichever plan the rule
        picks) and the naive all-pairs reference."""
        ps = random_pauli_set(70, 6, seed=0)
        pal = (assign_color_lists(70, 12, 4, rng=0), 12)
        src = PauliComplementSource(ps)
        if reference == "tiled":
            expect_g, expect_m = build_conflict_graph(ps.n, src.edge_mask, *pal)
        else:
            expect_g, expect_m = naive_conflict_csr(ps.n, src.edge_mask, pal[0])
        got_g, got_m = _pauli_conflict_graph(ps, *pal, n_workers=n_workers)
        assert got_m == expect_m
        _assert_bit_identical(got_g, expect_g)

    def test_anticommute_orientation(self):
        """want_anticommute flips which pairs count as edges."""
        ps = random_pauli_set(40, 5, seed=1)
        # Full palette overlap: every pair shares a color, so the
        # conflict graph equals the underlying edge set.
        pal = (assign_color_lists(40, 2, 2, rng=0), 2)
        g_comm, m_comm = _pauli_conflict_graph(ps, *pal, n_workers=1)
        g_anti, m_anti = _pauli_conflict_graph(
            ps, *pal, n_workers=1, want_anticommute=True
        )
        assert m_comm + m_anti == num_pairs(40)

    def test_anticommute_parallel_matches_serial(self):
        ps = random_pauli_set(50, 5, seed=4)
        pal = (assign_color_lists(50, 8, 3, rng=2), 8)
        ref, m_ref = _pauli_conflict_graph(
            ps, *pal, n_workers=1, want_anticommute=True
        )
        got, m_got = _pauli_conflict_graph(
            ps, *pal, n_workers=2, want_anticommute=True
        )
        assert m_got == m_ref
        _assert_bit_identical(got, ref)

    @pytest.mark.parametrize("chunk_size", [0, -1])
    @pytest.mark.parametrize("n_workers", [1, 2], ids=["serial", "pool"])
    def test_bad_chunk_size_rejected(self, n_workers, chunk_size):
        """Serial and pool builds take no chunk size: any value is
        refused before a sweep starts."""
        ps = random_pauli_set(40, 5, seed=3)
        pal = (assign_color_lists(40, 8, 3, rng=1), 8)
        with pytest.raises(TypeError, match="chunk_size"):
            _pauli_conflict_graph(
                ps, *pal, n_workers=n_workers, chunk_size=chunk_size
            )

    def test_empty_conflicts(self):
        """Disjoint singleton lists across a huge palette -> few conflicts."""
        ps = random_pauli_set(30, 5, seed=2)
        lists = np.arange(30, dtype=np.int64).reshape(-1, 1)
        pal = (lists, 30)
        _, m = _pauli_conflict_graph(ps, *pal, n_workers=2)
        assert m == 0


class TestBackendEquivalence:
    """Parallel builds are bit-identical to serial ones and to the
    naive all-pairs reference, and colorings match per seed."""

    def _build(self, ps, pal, **kw):
        src = PauliComplementSource(ps)
        return build_conflict_graph(
            ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block, **kw
        )

    @pytest.mark.parametrize("n_workers", _WORKER_COUNTS)
    def test_parallel_bit_identical(self, n_workers):
        ps = random_pauli_set(120, 7, seed=5)
        pal = (assign_color_lists(120, 18, 5, rng=3), 18)
        ref, m_ref = self._build(ps, pal)
        pairs, m_pairs = naive_conflict_csr(ps.n, PauliComplementSource(ps).edge_mask, pal[0])
        got, m_got = self._build(ps, pal, n_workers=n_workers)
        assert m_got == m_ref == m_pairs
        _assert_bit_identical(got, ref)
        _assert_bit_identical(got, pairs)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_property_backends_agree_per_seed(self, seed):
        """For random seeds: serial, parallel (2 workers) and the naive
        reference all build the same CSR bit for bit."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 90))
        ps = random_pauli_set(n, int(rng.integers(4, 9)), seed=seed)
        palette = int(rng.integers(2, max(3, n // 3)))
        lsize = int(rng.integers(1, palette + 1))
        pal = (assign_color_lists(n, palette, lsize, rng=seed), palette)
        ref, m_ref = self._build(ps, pal)
        par, m_par = self._build(ps, pal, n_workers=2)
        pairs, m_pairs = naive_conflict_csr(n, PauliComplementSource(ps).edge_mask, pal[0])
        assert m_par == m_ref == m_pairs
        _assert_bit_identical(par, ref)
        _assert_bit_identical(pairs, ref)

    @pytest.mark.parametrize("n_workers", _WORKER_COUNTS)
    def test_picasso_colorings_identical(self, n_workers):
        """End-to-end Algorithm 1: the parallel backend draws the same
        conflict graphs, so the coloring is identical per seed."""
        ps = random_pauli_set(150, 8, seed=9)
        serial = Picasso(params=PicassoParams(), seed=11).color(ps)
        par = Picasso(
            params=PicassoParams(n_workers=n_workers), seed=11
        ).color(ps)
        np.testing.assert_array_equal(serial.colors, par.colors)
        assert serial.n_colors == par.n_colors
        sets_par = Picasso(
            params=PicassoParams(color_engine="sets", n_workers=n_workers),
            seed=11,
        ).color(ps)
        np.testing.assert_array_equal(serial.colors, sets_par.colors)

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


def _worker_pid(_):
    return os.getpid()


def _problem(n=90, nq=6, seed=3, palette=14, lsize=4, rng=1):
    ps = random_pauli_set(n, nq, seed=seed)
    pal = (assign_color_lists(n, palette, lsize, rng=rng), palette)
    src = PauliComplementSource(ps)
    return ps, src, pal


class TestPersistentPool:
    def test_reuse_across_three_builds_bit_identical(self):
        """One pool, >= 3 builds: same worker processes every time and
        bit-identical CSR every time."""
        ps, src, pal = _problem()
        ref, m_ref = build_conflict_graph(
            ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block
        )
        with PoolExecutor(2) as ex:
            ex.map(_worker_pid, range(8))  # spin the pool up
            pids0 = ex.worker_pids()
            assert len(pids0) == 2
            for _ in range(3):
                got, m = build_conflict_graph(
                    ps.n, src.edge_mask, *pal,
                    edge_block_fn=src.edge_block, executor=ex,
                )
                assert m == m_ref
                _assert_bit_identical(got, ref)
                # Same pool, same worker processes every build.
                assert ex.worker_pids() == pids0

    def test_payload_token_delta(self):
        """A source-keyed install leaves its token behind; the next
        sweep on the same executor ships only the delta."""
        ps, src, pal = _problem()
        ref, m_ref = build_conflict_graph(
            ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block
        )
        with PoolExecutor(2) as ex:
            assert not ex.holds_token(object())
            installed = None
            for _ in range(3):
                got, m = build_conflict_graph(
                    ps.n, src.edge_mask, *pal,
                    edge_block_fn=src.edge_block, executor=ex,
                    source=src,
                )
                assert m == m_ref
                _assert_bit_identical(got, ref)
                # A token is installed after the first build and stays
                # put across repeats — the signal that later sweeps
                # shipped only the delta.
                token = ex._installed_token
                assert token is not None
                assert installed in (None, token)
                installed = token
                assert ex.holds_token(token)
        assert not ex.holds_token(installed)  # closed pool holds nothing

    def test_config_switch_on_shared_executor(self):
        """Regression: the payload token names the whole static config,
        so switching telemetry recording on one executor + source must
        force a full re-install, not run the stale cached flag."""
        ps, src, pal = _problem()
        ref, m_ref = build_conflict_graph(
            ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block
        )
        with PoolExecutor(2) as ex:
            tokens = []
            try:
                for recording in (False, True, False):
                    telemetry.enable(recording)
                    got, m = build_conflict_graph(
                        ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block,
                        executor=ex, source=src,
                    )
                    assert m == m_ref
                    _assert_bit_identical(got, ref)
                    tokens.append(ex._installed_token)
            finally:
                telemetry.reset()
                telemetry.enable(False)
        assert tokens[0] == tokens[2] != tokens[1]

    def test_close_is_idempotent_and_leaves_no_children(self):
        before = len(mp.active_children())
        ex = PoolExecutor(2)
        ex.map(_worker_pid, range(4))
        ex.close()
        ex.close()
        assert len(mp.active_children()) == before

    def test_abandoned_stream_recycles_pool(self):
        """Dropping a result stream mid-sweep must not poison the next
        sweep (the executor recycles its pool)."""
        with PoolExecutor(2) as ex:
            it = ex.imap(_worker_pid, range(64))
            next(it)
            it.close()
            assert not ex.pool_alive
            out = ex.map(_worker_pid, range(4))
            assert len(out) == 4

    def test_picasso_executor_not_leaked(self):
        """Picasso owns its spec-created pool and closes it."""
        before = len(mp.active_children())
        ps = random_pauli_set(80, 6, seed=1)
        Picasso(params=PicassoParams(n_workers=2), seed=5).color(ps)
        assert len(mp.active_children()) == before


class TestPinning:
    def test_noop_without_sched_setaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        assert pin_current_worker(0) is False

    def test_noop_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert pin_current_worker(0) is False

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no affinity syscall"
    )
    def test_pinned_pool_builds_bit_identical(self):
        ps, src, pal = _problem()
        ref, m_ref = build_conflict_graph(
            ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block
        )
        with PoolExecutor(2, pin=True) as ex:
            got, m = build_conflict_graph(
                ps.n, src.edge_mask, *pal,
                edge_block_fn=src.edge_block, executor=ex,
            )
        assert m == m_ref
        _assert_bit_identical(got, ref)
