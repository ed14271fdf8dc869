"""Tests for the zero-copy shared-memory gather and the persistent pool.

ISSUE 3 acceptance: serial, pickled-pool and shm-pool builds are
bit-identical per seed; the Lemma 2 undershoot path grows and retries;
a persistent pool is reused (same worker processes) across >= 3 builds;
pinning is a no-op where ``sched_setaffinity`` does not exist.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.core import Picasso, PicassoParams
from repro.core.conflict import build_conflict_graph
from repro.core.palette import assign_color_lists
from repro.core.sources import PauliComplementSource
from repro.device.csr_build import build_conflict_csr
from repro.device.sim import DeviceSim
from repro.graphs.csr import csr_from_coo_chunks
from repro.parallel import (
    PoolExecutor,
    SerialExecutor,
    ShmCooRegion,
    estimate_conflict_edges,
    pin_current_worker,
    plan_strip_slots,
    shm_conflict_gather,
)
from repro.parallel.shm import MIN_STRIP_SLOTS
from repro.pauli import random_pauli_set


def _worker_pid(_):
    return os.getpid()


def _problem(n=90, nq=6, seed=3, palette=14, lsize=4, rng=1):
    ps = random_pauli_set(n, nq, seed=seed)
    pal = (assign_color_lists(n, palette, lsize, rng=rng), palette)
    src = PauliComplementSource(ps)
    return ps, src, pal


def _assert_bit_identical(got, ref):
    np.testing.assert_array_equal(got.offsets, ref.offsets)
    np.testing.assert_array_equal(got.targets, ref.targets)
    assert got.targets.dtype == ref.targets.dtype


class TestShmCooRegion:
    def test_create_write_attach_roundtrip(self):
        for dtype in (np.int32, np.int64):
            region = ShmCooRegion.create(64, dtype)
            try:
                assert region.nbytes == 64 * np.dtype(dtype).itemsize
                region.keys[:3] = [1, 2, 3]
                other = ShmCooRegion.attach(region.name, 64, dtype)
                keys = other.slice(0, 3)
                assert keys.dtype == dtype
                np.testing.assert_array_equal(keys, [1, 2, 3])
                del keys  # views must die before the segment unmaps
                other.close()
            finally:
                region.close()
                region.unlink()

    def test_zero_capacity_clamped(self):
        region = ShmCooRegion.create(0)
        try:
            assert region.capacity >= 1
        finally:
            region.close()
            region.unlink()


class TestSizing:
    def test_plan_caps_at_strip_weight(self):
        weights = np.array([10, 1000, 5], dtype=np.int64)
        slots = plan_strip_slots(weights, est_edges=10_000, safety=10.0)
        assert (slots <= weights).all()
        # An over-the-top estimate saturates every strip.
        np.testing.assert_array_equal(slots, weights)

    def test_plan_floor(self):
        weights = np.array([500, 500], dtype=np.int64)
        slots = plan_strip_slots(weights, est_edges=0.0)
        np.testing.assert_array_equal(slots, [MIN_STRIP_SLOTS, MIN_STRIP_SLOTS])

    def test_plan_empty(self):
        assert plan_strip_slots(np.array([], dtype=np.int64), 10.0).size == 0

    def test_estimate_positive_for_overlapping_lists(self):
        est = estimate_conflict_edges(90, 14, 4)
        assert est > 0
        # Bounded by pair space.
        assert est <= 90 * 89 / 2

    def test_estimate_zero_for_empty_masks(self):
        assert estimate_conflict_edges(10, 1, 0) == 0.0
        assert estimate_conflict_edges(1, 14, 4) == 0.0


class TestShmGatherEquivalence:
    """shm-pool CSR must be bit-identical to serial and pickled-pool."""

    def _ref(self, src, pal, n):
        return build_conflict_graph(
            n, src.edge_mask, *pal, edge_block_fn=src.edge_block
        )

    @pytest.mark.parametrize("engine", ["tiled", "pairs"])
    def test_shm_pool_matches_serial(self, engine):
        ps, src, pal = _problem()
        ref, m_ref = self._ref(src, pal, ps.n)
        with PoolExecutor(2) as ex:
            got, m = build_conflict_graph(
                ps.n, src.edge_mask, *pal, engine=engine,
                edge_block_fn=src.edge_block, executor=ex, shm=True,
            )
        assert m == m_ref
        _assert_bit_identical(got, ref)

    def test_shm_spawn_matches_serial(self):
        """The shm path must work without fork (CI forces spawn too)."""
        ps, src, pal = _problem()
        ref, m_ref = self._ref(src, pal, ps.n)
        with PoolExecutor(2, start_method="spawn") as ex:
            got, m = build_conflict_graph(
                ps.n, src.edge_mask, *pal,
                edge_block_fn=src.edge_block, executor=ex, shm=True,
            )
        assert m == m_ref
        _assert_bit_identical(got, ref)

    def test_serial_executor_ignores_shm(self):
        """No pipe to avoid for in-process sweeps: shm=True degrades to
        the plain streaming path, same result."""
        ps, src, pal = _problem()
        ref, m_ref = self._ref(src, pal, ps.n)
        got, m = build_conflict_graph(
            ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block,
            executor=SerialExecutor(), shm=True,
        )
        assert m == m_ref
        _assert_bit_identical(got, ref)

    def test_zero_hit_strips(self):
        """Disjoint singleton lists: every strip writes nothing, the
        gather still produces the (empty) graph."""
        ps = random_pauli_set(30, 5, seed=2)
        lists = np.arange(30, dtype=np.int64).reshape(-1, 1)
        pal = (lists, 30)
        src = PauliComplementSource(ps)
        with PoolExecutor(2) as ex:
            with shm_conflict_gather(
                30, src.edge_mask, *pal,
                edge_block_fn=src.edge_block, executor=ex,
            ) as gather:
                graph = csr_from_coo_chunks(gather.chunks, 30)
            assert gather.n_edges == 0
            assert gather.n_zero_strips == gather.n_strips > 0
            assert gather.chunks == []
        assert graph.n_edges == 0

    def test_undershoot_grows_and_retries(self):
        """A deliberately absurd Lemma 2 estimate (zero) forces strip
        overflow; the retry region is sized exactly and the result stays
        bit-identical."""
        ps, src, pal = _problem()
        ref, m_ref = self._ref(src, pal, ps.n)
        with PoolExecutor(2) as ex:
            with shm_conflict_gather(
                ps.n, src.edge_mask, *pal,
                edge_block_fn=src.edge_block, executor=ex,
                est_conflict_edges=0.0, safety=0.0,
            ) as gather:
                graph = csr_from_coo_chunks(gather.chunks, ps.n)
                assert gather.n_retries >= 1
                assert gather.n_edges == m_ref
        _assert_bit_identical(graph, ref)

    def test_views_are_views_not_copies(self):
        """The chunks handed to the assembly alias the shared region."""
        ps, src, pal = _problem()
        with shm_conflict_gather(
            ps.n, src.edge_mask, *pal,
            edge_block_fn=src.edge_block, executor=SerialExecutor(),
        ) as gather:
            assert gather.chunks, "expected conflict edges"
            keys = gather.chunks[0]
            assert keys.base is not None  # a view into the region buffer
            assert keys.dtype == np.int32  # one 4-byte key per slot
            del keys  # views must die before the segment unmaps


class TestPersistentPool:
    def test_reuse_across_three_builds_bit_identical(self):
        """One pool, >= 3 builds: same worker processes every time and
        bit-identical CSR every time (pickled and shm gathers)."""
        ps, src, pal = _problem()
        ref, m_ref = build_conflict_graph(
            ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block
        )
        with PoolExecutor(2) as ex:
            ex.map(_worker_pid, range(8))  # spin the pool up
            pids0 = ex.worker_pids()
            assert len(pids0) == 2
            for k in range(3):
                got, m = build_conflict_graph(
                    ps.n, src.edge_mask, *pal,
                    edge_block_fn=src.edge_block, executor=ex,
                    shm=(k % 2 == 0),
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

    def test_engine_switch_on_shared_executor(self):
        """Regression: the payload token names the whole static config,
        so swapping engines (or chunk sizes) on one executor + source
        must force a full re-install, not run a stale cached engine."""
        ps, src, pal = _problem()
        ref_t, m_t = build_conflict_graph(
            ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block
        )
        ref_p, m_p = build_conflict_graph(
            ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block,
            engine="pairs",
        )
        with PoolExecutor(2) as ex:
            for engine, ref, m_ref in (
                ("tiled", ref_t, m_t),
                ("pairs", ref_p, m_p),
                ("tiled", ref_t, m_t),
            ):
                got, m = build_conflict_graph(
                    ps.n, src.edge_mask, *pal, engine=engine,
                    edge_block_fn=src.edge_block, executor=ex, source=src,
                )
                assert m == m_ref
                _assert_bit_identical(got, ref)

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


class TestPicassoShmEndToEnd:
    def test_colorings_identical_across_gathers(self):
        ps = random_pauli_set(150, 8, seed=9)
        serial = Picasso(params=PicassoParams(), seed=11).color(ps)
        pickled = Picasso(
            params=PicassoParams(n_workers=2), seed=11
        ).color(ps)
        shm = Picasso(
            params=PicassoParams(n_workers=2, shm_gather=True), seed=11
        ).color(ps)
        np.testing.assert_array_equal(serial.colors, pickled.colors)
        np.testing.assert_array_equal(serial.colors, shm.colors)

    def test_device_shm_under_memory_pressure(self):
        """Regression: once the worst-case COO buffer reaches the
        budget, the COO grab used to leave 0 bytes for the mandatory
        staging region and every shm device build OOMed.  The staging
        hint must be reserved first."""
        n = 1500
        ps = random_pauli_set(n, 12, seed=0)
        pal = (assign_color_lists(n, 200, 10, rng=0), 200)
        src = PauliComplementSource(ps)
        # Worst-case COO (2 * n * (n-1) * 4 B ~ 18 MB) exceeds what is
        # left of the 40 MB default budget after payload + scratch, so
        # the COO buffer is budget-limited — the regression regime.
        ref, _ = build_conflict_csr(
            ps.n, src.edge_mask, *pal, DeviceSim(),
            edge_block_fn=src.edge_block,
        )
        with PoolExecutor(2) as ex:
            got, stats = build_conflict_csr(
                ps.n, src.edge_mask, *pal, DeviceSim(),
                edge_block_fn=src.edge_block, executor=ex, shm=True,
            )
        assert stats.gather == "shm"
        _assert_bit_identical(got, ref)

    def test_device_build_charges_shm_region(self):
        ps, src, pal = _problem()
        dev_ref = DeviceSim()
        ref, stats_ref = build_conflict_csr(
            ps.n, src.edge_mask, *pal, dev_ref,
            edge_block_fn=src.edge_block,
        )
        dev = DeviceSim()
        with PoolExecutor(2) as ex:
            got, stats = build_conflict_csr(
                ps.n, src.edge_mask, *pal, dev,
                edge_block_fn=src.edge_block, executor=ex, shm=True,
            )
        _assert_bit_identical(got, ref)
        assert stats.gather == "shm"
        assert stats_ref.gather == "pickle"
        # The staging region showed up in the budget ledger and was
        # released with everything else.
        assert dev.peak_bytes > dev_ref.peak_bytes
        assert dev.used_bytes == 0
        assert not dev.live_allocations()


    def test_region_pool_reused_across_iterations(self):
        """The run's double-buffered region pool: the two slots are
        created by iterations 1 and 2 and reused from iteration 3 on,
        with the serial colors."""
        from repro import telemetry

        ps = random_pauli_set(150, 8, seed=9)
        serial = Picasso(params=PicassoParams(), seed=11).color(ps)
        telemetry.reset()
        try:
            got = Picasso(
                params=PicassoParams(
                    n_workers=2, shm_gather=True, telemetry=True
                ),
                seed=11,
            ).color(ps)
        finally:
            telemetry.reset()
            telemetry.enable(False)
        assert got.n_iterations >= 3
        assert got.telemetry["counters"].get("shm.region.reuse", 0) >= 1
        np.testing.assert_array_equal(serial.colors, got.colors)


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
                edge_block_fn=src.edge_block, executor=ex, shm=True,
            )
        assert m == m_ref
        _assert_bit_identical(got, ref)
