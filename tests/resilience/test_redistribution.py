"""Shard redistribution: a dead agent's strips move to the survivors
and the sweep's result stays bit-identical to serial."""

import os
import threading
import time

import numpy as np
import pytest

from repro.core.conflict import build_conflict_graph
from repro.core.palette import assign_color_lists
from repro.core.sources import PauliComplementSource
from repro.distributed import LocalCluster
from repro.parallel.executor import WorkerFailure
from repro.pauli import random_pauli_set
from repro.resilience.faults import clear_faults


@pytest.fixture(autouse=True)
def _disarm():
    clear_faults()
    yield
    clear_faults()


@pytest.fixture(scope="module")
def problem():
    ps = random_pauli_set(120, 6, seed=3)
    pal = (assign_color_lists(120, 16, 4, rng=1), 16)
    src = PauliComplementSource(ps)
    ref, m_ref = build_conflict_graph(
        120, src.edge_mask, *pal, edge_block_fn=src.edge_block
    )
    return src, pal, ref, m_ref


def _build(src, pal, ex):
    return build_conflict_graph(
        120, src.edge_mask, *pal, edge_block_fn=src.edge_block,
        executor=ex,
    )


def _assert_identical(got, m_got, ref, m_ref):
    assert m_got == m_ref
    np.testing.assert_array_equal(got.offsets, ref.offsets)
    np.testing.assert_array_equal(got.targets, ref.targets)


class TestRedistribution:
    def test_deterministic_kill_redeals_to_survivor(
        self, problem, monkeypatch, tmp_path
    ):
        """The tentpole acceptance: an agent SIGKILLed on its first
        strip; its remaining strips are re-dealt, the CSR is
        bit-identical, and the executor compacts to the survivors."""
        src, pal, ref, m_ref = problem
        monkeypatch.setenv("REPRO_FAULT", "kill:task:1")
        monkeypatch.setenv("REPRO_FAULT_ONCE", str(tmp_path / "once"))
        monkeypatch.setenv("REPRO_FAULT_SPARE_PID", str(os.getpid()))
        with LocalCluster(2) as cluster:
            with cluster.executor(
                result_timeout_s=15.0, redistribute=True
            ) as ex:
                got, m_got = _build(src, pal, ex)
                assert ex.n_workers == 1  # compacted to the survivor
                # The compacted executor keeps serving (next sweep runs
                # on the survivor alone, still bit-identical).
                got2, m2 = _build(src, pal, ex)
        _assert_identical(got, m_got, ref, m_ref)
        _assert_identical(got2, m2, ref, m_ref)
        assert os.path.exists(tmp_path / "once")

    def test_wall_clock_kill_mid_sweep(self, problem):
        """Racy variant: the kill lands wherever it lands (possibly
        after the sweep).  Either way the answer must be identical."""
        src, pal, ref, m_ref = problem
        with LocalCluster(2) as cluster:
            with cluster.executor(
                result_timeout_s=15.0, redistribute=True
            ) as ex:
                killer = threading.Thread(
                    target=lambda: (time.sleep(0.2), cluster.kill_worker(1))
                )
                killer.start()
                got, m_got = _build(src, pal, ex)
                killer.join()
        _assert_identical(got, m_got, ref, m_ref)

    def test_all_shards_dead_raises_bounded(self, monkeypatch, problem):
        """No survivor to redistribute to: a typed WorkerFailure, not a
        hang — the supervisor's failover picks it up from there."""
        src, pal, _, _ = problem
        monkeypatch.setenv("REPRO_FAULT", "kill:task:1")
        monkeypatch.setenv("REPRO_FAULT_SPARE_PID", str(os.getpid()))
        with LocalCluster(1) as cluster:
            with cluster.executor(
                result_timeout_s=15.0, redistribute=True
            ) as ex:
                with pytest.raises(WorkerFailure, match="no survivor"):
                    _build(src, pal, ex)

    def test_without_flag_death_stays_loud(self, monkeypatch, problem):
        """redistribute=False (the default) preserves PR 5 semantics:
        a death surfaces as a bounded error."""
        src, pal, _, _ = problem
        monkeypatch.setenv("REPRO_FAULT", "kill:task:1")
        monkeypatch.setenv("REPRO_FAULT_SPARE_PID", str(os.getpid()))
        with LocalCluster(2) as cluster:
            with cluster.executor(result_timeout_s=15.0) as ex:
                with pytest.raises(RuntimeError):
                    _build(src, pal, ex)


class TestFailoverChain:
    def test_cluster_to_pool_to_serial_bit_identical(
        self, problem, monkeypatch
    ):
        """The canonical degradation chain, walked end to end: every
        cluster agent and every pool worker dies on its first strip
        (no once-guard), the spared dispatcher finishes serially, and
        the CSR is still bit-identical."""
        import repro.parallel.executor as pexec
        from repro.resilience.supervisor import supervised_executor

        src, pal, ref, m_ref = problem
        monkeypatch.setattr(pexec, "RESULT_TIMEOUT_S", 6.0)
        monkeypatch.setenv("REPRO_FAULT", "kill:task:1")
        monkeypatch.setenv("REPRO_FAULT_SPARE_PID", str(os.getpid()))
        with LocalCluster(2) as cluster:
            ex = supervised_executor(
                "cluster", 2, hosts=cluster.hosts,
                failover="pool,serial", max_retries=0,
                backoff_base_s=0.01,
            )
            try:
                got, m_got = _build(src, pal, ex)
                from repro.parallel.executor import SerialExecutor

                assert isinstance(ex.inner, SerialExecutor)
                assert [e[0] for e in ex.events] == ["failover", "failover"]
            finally:
                ex.close()
        _assert_identical(got, m_got, ref, m_ref)
