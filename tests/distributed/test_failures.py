"""Transport failure paths: kills, wedges, restarts — bounded, never hung.

Mirrors the ``PoolExecutor`` kill-tests in ``tests/parallel``: a worker
agent killed mid-round must surface a bounded-timeout error (not a
hang) and the cluster executor must recycle its connections and be
usable again.
"""

import time

import numpy as np
import pytest

from repro.distributed import ClusterExecutor, LocalCluster
from repro.distributed.transport import TransportError

_STATE: dict = {}


def _install(bias):
    _STATE["bias"] = bias


def _square(x):
    return x * x


def _slow_echo(seconds):
    time.sleep(seconds)
    return seconds


class TestKilledWorker:
    def test_kill_mid_round_surfaces_bounded_error_and_recycles(self):
        """The satellite acceptance: SIGKILL an agent while its strip
        is in flight — the dispatcher raises within the bound (the OS
        resets the socket, so usually within milliseconds), recycles,
        and serves the next sweep after a restart."""
        with LocalCluster(2) as cluster:
            ex = cluster.executor(result_timeout_s=30.0)
            # Round-robin deal: shard 0 gets [0, 0], shard 1 gets the
            # two slow tasks — kill shard 1 while it sleeps.
            it = ex.imap(_slow_echo, [0.0, 5.0, 0.0, 5.0])
            assert next(it) == 0.0
            cluster.kill_worker(1)
            t0 = time.perf_counter()
            with pytest.raises(RuntimeError, match="died mid-strip"):
                list(it)
            assert time.perf_counter() - t0 < 40.0
            assert not ex.connected  # recycled, not wedged
            # Recovery: bring a fresh agent up on the same port; the
            # same executor reconnects transparently.
            cluster.restart_worker(1)
            assert ex.map(_square, [1, 2, 3]) == [1, 4, 9]
            ex.close()

    def test_wedged_worker_times_out(self):
        """An agent that is alive but stuck past the result bound is
        indistinguishable from dead: the dispatcher must give up at
        the bound, not wait forever."""
        with LocalCluster(2) as cluster:
            ex = cluster.executor(result_timeout_s=1.0)
            t0 = time.perf_counter()
            with pytest.raises(RuntimeError, match="within 1s|died mid-strip"):
                list(ex.imap(_slow_echo, [5.0, 5.0]))
            assert time.perf_counter() - t0 < 20.0
            assert not ex.connected
            ex.close()

    def test_broken_broadcast_recycles(self):
        """A dead agent fails the install broadcast within the bound
        and the connections recycle (the pool's broken-barrier
        behavior, over sockets)."""
        with LocalCluster(2) as cluster:
            ex = cluster.executor(broadcast_timeout_s=10.0)
            ex.map(_square, [1])  # connect
            assert ex.connected
            cluster.kill_worker(0)
            t0 = time.perf_counter()
            with pytest.raises(RuntimeError, match="broadcast failed"):
                ex.map(_square, [1, 2], initializer=_install, payload=(0,))
            assert time.perf_counter() - t0 < 30.0
            assert not ex.connected
            ex.close()

    def test_connect_to_dead_cluster_raises(self):
        """Nothing listening: connect fails fast with a TransportError,
        not a silent hang."""
        with LocalCluster(1) as cluster:
            hosts = cluster.hosts
        # Cluster closed: the port is free again, nothing listens.
        ex = ClusterExecutor(hosts, connect_timeout_s=5.0)
        with pytest.raises(TransportError, match="cannot connect"):
            ex.map(_square, [1])
        ex.close()


class TestRestartInvalidatesTokens:
    def test_incarnation_change_forces_full_install(self):
        """A restarted agent has an empty payload cache; the executor
        must see the incarnation change and refuse the delta path."""
        with LocalCluster(2) as cluster:
            ex = cluster.executor()
            ex.map(
                _square, [1, 2], initializer=_install,
                payload=(0,), payload_token=("sweep", 1),
            )
            assert ex.holds_token(("sweep", 1))
            cluster.kill_worker(0)
            cluster.restart_worker(0)
            # The stale connection may not have noticed the death yet,
            # but the install path is what matters: the next sweep must
            # recover (recycle + reconnect) and re-install in full.
            out = None
            for _ in range(2):
                try:
                    out = ex.map(
                        _square, [3], initializer=_install,
                        payload=(1,), payload_token=("sweep", 1),
                    )
                    break
                except RuntimeError:
                    continue  # first attempt may hit the dead socket
            assert out == [9]
            assert ex.holds_token(("sweep", 1))
            ex.close()

    def test_payload_not_installed_travels_verbatim(self):
        """The delta-install guard exception crosses the wire as
        itself, so the dispatcher's one-shot full-install retry
        (imap_delta_install) can catch it."""
        from repro.parallel.pool import PayloadNotInstalled, init_sweep_worker

        with LocalCluster(2) as cluster:
            with cluster.executor() as ex:
                # A delta-only payload against agents that never saw
                # the full install: the worker raises
                # PayloadNotInstalled and it must arrive as that type.
                payload = {
                    "token": ("sweep", 999, "tiled", 1 << 18),
                    "static": None,
                    "delta": {},
                }
                with pytest.raises(PayloadNotInstalled):
                    ex.map(
                        _square, [1],
                        initializer=init_sweep_worker, payload=(payload,),
                    )
                # The failed broadcast recycled the connections.
                assert not ex.connected


class TestAgentResilience:
    def test_agent_survives_dispatcher_churn(self):
        """Agents outlive executors: abandoned streams, closes and
        reconnects leave them serving."""
        with LocalCluster(1) as cluster:
            for _ in range(3):
                with cluster.executor() as ex:
                    it = ex.imap(_square, [1, 2, 3, 4])
                    next(it)  # abandon mid-stream
                    del it
            with cluster.executor() as ex:
                assert ex.map(_square, [7]) == [49]

    def test_distributed_build_recovers_after_restart(self):
        """End to end: a build that loses an agent raises bounded; the
        next build on a fresh executor (after restart) is bit-identical
        to serial."""
        from repro.core.conflict import build_conflict_graph
        from repro.core.palette import assign_color_lists
        from repro.core.sources import PauliComplementSource
        from repro.pauli import random_pauli_set

        ps = random_pauli_set(90, 6, seed=3)
        pal = (assign_color_lists(90, 14, 4, rng=1), 14)
        src = PauliComplementSource(ps)
        ref, m_ref = build_conflict_graph(
            90, src.edge_mask, *pal, edge_block_fn=src.edge_block
        )
        with LocalCluster(2) as cluster:
            cluster.kill_worker(1)
            cluster.restart_worker(1)
            with cluster.executor() as ex:
                got, m_got = build_conflict_graph(
                    90, src.edge_mask, *pal,
                    edge_block_fn=src.edge_block, executor=ex,
                )
        assert m_got == m_ref
        np.testing.assert_array_equal(got.offsets, ref.offsets)
        np.testing.assert_array_equal(got.targets, ref.targets)
