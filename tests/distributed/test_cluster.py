"""Executor-contract tests for ClusterExecutor over a LocalCluster.

Mirrors ``tests/parallel/test_executor.py``: the cluster backend must
honor the same imap/token/lifecycle contract as the process pool, just
over sockets.  CI runs this directory under forced ``spawn``.
"""

import pytest

from repro.distributed import ClusterExecutor, LocalCluster, make_cluster_executor
from repro.parallel.executor import make_executor

# Module-level so they pickle into the (possibly spawn-started) agents.
_STATE: dict = {}


def _install(bias):
    _STATE["bias"] = bias


def _square_plus_bias(x):
    return x * x + _STATE["bias"]


def _square(x):
    return x * x


def _raise_task(x):
    raise ValueError(f"task {x} exploded")


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(2) as c:
        yield c


class TestClusterExecutor:
    def test_map_order_and_initializer(self, cluster):
        with cluster.executor() as ex:
            out = ex.map(
                _square_plus_bias, [3, 1, 2], initializer=_install, payload=(10,)
            )
            assert out == [19, 11, 14]

    def test_imap_streams_in_task_order(self, cluster):
        with cluster.executor() as ex:
            it = ex.imap(_square, list(range(9)))
            assert next(it) == 0
            assert list(it) == [k * k for k in range(1, 9)]

    def test_empty_tasks_never_connect(self, cluster):
        with cluster.executor() as ex:
            assert ex.map(_square, []) == []
            # Contract: no tasks -> no connections, no installs anywhere.
            assert not ex.connected

    def test_connections_persist_across_sweeps(self, cluster):
        with cluster.executor() as ex:
            ex.map(_square_plus_bias, [1], initializer=_install, payload=(0,))
            incs = ex.worker_incarnations()
            assert incs is not None and len(incs) == 2
            ex.map(_square_plus_bias, [2], initializer=_install, payload=(1,))
            assert ex.worker_incarnations() == incs

    def test_payload_token_tracking(self, cluster):
        with cluster.executor() as ex:
            assert not ex.holds_token("t")
            ex.map(
                _square_plus_bias, [1, 2], initializer=_install,
                payload=(0,), payload_token="t",
            )
            assert ex.holds_token("t")
            assert not ex.holds_token("other")
            assert not ex.holds_token(None)
            # Channelled tokens coexist (sweep vs color on one cluster).
            ex.map(
                _square_plus_bias, [1], initializer=_install,
                payload=(0,), payload_token=("sweep", 1),
            )
            ex.map(
                _square_plus_bias, [1], initializer=_install,
                payload=(0,), payload_token=("color", 2),
            )
            assert ex.holds_token(("sweep", 1))
            assert ex.holds_token(("color", 2))
            # A tokenless install clears every channel's record.
            ex.map(_square_plus_bias, [1], initializer=_install, payload=(0,))
            assert not ex.holds_token(("sweep", 1))
            assert not ex.holds_token(("color", 2))

    def test_overlapping_sweeps_raise(self, cluster):
        with cluster.executor() as ex:
            it = ex.imap(_square, [1, 2, 3, 4])
            next(it)
            with pytest.raises(RuntimeError, match="overlapping"):
                ex.imap(_square, [5])
            # Abandon the first stream; the executor recycles and works.
            del it
            assert ex.map(_square, [5]) == [25]

    def test_task_exception_propagates_and_recycles(self, cluster):
        with cluster.executor() as ex:
            with pytest.raises(ValueError, match="task 1 exploded"):
                ex.map(_raise_task, [1, 2])
            assert not ex.connected  # aborted stream -> recycled
            assert ex.map(_square, [3]) == [9]  # reconnects transparently

    def test_close_idempotent_and_reusable(self, cluster):
        ex = cluster.executor()
        assert ex.map(_square, [2]) == [4]
        ex.close()
        ex.close()
        assert not ex.connected
        # Agents outlive the executor; a closed executor reconnects.
        assert ex.map(_square, [3]) == [9]
        ex.close()

    def test_n_workers_matches_shards(self, cluster):
        ex = cluster.executor()
        assert ex.n_workers == 2
        assert ex.supports_payload_cache

    def test_fewer_tasks_than_shards(self, cluster):
        with cluster.executor() as ex:
            assert ex.map(_square, [5]) == [25]


class TestFactories:
    def test_make_cluster_executor_transport_validation(self, cluster):
        ex = make_cluster_executor(cluster.hosts, "socket")
        assert isinstance(ex, ClusterExecutor)
        ex.close()
        with pytest.raises(ValueError, match="unknown transport"):
            make_cluster_executor(cluster.hosts, "carrier-pigeon")

    def test_make_executor_cluster_spec(self, cluster, monkeypatch):
        ex = make_executor("cluster", hosts=",".join(cluster.hosts))
        assert isinstance(ex, ClusterExecutor)
        ex.close()
        # auto + hosts routes to the cluster backend too.
        ex = make_executor("auto", hosts=cluster.hosts)
        assert isinstance(ex, ClusterExecutor)
        ex.close()
        # REPRO_HOSTS is the no-code-changes path.
        monkeypatch.setenv("REPRO_HOSTS", ",".join(cluster.hosts))
        ex = make_executor("cluster")
        assert isinstance(ex, ClusterExecutor)
        assert ex.n_workers == 2
        ex.close()

    def test_make_executor_cluster_without_hosts(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        with pytest.raises(ValueError, match="needs hosts"):
            make_executor("cluster")

    def test_auto_without_hosts_stays_local(self):
        from repro.parallel.executor import PoolExecutor, SerialExecutor

        assert isinstance(make_executor("auto", 1), SerialExecutor)
        ex = make_executor("auto", 2)
        assert isinstance(ex, PoolExecutor)
        ex.close()

    def test_local_cluster_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            LocalCluster(0)
