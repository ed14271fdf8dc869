"""ISSUE 5 acceptance: distributed builds and colorings are bit-identical.

A ``LocalCluster`` with 2 and 3 shards must produce bit-identical
conflict CSR and Picasso colorings per seed vs ``SerialExecutor`` and
``PoolExecutor``, for both the sweep and the ``parallel-list`` coloring
engine — sharding is purely a throughput knob, exactly like
``n_workers`` one PR earlier.
"""

import os

import numpy as np
import pytest

from repro.core import Picasso, PicassoParams
from repro.core.conflict import build_conflict_graph, count_conflict_edges
from repro.core.palette import assign_color_lists
from repro.core.sources import PauliComplementSource
from repro.coloring.parallel_list import parallel_list_color
from repro.device.backends import available_backends
from repro.distributed import LocalCluster
from repro.parallel.executor import PoolExecutor
from repro.pauli import random_pauli_set

#: CI pins the pool size via REPRO_TEST_N_WORKERS (mirrors
#: tests/parallel); shard counts 2 and 3 are always covered.
_CI_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))


@pytest.fixture(scope="module", params=[2, 3])
def cluster(request):
    with LocalCluster(request.param) as c:
        yield c


def _assert_bit_identical(got, ref):
    np.testing.assert_array_equal(got.offsets, ref.offsets)
    np.testing.assert_array_equal(got.targets, ref.targets)
    assert got.targets.dtype == ref.targets.dtype


def _build(ps, pal, **kw):
    src = PauliComplementSource(ps)
    return build_conflict_graph(
        ps.n, src.edge_mask, *pal, edge_block_fn=src.edge_block, **kw
    )


class TestConflictCSREquivalence:
    @pytest.mark.parametrize("engine", ["tiled", "pairs"])
    def test_cluster_bit_identical_to_serial_and_pool(self, cluster, engine):
        ps = random_pauli_set(120, 7, seed=5)
        pal = (assign_color_lists(120, 18, 5, rng=3), 18)
        ref, m_ref = _build(ps, pal, engine=engine)
        pool, m_pool = _build(
            ps, pal, engine=engine, executor=PoolExecutor(_CI_WORKERS)
        )
        got, m_got = _build(
            ps, pal, engine=engine, executor="cluster", hosts=cluster.hosts
        )
        assert m_got == m_ref == m_pool
        _assert_bit_identical(got, ref)
        _assert_bit_identical(got, pool)

    def test_repeat_builds_on_one_executor_use_token_cache(self, cluster):
        """The delta-install path: the root source installs once under
        a sweep token; later sweeps on the same executor ship only the
        colmasks delta and still build bit-identical CSR."""
        ps = random_pauli_set(90, 6, seed=3)
        src = PauliComplementSource(ps)
        with cluster.executor() as ex:
            for rng_seed in (0, 1, 2):
                pal = (assign_color_lists(90, 14, 4, rng=rng_seed), 14)
                ref, m_ref = build_conflict_graph(
                    90, src.edge_mask, *pal, edge_block_fn=src.edge_block
                )
                got, m_got = build_conflict_graph(
                    90, src.edge_mask, *pal, edge_block_fn=src.edge_block,
                    executor=ex, source=src,
                )
                assert m_got == m_ref
                _assert_bit_identical(got, ref)
                # The static payload is installed and pinned to the
                # current agent incarnations after each sweep.
                assert any(
                    ex.holds_token(t) for t in ex._tokens.values()
                )

    def test_count_conflict_edges_matches(self, cluster):
        ps = random_pauli_set(80, 6, seed=7)
        src = PauliComplementSource(ps)
        pal = (assign_color_lists(80, 12, 4, rng=5), 12)
        assert count_conflict_edges(
            80, src.edge_mask, *pal, hosts=cluster.hosts, executor="cluster"
        ) == count_conflict_edges(80, src.edge_mask, *pal)


def _backend_variants(cluster):
    """Param overrides for every executor."""
    return (
        {},
        {"n_workers": _CI_WORKERS},
        {"hosts": cluster.hosts},
    )


class TestPicassoEquivalence:
    @pytest.mark.parametrize("kernel_backend", available_backends())
    def test_sweep_coloring_identical_per_seed(self, cluster, kernel_backend):
        """End-to-end Algorithm 1 with the default greedy-dynamic
        coloring: serial, pool and cluster
        draw identical graphs, so the coloring is identical per seed on
        every available kernel backend."""
        ps = random_pauli_set(150, 8, seed=9)
        ref = Picasso(params=PicassoParams(), seed=11).color(ps)
        for kw in _backend_variants(cluster):
            got = Picasso(
                params=PicassoParams(kernel_backend=kernel_backend, **kw),
                seed=11,
            ).color(ps)
            np.testing.assert_array_equal(ref.colors, got.colors)
            assert ref.n_colors == got.n_colors

    @pytest.mark.parametrize("kernel_backend", available_backends())
    def test_parallel_list_engine_identical_per_seed(
        self, cluster, kernel_backend
    ):
        """The round-synchronous coloring engine dispatched over the
        cluster: rounds are pure functions of committed state, so any
        shard count lands on the same colors as in-process rounds."""
        ps = random_pauli_set(150, 8, seed=9)
        ref = Picasso(
            params=PicassoParams(color_engine="parallel-list"), seed=11
        ).color(ps)
        for kw in _backend_variants(cluster):
            got = Picasso(
                params=PicassoParams(
                    color_engine="parallel-list",
                    kernel_backend=kernel_backend, **kw
                ),
                seed=11,
            ).color(ps)
            np.testing.assert_array_equal(ref.colors, got.colors)
            assert got.engine == "parallel-list"

    def test_coloring_validates(self, cluster):
        ps = random_pauli_set(100, 7, seed=21)
        dist = Picasso(
            params=PicassoParams(hosts=cluster.hosts), seed=4
        ).color(ps)
        assert PauliComplementSource(ps).validate(dist.colors)


class TestParallelListDirect:
    def test_direct_rounds_identical(self, cluster):
        from repro.graphs.generators import erdos_renyi

        g = erdos_renyi(200, 0.05, seed=2)
        lists = np.tile(np.arange(24, dtype=np.int64), (200, 1))
        ref_colors, ref_vu, ref_info = parallel_list_color(g, lists, rng=7)
        with cluster.executor() as ex:
            got_colors, got_vu, got_info = parallel_list_color(
                g, lists, rng=7, executor=ex
            )
        np.testing.assert_array_equal(ref_colors, got_colors)
        np.testing.assert_array_equal(ref_vu, got_vu)
        assert ref_info["n_rounds"] == got_info["n_rounds"]
