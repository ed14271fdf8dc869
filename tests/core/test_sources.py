"""Tests for edge sources (streaming Pauli complement vs explicit graph)."""

import numpy as np
import pytest

from repro.core.sources import ExplicitGraphSource, PauliComplementSource
from repro.graphs import complement_graph, erdos_renyi
from repro.pauli import random_pauli_set


class TestPauliComplementSource:
    def test_matches_explicit_complement(self):
        ps = random_pauli_set(30, 5, seed=0)
        src = PauliComplementSource(ps)
        g = complement_graph(ps)
        ii, jj = np.triu_indices(30, k=1)
        mask = src.edge_mask(ii, jj).astype(bool)
        expected = np.array([g.has_edge(a, b) for a, b in zip(ii, jj)])
        np.testing.assert_array_equal(mask, expected)

    def test_subset_consistent(self):
        ps = random_pauli_set(25, 5, seed=1)
        src = PauliComplementSource(ps)
        idx = np.array([3, 7, 11, 20])
        sub = src.subset(idx)
        assert sub.n == 4
        ii, jj = np.triu_indices(4, k=1)
        np.testing.assert_array_equal(
            sub.edge_mask(ii, jj), src.edge_mask(idx[ii], idx[jj])
        )

    def test_nbytes_excludes_graph(self):
        """The whole point: resident bytes scale with n, not n^2."""
        small = PauliComplementSource(random_pauli_set(50, 6, seed=2))
        big = PauliComplementSource(random_pauli_set(500, 6, seed=2))
        assert big.nbytes < 50 * small.nbytes  # linear-ish, not 100x

    def test_validate_accepts_proper(self):
        ps = random_pauli_set(20, 4, seed=3)
        src = PauliComplementSource(ps)
        colors = np.arange(20)  # rainbow is always proper
        assert src.validate(colors)

    def test_validate_rejects_monochrome_edge(self):
        ps = random_pauli_set(20, 4, seed=3)
        src = PauliComplementSource(ps)
        g = complement_graph(ps)
        e = g.edges()[0]
        colors = np.arange(20)
        colors[e[1]] = colors[e[0]]
        assert not src.validate(colors)

    def test_validate_rejects_uncolored(self):
        ps = random_pauli_set(10, 4, seed=4)
        src = PauliComplementSource(ps)
        colors = np.arange(10)
        colors[0] = -1
        assert not src.validate(colors)

    def test_validate_sampled(self):
        ps = random_pauli_set(40, 5, seed=5)
        src = PauliComplementSource(ps)
        assert src.validate(np.arange(40), sample_pairs=100)


class TestExplicitGraphSource:
    def test_edge_mask_matches_graph(self):
        g = erdos_renyi(40, 0.3, seed=0)
        src = ExplicitGraphSource(g)
        ii, jj = np.triu_indices(40, k=1)
        mask = src.edge_mask(ii, jj).astype(bool)
        expected = np.array([g.has_edge(a, b) for a, b in zip(ii, jj)])
        np.testing.assert_array_equal(mask, expected)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0])
    def test_unsorted_rows_all_orientations(self, p):
        """Rows built from a shuffled edge list hold unsorted targets;
        membership and blocks must still match the dense adjacency for
        every ordered query, diagonal included."""
        from repro.graphs.csr import from_edge_list

        n = 25
        rng = np.random.default_rng(4)
        e = erdos_renyi(n, p, seed=4).edges()
        e = e[rng.permutation(len(e))]
        g = from_edge_list(e[:, 1], e[:, 0], n)
        dense = np.zeros((n, n), dtype=np.uint8)
        dense[e[:, 0], e[:, 1]] = dense[e[:, 1], e[:, 0]] = 1
        src = ExplicitGraphSource(g)
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        order = rng.permutation(n * n)
        got = src.edge_mask(ii.ravel()[order], jj.ravel()[order])
        np.testing.assert_array_equal(got, dense.ravel()[order])
        np.testing.assert_array_equal(src.edge_block(3, 17, 5, 25), dense[3:17, 5:25])

    def test_isolated_vertices(self):
        g = erdos_renyi(10, 0.0, seed=0)
        src = ExplicitGraphSource(g)
        ii, jj = np.triu_indices(10, k=1)
        assert src.edge_mask(ii, jj).sum() == 0

    def test_subset(self):
        g = erdos_renyi(30, 0.5, seed=1)
        src = ExplicitGraphSource(g)
        idx = np.array([0, 5, 10, 15, 29])
        sub = src.subset(idx)
        ii, jj = np.triu_indices(5, k=1)
        np.testing.assert_array_equal(
            sub.edge_mask(ii, jj), src.edge_mask(idx[ii], idx[jj])
        )

    def test_validate_delegates(self):
        g = erdos_renyi(15, 0.4, seed=2)
        src = ExplicitGraphSource(g)
        assert src.validate(np.arange(15))
        bad = np.zeros(15, dtype=np.int64)
        if g.n_edges:
            assert not src.validate(bad)

    def test_nbytes_includes_graph(self):
        g = erdos_renyi(50, 0.5, seed=3)
        src = ExplicitGraphSource(g)
        assert src.nbytes >= g.nbytes

    def test_keys_built_lazily_and_charged_once_built(self):
        """Block queries scatter the CSR rows and build no sorted keys;
        the first ``edge_mask`` call builds them, and only then does
        ``nbytes`` charge them."""
        g = erdos_renyi(60, 0.3, seed=5)
        src = ExplicitGraphSource(g)
        blk = src.edge_block(0, 60, 0, 60)
        assert src._keys is None and src.nbytes == g.nbytes
        ii, jj = np.triu_indices(60, k=1)
        np.testing.assert_array_equal(blk[ii, jj], src.edge_mask(ii, jj))
        assert src._keys.nbytes == 8 * len(g.targets)
        assert src.nbytes == g.nbytes + src._keys.nbytes

    @pytest.mark.parametrize("run", ["serial", "pool", "device", "device-pool"])
    def test_graph_runs_never_build_keys(self, run, monkeypatch):
        """A ``greedy-dynamic`` run on an explicit graph (serial or
        pool: the arc pass) and a DeviceSim run (its ``rows`` strips ask
        the block oracle) never ask ``edge_mask``, so no source builds
        its sorted keys, and the colors equal the naive reference's."""
        from naive_reference import reference_coloring

        from repro.core import Picasso, PicassoParams
        from repro.device.sim import DeviceSim

        def forbidden(self, i, j):
            raise AssertionError("an explicit run built its edge-query keys")

        sources = []
        init = ExplicitGraphSource.__init__

        def tracked(self, graph):
            init(self, graph)
            sources.append(self)

        g = erdos_renyi(150, 0.6, seed=6)  # eight iterations: seven subsets
        ref = reference_coloring(g, 3)
        monkeypatch.setattr(ExplicitGraphSource, "edge_mask", forbidden)
        monkeypatch.setattr(ExplicitGraphSource, "__init__", tracked)
        workers = 2 if run.endswith("pool") else 1
        device = DeviceSim() if run.startswith("device") else None
        got = Picasso(PicassoParams(n_workers=workers), device=device, seed=3).color(g)
        np.testing.assert_array_equal(got.colors, ref.colors)
        assert len(got.iterations) > 1
        assert len(sources) == len(got.iterations)
        assert all(src._keys is None for src in sources)
