"""Tests for Pauli-set graph builders, generators and graph ops."""

import numpy as np
import pytest

from repro.graphs import (
    anticommute_edge_count,
    anticommute_graph,
    complement,
    complement_edge_count,
    complement_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    from_edge_list,
    induced_subgraph,
    random_bipartite,
    star_graph,
)
from repro.graphs.ops import from_networkx, to_networkx
from repro.pauli import PauliSet, anticommute_matrix, random_pauli_set
from repro.util.chunking import num_pairs


class TestPauliGraphBuilders:
    def test_matches_dense_matrix(self):
        ps = random_pauli_set(40, 6, seed=0)
        g = anticommute_graph(ps)
        m = anticommute_matrix(ps.chars)
        assert g.n_edges == m.sum() // 2
        for v in range(ps.n):
            np.testing.assert_array_equal(
                np.sort(g.neighbors(v)), np.nonzero(m[v])[0]
            )

    def test_complement_partition(self):
        """G and G' edges partition all pairs."""
        ps = random_pauli_set(35, 5, seed=1)
        g = anticommute_graph(ps)
        gc = complement_graph(ps)
        assert g.n_edges + gc.n_edges == num_pairs(ps.n)

    def test_edge_counts_match_graphs(self):
        ps = random_pauli_set(30, 5, seed=2)
        assert anticommute_edge_count(ps) == anticommute_graph(ps).n_edges
        assert complement_edge_count(ps) == complement_graph(ps).n_edges

    def test_identity_vertex_dominates_complement(self):
        ps = PauliSet.from_strings(["IIII", "XYZI", "ZZXX"])
        gc = complement_graph(ps)
        assert gc.degree(0) == 2  # identity commutes with everything

    @pytest.mark.parametrize("builder", [anticommute_graph, complement_graph])
    def test_parallel_builders_bit_identical(self, builder):
        """Explicit builders route through the executor layer: worker
        strips gather in canonical row order, so the CSR matches the
        serial build bit for bit."""
        ps = random_pauli_set(90, 6, seed=3)
        ref = builder(ps)
        got = builder(ps, n_workers=2)
        np.testing.assert_array_equal(got.offsets, ref.offsets)
        np.testing.assert_array_equal(got.targets, ref.targets)


class TestGenerators:
    def test_complete(self):
        g = complete_graph(6)
        assert g.n_edges == 15
        assert g.max_degree() == 5

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.n_edges == 5
        assert all(g.degree(v) == 2 for v in range(5))
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(7)
        assert g.degree(0) == 6
        assert g.degree(3) == 1
        with pytest.raises(ValueError):
            star_graph(1)

    def test_empty(self):
        assert empty_graph(5).n_edges == 0

    def test_erdos_renyi_extremes(self):
        assert erdos_renyi(10, 0.0, 0).n_edges == 0
        assert erdos_renyi(10, 1.0, 0).n_edges == 45
        with pytest.raises(ValueError):
            erdos_renyi(10, 1.5, 0)

    def test_erdos_renyi_density(self):
        g = erdos_renyi(200, 0.5, 42)
        frac = g.n_edges / num_pairs(200)
        assert 0.45 < frac < 0.55

    def test_bipartite_structure(self):
        g = random_bipartite(10, 12, 0.5, seed=1)
        e = g.edges()
        left = e.min(axis=1)
        right = e.max(axis=1)
        assert (left < 10).all() and (right >= 10).all()


class TestOps:
    def test_induced_subgraph_triangle(self):
        g = complete_graph(5)
        sub, old = induced_subgraph(g, np.array([1, 3, 4]))
        assert sub.n_vertices == 3
        assert sub.n_edges == 3
        np.testing.assert_array_equal(old, [1, 3, 4])

    def test_induced_subgraph_duplicates_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(complete_graph(4), np.array([0, 0]))

    def test_induced_subgraph_empty_selection(self):
        sub, _ = induced_subgraph(complete_graph(4), np.array([], dtype=np.int64))
        assert sub.n_vertices == 0

    def test_complement_of_complete_is_empty(self):
        assert complement(complete_graph(8)).n_edges == 0

    def test_complement_involution(self):
        g = erdos_renyi(30, 0.4, 7)
        gg = complement(complement(g))
        np.testing.assert_array_equal(gg.offsets, g.offsets)
        assert sorted(map(tuple, gg.edges().tolist())) == sorted(
            map(tuple, g.edges().tolist())
        )

    def test_networkx_roundtrip(self):
        g = erdos_renyi(25, 0.3, 3)
        back = from_networkx(to_networkx(g))
        assert back.n_edges == g.n_edges
        assert back.n_vertices == g.n_vertices

    def test_from_networkx_rejects_directed(self):
        import networkx as nx

        with pytest.raises(TypeError):
            from_networkx(nx.DiGraph())
