"""Tests for the CSR graph structure and edge-list builder."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import CSRGraph, from_edge_list, index_dtype
from repro.graphs import csr as csr_module
from repro.device.palette_index import PaletteIndex
from repro.graphs.csr import csr_from_coo_chunks, key_layout, key_pairs, pair_keys


def triangle() -> CSRGraph:
    return from_edge_list([0, 1, 2], [1, 2, 0], 3)


class TestFromEdgeList:
    def test_triangle(self):
        g = triangle()
        assert g.n_vertices == 3
        assert g.n_edges == 3
        for v in range(3):
            assert g.degree(v) == 2
        assert sorted(g.neighbors(0).tolist()) == [1, 2]

    def test_isolated_vertices(self):
        g = from_edge_list([0], [1], 5)
        assert g.n_vertices == 5
        assert g.degree(4) == 0
        np.testing.assert_array_equal(g.degree(), [1, 1, 0, 0, 0])

    def test_empty(self):
        g = from_edge_list(np.empty(0, int), np.empty(0, int), 4)
        assert g.n_edges == 0
        assert g.max_degree() == 0
        assert g.average_degree() == 0.0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list([0], [0], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list([0], [5], 3)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            from_edge_list([0, 1], [1], 3)

    def test_dedupe(self):
        g = from_edge_list([0, 1, 0], [1, 0, 1], 2, dedupe=True)
        assert g.n_edges == 1

    def test_dedupe_matches_unique_edge_set(self):
        rng = np.random.default_rng(3)
        u = rng.integers(0, 50, 400)
        v = (u + rng.integers(1, 50, 400)) % 50
        g = from_edge_list(u, v, 50, dedupe=True)
        edges = {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}
        offsets, targets = reference_csr(sorted(edges), 50)
        np.testing.assert_array_equal(g.offsets, offsets)
        np.testing.assert_array_equal(g.targets, targets)

    def test_index_dtype_switch(self):
        assert index_dtype(100) == np.int32
        assert index_dtype(2**31) == np.int64
        g = triangle()
        assert g.targets.dtype == np.int32


class TestAccessors:
    def test_edges_unique_ordered(self):
        g = triangle()
        e = g.edges()
        assert e.shape == (3, 2)
        assert (e[:, 0] < e[:, 1]).all()

    def test_has_edge(self):
        g = from_edge_list([0], [1], 3)
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_max_and_average_degree(self):
        g = from_edge_list([0, 0, 0], [1, 2, 3], 4)
        assert g.max_degree() == 3
        assert g.average_degree() == pytest.approx(6 / 4)

    def test_nbytes_positive(self):
        assert triangle().nbytes > 0

    def test_invalid_offsets_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([1], dtype=np.int32))
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 1]), np.empty(0, dtype=np.int32))


class TestValidateColoring:
    def test_proper(self):
        g = triangle()
        assert g.validate_coloring(np.array([0, 1, 2]))

    def test_improper(self):
        g = triangle()
        assert not g.validate_coloring(np.array([0, 0, 1]))

    def test_uncolored_fails(self):
        g = triangle()
        assert not g.validate_coloring(np.array([0, 1, -1]))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            triangle().validate_coloring(np.array([0, 1]))

    def test_empty_graph_any_colors(self):
        g = from_edge_list(np.empty(0, int), np.empty(0, int), 3)
        assert g.validate_coloring(np.zeros(3, dtype=int))


class TestAgainstNetworkx:
    @given(
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_degrees_match_networkx(self, n, p, seed):
        import networkx as nx

        from repro.graphs import erdos_renyi
        from repro.graphs.ops import to_networkx

        g = erdos_renyi(n, p, seed)
        nxg = to_networkx(g)
        assert nxg.number_of_edges() == g.n_edges
        for v in range(n):
            assert nxg.degree[v] == g.degree(v)


def reference_csr(edges, n):
    """Naive canonical CSR: row ``x`` lists its neighbours above ``x``
    ascending, then its neighbours below ``x`` ascending."""
    upper = [[] for _ in range(n)]
    lower = [[] for _ in range(n)]
    for a, b in edges:
        lo, hi = min(a, b), max(a, b)
        upper[lo].append(hi)
        lower[hi].append(lo)
    rows = [sorted(upper[x]) + sorted(lower[x]) for x in range(n)]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    targets = np.array([t for r in rows for t in r], dtype=index_dtype(n))
    return offsets, targets


def split_chunks(edges, cuts, dtype):
    """``edges`` as ``(u, v)`` chunks cut at ``cuts`` (repeats give
    empty chunks)."""
    e = np.array(edges, dtype=dtype).reshape(-1, 2)
    bounds = [0, *sorted(cuts), len(e)]
    return [(e[a:b, 0], e[a:b, 1]) for a, b in zip(bounds[:-1], bounds[1:])]


def as_keys(chunk, n):
    """A ``(u, v)`` chunk as a 1-D key array in ``key_layout(n)``."""
    u, v = chunk
    return pair_keys(np.minimum(u, v), np.maximum(u, v), n)


@st.composite
def chunked_graphs(draw, max_n=30):
    """A vertex count, a unique edge list in mixed orientation, and
    three different chunkings of it: ``(u, v)`` chunks, the same edges
    shuffled as a mix of ``(u, v)`` and key chunks, and all key
    chunks."""
    n = draw(st.integers(0, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(b, a) if f else (a, b) for (a, b), f in zip(edges, flips)]
    cut = st.lists(st.integers(0, len(edges)), max_size=6)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    first = split_chunks(edges, draw(cut), dtype)
    second = split_chunks(draw(st.permutations(edges)), draw(cut), dtype)
    mixed = [as_keys(c, n) if draw(st.booleans()) else c for c in second]
    keys = [as_keys(c, n) for c in split_chunks(edges, draw(cut), dtype)]
    return n, edges, first, mixed, keys


class TestSortKeyAssembly:
    """``csr_from_coo_chunks`` against the naive reference: the arrays
    depend on the edge set alone, whatever the orientation, chunking,
    order or encoding (key arrays, ``(u, v)`` pairs or a mix) of the
    stream."""

    @given(chunked_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_for_any_chunking(self, case):
        n, edges, *streams = case
        offsets, targets = reference_csr(edges, n)
        for chunks in streams:
            g = csr_from_coo_chunks(chunks, n)
            assert g.offsets.dtype == np.int64
            assert g.targets.dtype == index_dtype(n)
            np.testing.assert_array_equal(g.offsets, offsets)
            np.testing.assert_array_equal(g.targets, targets)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_and_edgeless(self, n):
        empty = np.empty(0, dtype=np.int64)
        g = csr_from_coo_chunks([(empty, empty)], n)
        np.testing.assert_array_equal(g.offsets, np.zeros(n + 1))
        assert len(g.targets) == 0
        assert csr_from_coo_chunks([], n).n_vertices == n

    def test_single_edge_reversed(self):
        g = csr_from_coo_chunks([(np.array([1]), np.array([0]))], 2)
        np.testing.assert_array_equal(g.offsets, [0, 1, 2])
        np.testing.assert_array_equal(g.targets, [1, 0])

    @pytest.mark.parametrize("n", [2**15, 2**15 + 1])
    def test_key_width_boundary(self, n):
        """``n = 2**15`` is the last size with 4-byte keys; one more
        vertex switches to 8-byte keys.  Edges touch vertex ``n - 1``."""
        rng = np.random.default_rng(n)
        top = n - 1
        others = rng.choice(top, 300, replace=False)
        edges = [(top, x) for x in others[:150].tolist()]
        edges += list(zip(others[150:225].tolist(), others[225:].tolist()))
        offsets, targets = reference_csr(edges, n)
        chunks = split_chunks(edges[::-1], [40, 40, 200], np.int64)
        keys = [as_keys(c, n) for c in chunks]
        assert keys[0].dtype == (np.int32 if n == 2**15 else np.int64)
        for stream in (chunks, keys):
            g = csr_from_coo_chunks(stream, n)
            np.testing.assert_array_equal(g.offsets, offsets)
            np.testing.assert_array_equal(g.targets, targets)

    @pytest.mark.parametrize("n", [2**15, 2**15 + 1])
    def test_index_key_width_boundary(self, n):
        """``PaletteIndex.block_keys`` switches key width with the
        assembly: one color per vertex (``L = 1``) from a large
        palette, with ``(n - 2, n - 1)`` sharing a color."""
        palette = 2048
        lists = (np.arange(n) * 7 % palette).reshape(-1, 1)
        lists[n - 1] = lists[n - 2]
        index = PaletteIndex(lists)
        keys = index.block_keys(0, n)
        assert keys.dtype == key_layout(n)[1]
        assert keys.dtype == (np.int32 if n == 2**15 else np.int64)
        assert (np.diff(keys) > 0).all()
        i, j = key_pairs(keys, n)
        assert (i < j).all() and (lists[i] == lists[j]).all()
        assert (n - 2, n - 1) == (i[-1], j[-1])
        sizes = np.bincount(lists[:, 0], minlength=palette)
        assert len(keys) == int((sizes * (sizes - 1) // 2).sum())
        g = csr_from_coo_chunks([keys], n)
        assert g.n_edges == len(keys) and g.degree(n - 1) == g.degree(n - 2)

    @pytest.mark.parametrize("n", [2**15 - 1, 2**15, 2**15 + 1, 70_000])
    def test_row_bands(self, n):
        """Sorted, shuffled, ``(u, v)`` and mixed streams at the
        one-band edge (``n = 2**15``: the row-start sentinel ``n << 16``
        does not fit int32) and with bands of ``2**(30 - s)`` rows: 2 at
        ``2**15 + 1``, 9 of 8,192 at 70,000.  Edges cross every band
        boundary and touch vertices 0 and ``n - 1``."""
        rng = np.random.default_rng(n)
        s, _ = key_layout(n)
        cuts = np.arange(0, n, 1 << max(30 - s, 0))
        ends = np.concatenate([cuts, cuts - 1, cuts + 1, [0, n - 1]]).clip(0, n - 1)
        u = np.concatenate([rng.integers(0, n, 3000), ends, rng.choice(ends, len(ends))])
        v = np.concatenate([rng.integers(0, n, 3000), rng.permutation(ends), ends[::-1]])
        keys = np.unique(pair_keys(np.minimum(u, v), np.maximum(u, v), n)[u != v])
        i, j = key_pairs(keys, n)
        offsets, targets = reference_csr(zip(i.tolist(), j.tolist()), n)
        shuffled = rng.permutation(keys)
        flip = rng.random(len(keys)) < 0.5
        a_ids, b_ids = np.where(flip, j, i), np.where(flip, i, j)
        pairs = [(a_ids[a : a + 700], b_ids[a : a + 700]) for a in range(0, len(keys), 700)]
        streams = [
            [keys[a : a + 500] for a in range(0, len(keys), 500)],
            [shuffled[a : a + 900] for a in range(0, len(keys), 900)],
            pairs,
            [as_keys(c, n) if k % 2 else c for k, c in enumerate(pairs)],
        ]
        for chunks in streams:
            g = csr_from_coo_chunks(chunks, n)
            assert chunks == []
            np.testing.assert_array_equal(g.offsets, offsets)
            np.testing.assert_array_equal(g.targets, targets)

    def test_chunks_are_consumed(self):
        chunks = split_chunks([(0, 1), (2, 1), (3, 0)], [1, 1], np.int64)
        csr_from_coo_chunks(chunks, 4)
        assert chunks == []

    @pytest.mark.parametrize(
        "u, v",
        [
            ([0, -1], [1, 2]),  # negative id
            ([0, 1], [1, 5]),  # id == n rounds into the unused key range
            ([0, 1], [1, 9]),  # id >= 2**s would fold into another row
            ([0, 2**20], [1, 2]),  # far above n: would wrap a 4-byte key
        ],
    )
    def test_bad_ids_raise(self, u, v):
        with pytest.raises(ValueError, match="out of range"):
            csr_from_coo_chunks([(np.array(u), np.array(v))], 5)

    @pytest.mark.parametrize(
        "key",
        [
            -1,  # negative
            5 << 3 | 6,  # row field == n (s = 3 at n = 5)
            1 << 3 | 5,  # column field == n, inside row 1's key range
            0 << 3 | 7,  # column field at the top of the unused range
            2**40,  # far above n: would wrap a 4-byte key
        ],
    )
    def test_bad_keys_raise(self, key):
        good = pair_keys(np.array([0, 1]), np.array([1, 2]), 5)
        with pytest.raises(ValueError, match="out of range"):
            csr_from_coo_chunks([good, np.array([key], dtype=np.int64)], 5)

    @pytest.mark.parametrize("libc", [OSError, AttributeError, TypeError])
    def test_assembles_without_malloc_trim(self, monkeypatch, libc):
        """The heap trim before ``targets`` is allocated is best effort:
        a C library without ``malloc_trim`` (or none at all) changes
        nothing in the result."""
        edges = [(0, 3), (2, 1), (4, 0), (1, 3)]
        offsets, targets = reference_csr(edges, 5)

        def no_trim(name):
            raise libc("no malloc_trim")

        monkeypatch.setattr(csr_module.ctypes, "CDLL", no_trim)
        g = csr_from_coo_chunks(split_chunks(edges, [2], np.int64), 5)
        np.testing.assert_array_equal(g.offsets, offsets)
        np.testing.assert_array_equal(g.targets, targets)


class TestAssemblyMemory:
    """The assembly writes its keys into ``targets`` itself: traced
    peak is ``targets`` plus O(block) temporaries, so an ``m``-long
    key array or a ``2m``-long selector breaks the bound."""

    @staticmethod
    def traced_peak(n, m, as_keys):
        """Assemble ``m`` random edges on ``n`` vertices, streamed as 64
        chunks of ``(u, v)`` pairs or of keys; return the graph and the
        traced peak."""
        rng = np.random.default_rng(0)
        u = rng.integers(0, n - 1, m, dtype=np.int32)
        v = (u + rng.integers(1, n - u, dtype=np.int32)).astype(np.int32)
        step = m >> 6
        chunks = [(u[a : a + step], v[a : a + step]) for a in range(0, m, step)]
        if as_keys:
            chunks = [pair_keys(a, b, n) for a, b in chunks]
        del u, v
        tracemalloc.start()
        try:
            g = csr_from_coo_chunks(chunks, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.targets.nbytes == 2 * m * 4
        return g, peak

    def test_traced_peak_bound(self):
        g, peak = self.traced_peak(5000, 6 << 20, as_keys=False)
        assert peak <= g.targets.nbytes + (16 << 20)

    def test_traced_peak_bound_int64_bands(self):
        """int64 keys and three row bands of 16,384 rows."""
        g, peak = self.traced_peak(40_000, 3 << 20, as_keys=True)
        assert key_layout(40_000)[1] == np.int64
        assert peak <= g.targets.nbytes + (16 << 20)
