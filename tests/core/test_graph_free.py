"""The host Picasso iteration without a conflict graph.

A host run on a Pauli input (serial, pool or cluster) detects the
conflicted set on the palette index and answers each Algorithm 2 pick
in the parent from a palette bucket plus the edge oracle
(:func:`repro.core.conflict.bucket_conflict_state`); a pool or cluster
runs only detection's sparse-conflict sweep and ``exact_edges`` counts.
A host run on an explicit graph marks the conflicted set in one pass
over the graph's arcs and colors the subgraph they induce
(:func:`repro.core.conflict.adjacency_conflict_state`), with no sweep.
These tests hold both to the runs that do build a conflict graph (the
naive reference and the DeviceSim build), to a 2-worker pool and to
checkpoint resume.
"""

import tracemalloc

import numpy as np
import pytest
from naive_reference import naive_conflict_csr, reference_coloring

from repro import telemetry
from repro.coloring.greedy_list import greedy_list_color_dynamic
from repro.core import Picasso, PicassoParams, aggressive_params
from repro.core import conflict as conflict_module
from repro.core import picasso as picasso_module
from repro.core.conflict import (
    adjacency_conflict_state, bucket_conflict_state, count_conflict_edges,
)
from repro.core.palette import assign_color_lists
from repro.core.sources import ExplicitGraphSource, PauliComplementSource
from repro.device import palette_index
from repro.device.palette_index import PaletteIndex
from repro.device.sim import DeviceSim
from repro.device import multi as multi_module
from repro.graphs import build as build_module
from repro.graphs import csr as csr_module
from repro.graphs import complement_graph, empty_graph, erdos_renyi
from repro.graphs.csr import CSRGraph, from_edge_list
from repro.distributed import LocalCluster
from repro.parallel import PoolExecutor
from repro.parallel import pool as pool_module
from repro.pauli import PauliSet, random_pauli_set
from repro.resilience.checkpoint import latest_checkpoint
from repro.resilience.faults import (
    FaultInjected,
    FaultSpec,
    clear_faults,
    install_fault,
)

#: List regimes: the Normal preset, one-color lists (``L = 1``), whole
#: palettes (``L = P``) and a one-color palette (``P = 1``).
REGIMES = {
    "normal": {},
    "L1": {"alpha": 0.01},
    "LP": {"palette_fraction": 0.03, "alpha": 30.0},  # the Aggressive preset
    "P1": {"palette_fraction": 1e-6, "alpha": 0.01},
}


def with_isolated(n_linked: int, n_isolated: int, seed: int):
    """A random graph on ``n_linked`` vertices plus ``n_isolated``
    vertices with no edge, interleaved: isolated vertices are never
    conflicted, so detection's second pass must clear them."""
    g = erdos_renyi(n_linked, 0.3, seed=seed)
    perm = np.random.default_rng(seed).permutation(n_linked + n_isolated)
    rows = np.repeat(np.arange(n_linked), np.diff(g.offsets))
    return from_edge_list(perm[rows], perm[g.targets], n_linked + n_isolated,
                          dedupe=True)


def majoranas(n_modes: int, n_copies: int, n_bulk: int = 0) -> PauliSet:
    """Jordan-Wigner Majorana strings, which pairwise anticommute, plus
    copies of the first ``n_copies`` and ``n_bulk`` strings ``Z..Z (x)
    R`` with random ``R`` on 6 more qubits, which anticommute with every
    Majorana and commute with each other about half the time.  In the
    complement graph the Majoranas are isolated but for their copies:
    mostly Majoranas, detection's sweep marks them; mostly bulk, its
    second pass clears them."""
    maj = ["Z" * k + p + "I" * (n_modes - k - 1 + 6) for k in range(n_modes) for p in "XY"]
    bulk = random_pauli_set(n_bulk, 6, seed=n_bulk).to_strings()
    return PauliSet.from_strings(maj + maj[:n_copies] + ["Z" * n_modes + r for r in bulk])


def inputs():
    out = []
    for n in (0, 1, 2, 63, 64, 65):
        for regime in REGIMES:
            out.append((f"pauli{n}-{regime}", n, regime))
    out += [("majorana-normal", None, "normal"), ("majorana-LP", None, "LP"),
            ("bulk-normal", None, "normal"), ("bulk-LP", None, "LP"),
            ("isolated-normal", None, "normal"), ("isolated-LP", None, "LP"),
            ("empty-normal", None, "normal")]
    return out


def make_input(name: str, n):
    if name.startswith("pauli"):
        return random_pauli_set(n, 6, seed=n)
    if name.startswith("majorana"):
        return majoranas(40, 9)
    if name.startswith("bulk"):
        return majoranas(5, 2, n_bulk=90)
    if name.startswith("isolated"):
        return with_isolated(50, 14, seed=3)
    return empty_graph(40)


def trace(result):
    return [(s.n_conflict_vertices, s.n_uncolored) for s in result.iterations]


def loops_and_repeats(seed: int) -> tuple[CSRGraph, CSRGraph]:
    """A graph with isolated vertices, and a hand-built copy of it with a
    self-loop on an isolated and on a linked vertex and one arc repeated
    out of order (so that row's arcs are not ascending)."""
    clean = with_isolated(20, 6, seed=seed)
    rows = [clean.neighbors(v).tolist() for v in range(clean.n_vertices)]
    isolated = next(v for v, row in enumerate(rows) if not row)
    linked = next(v for v, row in enumerate(rows) if row)
    rows[isolated].append(isolated)
    above = rows[linked][0]  # the lowest linked vertex has only higher neighbours
    rows[linked] += [linked, above]
    rows[above].append(linked)
    offsets = np.cumsum([0] + [len(row) for row in rows])
    targets = np.array([t for row in rows for t in row], dtype=np.int32)
    return clean, CSRGraph(offsets=offsets.astype(np.int64), targets=targets)


#: Explicit inputs of the arc pass: sparse and dense random graphs, a
#: complement graph, the empty graph, isolated vertices, and loops plus
#: a repeated arc.
EXPLICIT = {
    "er-sparse": erdos_renyi(120, 0.02, seed=1),
    "er-dense": erdos_renyi(60, 0.6, seed=2),
    "complement": complement_graph(random_pauli_set(90, 6, seed=3)),
    "empty": empty_graph(30),
    "isolated": with_isolated(50, 14, seed=3),
    "loops-repeats": loops_and_repeats(5)[1],
}


def explicit_trace(result):
    return [(s.n_conflict_vertices, s.n_conflict_edges, s.n_uncolored)
            for s in result.iterations]


def forbid_sweeps(mp) -> None:
    """Make every sweep, CSR assembly and explicit edge query raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an explicit-graph run swept or asked the edge oracle")

    for module in (conflict_module, pool_module):
        mp.setattr(module, "conflict_sweep_chunks", forbidden)
    for module in (csr_module, pool_module, build_module, multi_module):
        mp.setattr(module, "csr_from_coo_chunks", forbidden)
    mp.setattr(ExplicitGraphSource, "edge_mask", forbidden)
    mp.setattr(ExplicitGraphSource, "edge_block", forbidden)


class TestDifferential:
    @pytest.mark.parametrize("name,n,regime", inputs())
    def test_serial_matches_graph_runs(self, name, n, regime, tmp_path):
        inp = make_input(name, n)
        knobs = REGIMES[regime]
        seed = 4
        serial = Picasso(PicassoParams(**knobs), seed=seed).color(inp)
        # An explicit graph counts |Ec| in its arc pass.
        explicit = not isinstance(inp, PauliSet)
        assert all((s.n_conflict_edges is None) != explicit for s in serial.iterations)
        others = {
            "reference": reference_coloring(inp, seed, **knobs),
            "pool": Picasso(PicassoParams(n_workers=2, **knobs), seed=seed).color(inp),
            "device": Picasso(PicassoParams(**knobs), device=DeviceSim(),
                              seed=seed).color(inp),
            "exact": Picasso(PicassoParams(**knobs), seed=seed,
                             exact_edges=True).color(inp),
        }
        if serial.n_iterations >= 2:
            install_fault(FaultSpec(kind="error", site="iteration", after=1))
            try:
                with pytest.raises(FaultInjected):
                    Picasso(PicassoParams(checkpoint_dir=str(tmp_path), **knobs),
                            seed=seed).color(inp)
            finally:
                clear_faults()
            assert latest_checkpoint(tmp_path) is not None
            others["resume"] = Picasso(PicassoParams(
                checkpoint_dir=str(tmp_path), resume=True, **knobs,
            ), seed=seed).color(inp)
        for label, other in others.items():
            np.testing.assert_array_equal(serial.colors, other.colors, err_msg=label)
            assert trace(serial) == trace(other), label
        assert (serial.colors >= 0).all()
        # The pool builds a graph exactly where the serial run does.
        pooled = [s.n_conflict_edges for s in others["pool"].iterations]
        assert pooled == [s.n_conflict_edges for s in serial.iterations]
        # Counted |Ec| equals the built graphs' edge counts.
        counted = [s.n_conflict_edges for s in others["exact"].iterations]
        assert counted == [s.n_conflict_edges for s in others["reference"].iterations]
        assert counted == [s.n_conflict_edges for s in others["device"].iterations]

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("name", sorted(EXPLICIT))
    def test_explicit_adjacency_matches_reference(self, name, regime, tmp_path):
        """Explicit graphs, serial, on a 2-worker pool and resumed from a
        checkpoint, color as the reference does, iteration by iteration,
        with no sweep, CSR assembly or edge-oracle call."""
        graph, knobs, seed = EXPLICIT[name], REGIMES[regime], 4
        ref = reference_coloring(graph, seed, **knobs)
        runs = {}
        with pytest.MonkeyPatch.context() as mp:
            forbid_sweeps(mp)
            runs["serial"] = Picasso(PicassoParams(**knobs), seed=seed).color(graph)
            runs["pool"] = Picasso(PicassoParams(n_workers=2, **knobs), seed=seed).color(graph)
            if ref.n_iterations >= 2:
                ckpt = PicassoParams(checkpoint_dir=str(tmp_path), **knobs)
                install_fault(FaultSpec(kind="error", site="iteration", after=1))
                try:
                    with pytest.raises(FaultInjected):
                        Picasso(ckpt, seed=seed).color(graph)
                finally:
                    clear_faults()
                runs["resume"] = Picasso(ckpt.with_(resume=True), seed=seed).color(graph)
        for label, run in runs.items():
            np.testing.assert_array_equal(run.colors, ref.colors, err_msg=label)
            assert explicit_trace(run) == explicit_trace(ref), label
        assert graph.validate_coloring(ref.colors)
        if name == "loops-repeats":
            # The loops and the repeated arc change nothing.
            clean = reference_coloring(loops_and_repeats(5)[0], seed, **knobs)
            np.testing.assert_array_equal(clean.colors, ref.colors)
            assert explicit_trace(clean) == explicit_trace(ref)

    def test_regimes_reach_their_list_shapes(self):
        """The regimes above do draw the list shapes they are named for."""
        shapes = {}
        for regime, knobs in REGIMES.items():
            p = PicassoParams(**knobs)
            shapes[regime] = (p.palette_size(65), p.list_size(65))
        assert shapes["L1"][1] == 1 < shapes["L1"][0]
        assert shapes["LP"][0] == shapes["LP"][1] > 1
        assert shapes["P1"] == (1, 1)


class TestDetection:
    @pytest.mark.parametrize("case", ["pauli-normal", "pauli-LP", "isolated-normal",
                                      "isolated-LP", "empty", "one"])
    def test_conflicted_matches_naive_degrees(self, case):
        if case.startswith("pauli"):
            source = PauliComplementSource(random_pauli_set(300, 6, seed=1))
        elif case.startswith("isolated"):
            source = ExplicitGraphSource(with_isolated(80, 20, seed=5))
        elif case == "empty":
            source = ExplicitGraphSource(empty_graph(30))
        else:
            source = ExplicitGraphSource(empty_graph(1))
        n = source.n
        palette = n if case.endswith("LP") else max(1, n // 8)
        size = palette if case.endswith("LP") else min(palette, 5)
        lists = assign_color_lists(n, palette, size, rng=2)
        hit, tests = PaletteIndex(lists).conflicted(source.edge_mask)
        graph, _ = naive_conflict_csr(n, source.edge_mask, lists)
        np.testing.assert_array_equal(hit, graph.degree() > 0)
        assert tests <= n * (n - 1) + n * size  # pass 2 may test a pair both ways

    @pytest.mark.parametrize("palette,size", [(7, 7), (40, 3), (700, 2)])
    def test_arc_pass_matches_naive(self, palette, size):
        """The explicit arc pass marks and counts what the naive reference
        does, in one palette window or several (``P > 64 L``), loops and
        repeated arcs included."""
        for graph in (with_isolated(150, 30, seed=4), loops_and_repeats(6)[1]):
            n = graph.n_vertices
            lists = assign_color_lists(n, palette, size, rng=5)
            conflicted, m = adjacency_conflict_state(graph, lists, palette)
            ref, m_ref = naive_conflict_csr(n, ExplicitGraphSource(graph).edge_mask, lists)
            assert m == m_ref
            np.testing.assert_array_equal(conflicted, np.flatnonzero(ref.degree()))
        # A pair sharing a color in two windows is one conflict edge.
        path = from_edge_list(np.array([0, 1]), np.array([1, 2]), 3)
        lists = np.array([[5, 600], [600, 5], [6, 601]])
        conflicted, m = adjacency_conflict_state(path, lists, 700)
        assert m == 1 and conflicted.tolist() == [0, 1]

    @pytest.mark.parametrize("n_linked,n_isolated,swept", [(90, 10, False), (0, 60, True)])
    def test_sweep_marks_sparse_conflicts(self, n_linked, n_isolated, swept):
        """Over a quarter of the vertices unresolved after the successor
        pass (here: an edgeless graph) hands the mask to the sweep;
        fewer (a dense graph with 10% isolated vertices) does not."""
        g = with_isolated(n_linked, n_isolated, seed=2) if n_linked else empty_graph(n_isolated)
        source = ExplicitGraphSource(g)
        n = source.n
        lists = assign_color_lists(n, 12, 4, rng=3)
        calls = []

        def sweep():
            calls.append(n)
            hit = np.zeros(n, dtype=bool)
            count_conflict_edges(n, source.edge_mask, lists, 12, hit=hit)
            return hit

        hit, _ = PaletteIndex(lists).conflicted(source.edge_mask, sweep)
        graph, _ = naive_conflict_csr(n, source.edge_mask, lists)
        np.testing.assert_array_equal(hit, graph.degree() > 0)
        assert bool(calls) == swept

    @pytest.mark.parametrize("whole", [False, True])
    def test_second_pass_tests_each_pair_once(self, whole):
        """On an edgeless graph no vertex finds an edge, so every one
        exhausts its bucket-mates; a mate that already did is skipped,
        so each pair sharing a bucket is tested once in the second pass."""
        n = 60
        source = ExplicitGraphSource(empty_graph(n))
        palette, size = (7, 7) if whole else (12, 3)
        lists = assign_color_lists(n, palette, size, rng=1)
        hit, tests = PaletteIndex(lists).conflicted(source.edge_mask)
        assert not hit.any()
        share = [bool(set(lists[u]) & set(lists[v]))
                 for u in range(n) for v in range(u + 1, n)]
        succ = {tuple(sorted(p)) for c in range(palette)
                for p in zip(*[np.flatnonzero((lists == c).any(axis=1))[k:]
                               for k in (0, 1)])}
        assert tests == len(succ) + sum(share)

    def test_second_pass_finds_far_bucket_mates(self):
        """Whole-palette lists and a perfect matching between ``v`` and
        ``v + n/2``: no successor pair ``(v, v + 1)`` is an edge, so
        every vertex is resolved by the second pass."""
        n = 40
        g = from_edge_list(np.arange(n // 2), np.arange(n // 2, n), n)
        source = ExplicitGraphSource(g)
        lists = assign_color_lists(n, 3, 3, rng=0)
        hit, tests = PaletteIndex(lists).conflicted(source.edge_mask)
        assert hit.all()
        assert tests > n - 1


class TestNoGraphBuilt:
    def test_serial_run_builds_no_csr(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the serial run built a conflict graph")

        monkeypatch.setattr(picasso_module, "build_conflict_graph", forbidden)
        for module in (csr_module, pool_module, build_module, multi_module):
            monkeypatch.setattr(module, "csr_from_coo_chunks", forbidden)
        ps = random_pauli_set(300, 8, seed=2)
        # A supervised serial executor is serial too.
        for params in (PicassoParams(), PicassoParams(max_retries=1)):
            result = Picasso(params, seed=1).color(ps)
            assert result.max_conflict_edges is None
            assert PauliComplementSource(ps).validate(result.colors)

    def test_sweep_counts_beyond_default_device(self):
        """Eq. 7 sweeps count |Ec| with no device budget: 10k uniform
        50-qubit strings at P = 12.5%, alpha = 2 have 5.78M conflict
        edges, past the default DeviceSim's COO buffer (8 B per edge)."""
        from repro.device.sim import DEFAULT_BUDGET_BYTES
        from repro.predict.sweep import run_sweep

        ps = random_pauli_set(10_000, 50, seed=0)
        (point,) = run_sweep(ps, palette_percents=(12.5,), alphas=(2.0,))
        assert point.max_conflict_edges == 5_777_143 > DEFAULT_BUDGET_BYTES // 8

    def test_traced_peak_below_conflict_edges(self):
        """Serial Normal n = 5,000 peaks below 8 B per iteration-1
        conflict edge: the assembly alone would need that much."""
        n, seed = 5000, 3
        ps = random_pauli_set(n, 50, seed=7)
        params = PicassoParams()
        source = PauliComplementSource(ps)
        palette = params.palette_size(n)
        lists = assign_color_lists(n, palette, params.list_size(n),
                                   np.random.default_rng(seed))
        edges = count_conflict_edges(n, source.edge_mask, lists, palette,
                                     edge_block_fn=source.edge_block)
        tracemalloc.start()
        try:
            result = Picasso(params, seed=seed).color(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations[0].n_conflict_vertices > 0.99 * n
        assert peak < 8 * edges


class TestPoolRouting:
    """A pool or cluster run of a Pauli input colors in the parent, as a
    serial run does; the workers see only detection's sweep."""

    @pytest.fixture(autouse=True)
    def clean_registry(self):
        telemetry.reset()
        yield
        telemetry.reset()
        telemetry.enable(False)

    def test_sweep_route_ships_deltas(self, monkeypatch):
        """Mostly isolated Majoranas send detection to the sweep on every
        iteration of the one-color palette (40 copies leave 40 vertices,
        above the sweep's floor, for iteration 2); the root source is
        installed once, so every later sweep ships only its delta."""
        inp, knobs = majoranas(40, 40), REGIMES["P1"]
        tokens = []
        count = conflict_module.count_conflict_edges

        def spy(*args, **kwargs):
            out = count(*args, **kwargs)
            tokens.append(kwargs["executor"]._installed_token)
            return out

        monkeypatch.setattr(conflict_module, "count_conflict_edges", spy)
        pooled = Picasso(PicassoParams(n_workers=2, telemetry=True, **knobs),
                         seed=4).color(inp)
        counters = pooled.telemetry["counters"]
        assert pooled.n_iterations == len(tokens) >= 2
        assert tokens[0] is not None and len(set(tokens)) == 1
        assert counters["pool.install.full"] == 1
        assert counters["pool.install.delta"] == len(tokens) - 1
        serial = Picasso(PicassoParams(**knobs), seed=4).color(inp)
        np.testing.assert_array_equal(pooled.colors, serial.colors)

    @pytest.mark.parametrize("n_qubits", [6, 7, 8])
    def test_tiny_iterations_stay_off_the_executor(self, n_qubits, monkeypatch):
        """An iteration of at most ``SWEEP_MIN_UNRESOLVED`` vertices
        cannot leave more unresolved, so detection never sends it to the
        pool's sweep (these runs have iterations of 1-3 vertices); colors
        equal the serial run's."""
        swept = []
        count = conflict_module.count_conflict_edges

        def spy(n, *args, **kwargs):
            swept.append(n)
            return count(n, *args, **kwargs)

        monkeypatch.setattr(conflict_module, "count_conflict_edges", spy)
        tiny = 0
        for seed in (1, 2, 3):
            ps = random_pauli_set(300, n_qubits, seed=seed)
            pooled = Picasso(PicassoParams(n_workers=2), seed=seed).color(ps)
            serial = Picasso(PicassoParams(), seed=seed).color(ps)
            np.testing.assert_array_equal(pooled.colors, serial.colors)
            tiny += sum(s.n_active <= 3 for s in pooled.iterations)
        assert tiny > 0
        assert all(n > palette_index.SWEEP_MIN_UNRESOLVED for n in swept)

    def test_dense_conflicts_dispatch_nothing(self, monkeypatch):
        """Dense conflicts resolve in detection's successor pass, so a
        2-worker run sends its pool no task and a cluster run builds no
        CSR; both color as the serial run does."""
        ps = random_pauli_set(300, 6, seed=1)
        params = PicassoParams(palette_fraction=0.3, alpha=2.0)
        serial = Picasso(params, seed=2).color(ps)
        imap = PoolExecutor.imap
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(args)
            return imap(self, *args, **kwargs)

        monkeypatch.setattr(PoolExecutor, "imap", counted)
        pooled = Picasso(params.with_(n_workers=2, telemetry=True), seed=2).color(ps)
        assert not calls
        assert not [k for k in pooled.telemetry["counters"] if k.startswith("sweep.plan.")]
        np.testing.assert_array_equal(pooled.colors, serial.colors)
        assert pooled.max_conflict_edges is None

        def forbidden(*args, **kwargs):
            raise AssertionError("the cluster run built a conflict graph")

        monkeypatch.setattr(picasso_module, "build_conflict_graph", forbidden)
        for module in (csr_module, pool_module, build_module, multi_module):
            monkeypatch.setattr(module, "csr_from_coo_chunks", forbidden)
        with LocalCluster(2) as lc:
            clustered = Picasso(params.with_(hosts=lc.hosts), seed=2).color(ps)
        np.testing.assert_array_equal(clustered.colors, serial.colors)
        assert clustered.max_conflict_edges is None


class TestOracleTests:
    @pytest.fixture(autouse=True)
    def clean_registry(self):
        telemetry.reset()
        yield
        telemetry.reset()
        telemetry.enable(False)

    @pytest.mark.parametrize("case", ["normal", "LP"])
    def test_pick_tests_counted_and_bounded(self, case):
        """Iteration stats carry the pick loop's oracle tests, which the
        ``coloring.oracle_tests`` counter sums, and each iteration's
        tests stay within ``sum_colored v (|B_c(v)| - 1)``."""
        ps = random_pauli_set(400, 8, seed=5)
        params = aggressive_params() if case == "LP" else PicassoParams()
        seed = 6
        result = Picasso(params.with_(telemetry=True), seed=seed).color(ps)
        counters = telemetry.snapshot()["counters"]
        tests = [s.oracle_tests for s in result.iterations]
        assert counters["coloring.oracle_tests"] == sum(tests) > 0
        assert counters["conflict.detect_tests"] > 0

        # Iteration 1 again, by hand: the same tests, within the bound.
        n = ps.n
        source = PauliComplementSource(ps)
        rng = np.random.default_rng(seed)
        palette = params.palette_size(n)
        lists = assign_color_lists(n, palette, params.list_size(n), rng)
        query, conflicted = bucket_conflict_state(n, source.edge_mask, lists, palette,
                                                  edge_block_fn=source.edge_block)
        sub_lists = lists[conflicted]
        colors, _ = greedy_list_color_dynamic(query, sub_lists, rng)
        assert query.tests == tests[0]
        sizes = np.bincount(lists.ravel())
        bound = int((sizes[colors[colors >= 0]] - 1).sum())
        assert query.tests <= bound
