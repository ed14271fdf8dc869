"""Integration tests for the Picasso driver (Algorithm 1)."""

import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_reference import reference_coloring

from repro.core import (
    Picasso,
    PicassoParams,
    aggressive_params,
    normal_params,
    picasso_color,
)
from repro.core import picasso as picasso_module
from repro.core.sources import PauliComplementSource
from repro.coloring import greedy_coloring
from repro.datasets import load_molecule
from repro.device.sim import DeviceSim
from repro.graphs import complement_graph, complete_graph, erdos_renyi
from repro.pauli import random_pauli_set


class TestPauliWorkload:
    def test_proper_and_complete(self):
        ps = random_pauli_set(120, 6, seed=0)
        r = picasso_color(ps, seed=1)
        assert (r.colors >= 0).all()
        assert PauliComplementSource(ps).validate(r.colors)

    def test_matches_explicit_graph_coloring_validity(self):
        ps = random_pauli_set(80, 5, seed=2)
        r = picasso_color(ps, seed=3)
        g = complement_graph(ps)
        assert g.validate_coloring(r.colors)

    def test_aggressive_fewer_colors_than_normal(self):
        """Paper Table III: aggressive < normal color count (statistically)."""
        wins = 0
        for seed in range(5):
            ps = random_pauli_set(150, 6, seed=seed)
            c_norm = picasso_color(ps, normal_params(), seed=seed).n_colors
            c_aggr = picasso_color(ps, aggressive_params(), seed=seed).n_colors
            wins += c_aggr <= c_norm
        assert wins >= 4

    def test_reproducible(self):
        ps = random_pauli_set(60, 5, seed=4)
        a = picasso_color(ps, seed=9)
        b = picasso_color(ps, seed=9)
        np.testing.assert_array_equal(a.colors, b.colors)

    def test_seeds_differ(self):
        ps = random_pauli_set(60, 5, seed=4)
        a = picasso_color(ps, seed=1)
        b = picasso_color(ps, seed=2)
        assert (a.colors != b.colors).any()


class TestGoldenColorings:
    """Pinned sha256 of whole-run colors.  Colorings are a pure
    function of (input, params, seed) on every executor, so a change to
    the RNG draws or tie-breaking anywhere in the pipeline (conflict
    build, CSR row order, Algorithm 2 tie-breaks) shows here."""

    GOLDEN = {
        ("rand2000x20-normal", 0):
            "9442be90648bc07150c0bdcc648c47c96ac7618c69f3607e4577fae45414ea9c",
        ("rand2000x20-normal", 1):
            "d6902fe2e7bb193575ed4952d571296760d778ea04f09fc53d68fd86c143c34a",
        ("H4_2D_sto3g-aggressive", 0):
            "bba8289059538b60526a77302dbc6f4396e31e3731d27cf2a32a058ca65561cb",
        ("H4_2D_sto3g-aggressive", 1):
            "e7efa890f9bdffcd0190c90327fd1145bfb4927619205d878fa8470b1da50537",
    }

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("case,seed", sorted(GOLDEN))
    def test_colors_unchanged(self, case, seed, n_workers):
        if case == "rand2000x20-normal":
            ps = random_pauli_set(2000, 20, seed=11)
            params = normal_params(n_workers=n_workers)
        else:
            ps = load_molecule("H4_2D_sto3g")
            params = aggressive_params(n_workers=n_workers)
        r = Picasso(params=params, seed=seed).color(ps)
        colors = np.asarray(r.colors, dtype="<i8")
        digest = hashlib.sha256(colors.tobytes()).hexdigest()
        assert digest == self.GOLDEN[(case, seed)]


class TestDevicePath:
    """Algorithm 1 through the DeviceSim build (Algorithm 3) reaches
    the host run's exact colors: the full-width device graph reduced by
    a degree scan and ``induced_subgraph`` is the host build's state."""

    @pytest.mark.parametrize("preset", [normal_params, aggressive_params])
    @pytest.mark.parametrize("n,nq,ps_seed,seed", [
        (150, 8, 5, 1), (200, 8, 2, 4), (120, 7, 3, 1),
    ])
    def test_colors_match_host(self, preset, n, nq, ps_seed, seed):
        ps = random_pauli_set(n, nq, seed=ps_seed)
        host = Picasso(preset(), seed=seed).color(ps)
        device = Picasso(
            preset(), device=DeviceSim(budget_bytes=1 << 28), seed=seed
        ).color(ps)
        np.testing.assert_array_equal(host.colors, device.colors)
        assert all(s.built_on_device is not None for s in device.iterations)

    def test_peak_bytes_model_pinned(self):
        """The Table IV model: the palette term is the ``(n, L)`` lists
        alone, the host graph term the conflicted sub-CSR plus its
        vertex ids (the bucket query's arrays on the graph-free path,
        serial or pool), the device term the full-width graph."""
        ps = random_pauli_set(150, 8, seed=5)
        host = Picasso(normal_params(), seed=1).color(ps)
        device = Picasso(
            normal_params(), device=DeviceSim(budget_bytes=1 << 28), seed=1
        ).color(ps)
        pool = Picasso(normal_params(n_workers=2), seed=1).color(ps)
        # Serial and pool runs hold the bucket query, not a sub-CSR.
        assert host.peak_bytes == 24160
        assert pool.peak_bytes == 24160
        assert device.peak_bytes == 62176


class TestEngines:
    def test_tiled_and_pairs_identical_colorings(self):
        """The default run (bitset Algorithm 2) against the
        reference run (naive all-pairs builds, ``sets`` Algorithm 2):
        identical conflict graphs and random draws, so whole runs must
        match bit for bit."""
        for seed in range(3):
            ps = random_pauli_set(140, 6, seed=seed)
            rt = picasso_color(ps, PicassoParams(), seed=seed)
            rp = reference_coloring(ps, seed)
            np.testing.assert_array_equal(rt.colors, rp.colors)
            assert rt.n_iterations == rp.n_iterations

    def test_tiled_engine_on_explicit_graph(self):
        g = erdos_renyi(90, 0.4, seed=21)
        rt = picasso_color(g, PicassoParams(), seed=2)
        rp = reference_coloring(g, 2)
        np.testing.assert_array_equal(rt.colors, rp.colors)
        assert g.validate_coloring(rt.colors)

    def test_engine_validated(self):
        """The sweep engine is not a parameter."""
        with pytest.raises(TypeError):
            PicassoParams(engine="bogus")


class TestExplicitGraphWorkload:
    def test_random_graph(self):
        g = erdos_renyi(100, 0.5, seed=5)
        r = picasso_color(g, seed=0)
        assert g.validate_coloring(r.colors)

    def test_complete_graph_needs_n_colors(self):
        g = complete_graph(12)
        r = picasso_color(g, seed=0)
        assert r.n_colors == 12

    def test_sparse_graph(self):
        g = erdos_renyi(200, 0.02, seed=6)
        r = picasso_color(g, seed=0)
        assert g.validate_coloring(r.colors)

    def test_type_error(self):
        with pytest.raises(TypeError):
            picasso_color("not a graph")

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=10, deadline=None)
    def test_random_instances_proper(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 80))
        g = erdos_renyi(n, float(rng.random()), seed=seed)
        r = picasso_color(g, seed=seed)
        assert g.validate_coloring(r.colors)


class TestIterationTrace:
    def test_stats_populated(self):
        ps = random_pauli_set(100, 6, seed=7)
        r = picasso_color(ps, seed=0)
        assert r.n_iterations >= 1
        total_colored = sum(s.n_colored for s in r.iterations)
        assert total_colored == 100
        first = r.iterations[0]
        assert first.n_active == 100
        assert first.palette_size == round(0.125 * 100)
        assert first.list_size >= 1
        # The serial run builds no conflict graph: no |Ec|, and the
        # pick loop's oracle tests instead.
        assert r.max_conflict_edges is None
        assert all(s.n_conflict_edges is None for s in r.iterations)
        assert first.oracle_tests > 0
        phases = r.phase_times()
        assert set(phases) == {"assignment", "conflict_graph", "conflict_coloring"}
        assert phases["conflict_graph"] > 0.0
        # So does a pool run of the same input.
        pooled = picasso_color(ps, PicassoParams(n_workers=2), seed=0)
        np.testing.assert_array_equal(pooled.colors, r.colors)
        assert pooled.max_conflict_edges is None
        assert [s.oracle_tests for s in pooled.iterations] == [
            s.oracle_tests for s in r.iterations
        ]
        # The explicit complement graph counts |Ec| in its arc pass and
        # asks the edge oracle nothing.
        built = picasso_color(complement_graph(ps), PicassoParams(n_workers=2), seed=0)
        np.testing.assert_array_equal(built.colors, r.colors)
        assert built.max_conflict_edges >= 0
        assert all(s.oracle_tests == 0 for s in built.iterations)

    def test_active_counts_decrease(self):
        ps = random_pauli_set(150, 6, seed=8)
        r = picasso_color(ps, seed=0)
        actives = [s.n_active for s in r.iterations]
        assert all(a > b for a, b in zip(actives, actives[1:]))

    def test_fresh_palette_per_iteration(self):
        """Colors used in iteration l+1 must not collide with iteration l
        (palette offset discipline)."""
        ps = random_pauli_set(150, 6, seed=9)
        params = PicassoParams(palette_fraction=0.05, alpha=1.0)
        r = picasso_color(ps, params, seed=0)
        assert r.n_iterations >= 2  # need multiple iterations to test
        # Track which global colors each iteration could emit.
        base = 0
        for s in r.iterations:
            lo, hi = base, base + s.palette_size
            emitted = r.colors[
                (r.colors >= lo) & (r.colors < hi)
            ]
            base = hi
        assert r.colors.max() < base

    def test_total_palette_recorded(self):
        ps = random_pauli_set(80, 5, seed=10)
        r = picasso_color(ps, seed=0)
        assert r.stats["total_palette_colors"] == sum(
            s.palette_size for s in r.iterations
        )

    def test_peak_bytes_positive(self):
        ps = random_pauli_set(80, 5, seed=11)
        r = picasso_color(ps, seed=0)
        assert r.peak_bytes > 0


    def test_conflict_graph_released_before_next_build(self, monkeypatch):
        """Iteration k's conflict CSR (a ``greedy-static`` run builds
        one) is dead when iteration k + 1's build starts, so two
        iterations' graphs never coexist."""
        self.assert_released(monkeypatch, "build_conflict_graph", "greedy-static")

    def test_bucket_query_released_before_next_build(self, monkeypatch):
        """The same for a Pauli run's bucket query."""
        self.assert_released(monkeypatch, "bucket_conflict_state", "greedy-dynamic")

    @staticmethod
    def assert_released(monkeypatch, builder, color_engine):
        build = getattr(picasso_module, builder)
        graphs: list[weakref.ref] = []
        alive = []

        def tracked(*args, **kwargs):
            alive.extend(ref() is not None for ref in graphs)
            state = build(*args, **kwargs)
            graphs.append(weakref.ref(state[0]))
            return state

        monkeypatch.setattr(picasso_module, builder, tracked)
        ps = random_pauli_set(150, 6, seed=9)
        r = picasso_color(ps, PicassoParams(
            palette_fraction=0.05, alpha=1.0, color_engine=color_engine,
        ), seed=0)
        assert r.n_iterations >= 2 and len(graphs) == r.n_iterations
        assert alive and not any(alive)


class TestParameterTradeoffs:
    def test_smaller_palette_fewer_colors_more_conflicts(self):
        """Fig. 5's central trade-off, statistically."""
        ps = random_pauli_set(200, 6, seed=12)
        # The serial run builds no graph; exact_edges counts |Ec|.
        small = Picasso(
            PicassoParams(palette_fraction=0.04, alpha=3.0), seed=0, exact_edges=True,
        ).color(ps)
        large = Picasso(
            PicassoParams(palette_fraction=0.4, alpha=3.0), seed=0, exact_edges=True,
        ).color(ps)
        assert small.n_colors <= large.n_colors
        assert small.max_conflict_edges >= large.max_conflict_edges

    def test_quality_within_2x_of_greedy_dlf(self):
        ps = random_pauli_set(150, 6, seed=13)
        g = complement_graph(ps)
        ref = greedy_coloring(g, "dlf").n_colors
        r = picasso_color(ps, aggressive_params(), seed=0)
        assert r.n_colors <= 2 * ref

    def test_memory_below_explicit_graph(self):
        """Table IV's headline: streaming beats explicit CSR residency.

        The saving factor is ~n / log^2 n (Lemma 2), so at toy scale it
        is modest but must (a) exceed 1 beyond the crossover and
        (b) grow with n.
        """
        ratios = []
        for n in (800, 1600):
            ps = random_pauli_set(n, 8, seed=14)
            g = complement_graph(ps)
            r = picasso_color(ps, normal_params(), seed=0)
            ratios.append(g.nbytes / r.peak_bytes)
        assert ratios[-1] > 1.1
        assert ratios[1] > ratios[0]

    def test_static_conflict_order_works(self):
        ps = random_pauli_set(80, 5, seed=15)
        for order in ("natural", "random", "lf"):
            r = picasso_color(
                ps, PicassoParams(conflict_order=order), seed=0
            )
            assert PauliComplementSource(ps).validate(r.colors)

    def test_max_iterations_enforced(self):
        ps = random_pauli_set(100, 6, seed=16)
        params = PicassoParams(
            palette_fraction=0.01,
            alpha=30.0,
            max_iterations=1,
            grow_on_stall=1.0,
        )
        with pytest.raises(RuntimeError, match="did not converge"):
            picasso_color(ps, params, seed=0)

    def test_non_convergence_carries_state(self):
        import pickle

        from repro.core import PicassoNonConvergence

        ps = random_pauli_set(100, 6, seed=16)
        params = PicassoParams(
            palette_fraction=0.01, alpha=30.0, max_iterations=2,
            grow_on_stall=1.0,
        )
        with pytest.raises(PicassoNonConvergence) as info:
            picasso_color(ps, params, seed=0)
        err = info.value
        assert err.iteration == 2
        assert err.palette_fraction == 0.01
        assert err.n_active == int((err.colors < 0).sum()) > 0
        # The partial coloring is proper on what it colored.
        colored = np.flatnonzero(err.colors >= 0)
        full = err.colors.copy()
        full[err.colors < 0] = err.colors.max() + 1 + np.arange(err.n_active)
        assert len(colored) > 0
        assert PauliComplementSource(ps).validate(full)
        again = pickle.loads(pickle.dumps(err))
        assert (again.iteration, again.n_active) == (2, err.n_active)
        np.testing.assert_array_equal(again.colors, err.colors)

    def test_single_vertex(self):
        ps = random_pauli_set(1, 4, seed=0)
        r = picasso_color(ps, seed=0)
        assert r.n_colors == 1
