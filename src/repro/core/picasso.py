"""Picasso driver — Algorithm 1 of the paper.

Iteratively: assign random candidate-color lists from a fresh palette,
find the *conflicted* vertices (a host ``greedy-dynamic`` iteration
stores no conflict edges: a Pauli input asks the palette index,
:func:`repro.core.conflict.bucket_conflict_state`, and an explicit graph
its own arcs, :func:`repro.core.conflict.adjacency_conflict_state`;
other runs build the conflict CSR), color unconflicted vertices immediately,
list-color the conflicted ones (Algorithm 2), and recurse on whatever
stayed uncolored.  Colors are never reused across iterations (iteration
``l`` draws from ``[(l-1)P, lP)``), so their union is proper.

The input graph is never stored: a *source* (see
:mod:`repro.core.sources`) answers vectorized edge queries on the fly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import telemetry
from repro.coloring.base import ColoringResult
from repro.coloring.engine import get_engine
from repro.core.conflict import (
    adjacency_conflict_state, bucket_conflict_state, build_conflict_graph,
    count_conflict_edges,
)
from repro.core.palette import assign_color_lists, lists_nbytes
from repro.core.params import PicassoParams
from repro.core.sources import ExplicitGraphSource, PauliComplementSource
from repro.device.csr_build import build_conflict_csr
from repro.device.sim import DeviceSim
from repro.graphs.csr import CSRGraph
from repro.graphs.ops import induced_subgraph
from repro.pauli.strings import PauliSet
from repro.resilience.checkpoint import (
    PicassoCheckpoint,
    checkpoint_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.faults import fault_point
from repro.resilience.supervisor import supervised_executor
from repro.util.rng import as_generator


@dataclass
class IterationStats:
    """Per-iteration telemetry (feeds Figs. 2, 3, 5 and Table V)."""

    iteration: int
    n_active: int
    palette_size: int
    list_size: int
    n_conflict_vertices: int
    #: ``|Ec|``; ``None`` where no graph was built, unless ``exact_edges``.
    n_conflict_edges: int | None
    n_colored: int
    n_uncolored: int
    assign_s: float
    conflict_build_s: float
    conflict_color_s: float
    peak_bytes: int
    built_on_device: bool | None = None
    color_rounds: int = 1
    color_peak_bytes: int = 0
    #: Edge-oracle pairs Algorithm 2 asked on the serial path.
    oracle_tests: int = 0


class PicassoNonConvergence(RuntimeError):
    """Algorithm 1 hit ``max_iterations`` with vertices still uncolored.

    Carries the state needed to act on it: the last ``iteration`` run,
    how many vertices were still active (``n_active``), the palette
    fraction the next iteration would have used, and the partial
    ``colors`` (``-1`` where uncolored; every other entry is final and
    proper).
    """

    def __init__(
        self,
        iteration: int,
        n_active: int,
        palette_fraction: float,
        colors: np.ndarray,
    ) -> None:
        super().__init__(
            f"Picasso did not converge in {iteration} iterations "
            f"({n_active} vertices still uncolored, palette fraction "
            f"{palette_fraction:g})"
        )
        self.iteration = iteration
        self.n_active = n_active
        self.palette_fraction = palette_fraction
        self.colors = colors

    def __reduce__(self):
        return type(self), (
            self.iteration, self.n_active, self.palette_fraction, self.colors,
        )


@dataclass
class PicassoResult(ColoringResult):
    """ColoringResult plus the iteration trace.

    ``telemetry`` carries the merged registry snapshot (dispatcher
    metrics plus every absorbed worker/agent delta) when telemetry was
    enabled for the run, ``None`` otherwise — ready for the exporters
    in :mod:`repro.telemetry.export`.  Write-only observability: the
    snapshot never feeds back into the algorithm, so the coloring is
    bit-identical with it on or off.
    """

    iterations: list[IterationStats] = field(default_factory=list)
    telemetry: dict[str, Any] | None = None

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def max_conflict_edges(self) -> int | None:
        """``max_l |Ec|`` — the paper's memory-pressure metric (Fig. 2),
        over the iterations that counted it (``None`` if none did)."""
        edges = [s.n_conflict_edges for s in self.iterations]
        return max((m for m in edges if m is not None), default=None)

    def phase_times(self) -> dict[str, float]:
        """Cumulative seconds per phase (Fig. 3 breakdown)."""
        return {
            "assignment": sum(s.assign_s for s in self.iterations),
            "conflict_graph": sum(s.conflict_build_s for s in self.iterations),
            "conflict_coloring": sum(s.conflict_color_s for s in self.iterations),
        }


class Picasso:
    """Palette-based memory-efficient graph coloring.

    Parameters
    ----------
    params:
        Algorithm knobs (palette fraction, alpha, ...); defaults to the
        paper's Normal configuration.
    device:
        Optional :class:`DeviceSim`.  When given, conflict graphs are
        built through Algorithm 3 against the device budget (raising
        :class:`DeviceOutOfMemory` exactly where a real 40 GB GPU
        would); otherwise the host path is used.
    seed:
        Seeds list assignment and Algorithm 2's tie-breaking.
    exact_edges:
        Also count ``|Ec|`` where no graph is built, with one more palette
        sweep that stores no edges (Eq. 7 sweeps, Fig. 2/5).  Same colors.

    Examples
    --------
    >>> from repro.pauli import random_pauli_set
    >>> ps = random_pauli_set(100, 6, seed=0)
    >>> result = Picasso(seed=1).color(ps)
    >>> result.n_colors <= 100
    True
    """

    def __init__(
        self,
        params: PicassoParams | None = None,
        device: DeviceSim | None = None,
        seed: int | np.random.Generator | None = None,
        exact_edges: bool = False,
    ) -> None:
        self.params = params or PicassoParams()
        self.device = device
        self.rng = as_generator(seed)
        self.exact_edges = exact_edges

    # -- public API ------------------------------------------------------

    def color(self, target: PauliSet | CSRGraph) -> PicassoResult:
        """Color a Pauli set (streaming complement) or explicit graph."""
        if isinstance(target, PauliSet):
            source = PauliComplementSource(target)
        elif isinstance(target, CSRGraph):
            source = ExplicitGraphSource(target)
        else:
            raise TypeError(
                f"expected PauliSet or CSRGraph, got {type(target).__name__}"
            )
        return self.color_source(source)

    def color_source(self, source) -> PicassoResult:
        """Algorithm 1 over any edge source."""
        params = self.params
        # One backend for the whole run, owned and closed here even on a
        # raise: a pool or cluster installs the root source once under a
        # payload token, and later sweeps ship only their delta (workers
        # derive the subset oracle).  ``failover``/``max_retries`` wrap
        # it in the retry/failover supervisor, with the same results.
        executor = supervised_executor(
            params.executor, params.n_workers, pin=params.pin_workers,
            hosts=params.hosts,
            failover=params.failover, max_retries=params.max_retries,
        )
        try:
            return self._color_source_with(source, executor)
        finally:
            executor.close()

    def _color_source_with(self, source, executor) -> PicassoResult:
        params = self.params
        # Telemetry is enable-only here: a run that asks for it turns
        # the process-wide collector on; a run that does not leaves
        # whatever the process (CLI exporters, an enclosing run) chose.
        if params.resolved_telemetry():
            telemetry.enable(True)
        run_telemetry = telemetry.enabled()
        t_start = telemetry.clock()
        # One engine instance for the whole run, from the registry —
        # the pluggable Algorithm 2 seam.  Every engine colors in this
        # process; the executor runs only the conflict sweeps.
        color_engine = get_engine(
            params.resolved_color_engine(), **params.color_engine_knobs()
        )
        # Host greedy-dynamic runs build no graph, on every executor: an
        # explicit input colors through its own arcs, and a Pauli run's
        # pool or cluster runs only detection's sparse-conflict sweep and
        # ``exact_edges`` counts.
        graph_free = self.device is None and color_engine.name == "greedy-dynamic"
        explicit = isinstance(source, ExplicitGraphSource)
        n_total = source.n
        colors = np.full(n_total, -1, dtype=np.int64)
        active = np.arange(n_total, dtype=np.int64)
        active_source = source
        base_color = 0
        palette_fraction = params.palette_fraction
        iterations: list[IterationStats] = []
        peak_bytes = 0
        start_iteration = 1

        ckpt_dir = params.checkpoint_dir
        fingerprint = (
            checkpoint_fingerprint(params, n_total) if ckpt_dir else None
        )
        if params.resume and ckpt_dir:
            path = latest_checkpoint(ckpt_dir, fingerprint)
            if path is not None:
                # Restore the committed state *and* the RNG stream:
                # the next iteration draws the same candidate lists an
                # uninterrupted run would have, so the resumed tail —
                # and therefore the final coloring — is bit-identical
                # per seed.  The active set is stored as global ids, so
                # the subset is taken from the root source (subset
                # composition makes that equal to the chain of
                # per-iteration subsets the original run held).
                ck = load_checkpoint(path, fingerprint)
                colors = ck.colors
                active = ck.active
                active_source = (
                    source.subset(active) if len(active) < n_total else source
                )
                base_color = ck.base_color
                palette_fraction = ck.palette_fraction
                self.rng.bit_generator.state = ck.rng_state
                iterations = list(ck.iterations)
                peak_bytes = ck.peak_bytes
                start_iteration = ck.iteration + 1

        for it in range(start_iteration, params.max_iterations + 1):
            n = len(active)
            if n == 0:
                break
            palette = max(params.min_palette, round(palette_fraction * n))
            # L = alpha * ln|V| (Table I), capped at the current palette.
            raw_list = max(1, round(params.alpha * np.log(n))) if n > 1 else 1
            list_size = min(raw_list, palette)

            # Line 6: random candidate lists from a fresh palette.
            t0 = telemetry.clock()
            with telemetry.span("picasso.assign", iteration=it):
                col_lists = assign_color_lists(
                    n, palette, list_size, self.rng
                )
            t_assign = telemetry.clock() - t0

            # Line 7: conflicted vertices, and their graph unless graph-free.
            # Sweeps use the source's block oracle when it has one; the root
            # source and global active indices let a pool ship only a delta.
            t0 = telemetry.clock()
            built_on_device: bool | None = None
            state = (n, active_source.edge_mask, col_lists, palette)
            sweep = dict(edge_block_fn=getattr(active_source, "edge_block", None),
                         executor=executor, source=source,
                         active_idx=active if it > 1 else None)
            with telemetry.span("picasso.conflict_build", iteration=it):
                if graph_free and explicit:
                    conflicted, n_conf_edges = adjacency_conflict_state(
                        active_source.graph, col_lists, palette)
                    sub_gc, _ = induced_subgraph(active_source.graph, conflicted)
                    graph_nbytes = sub_gc.nbytes + conflicted.nbytes
                elif graph_free:
                    with telemetry.span("picasso.detect", iteration=it):
                        sub_gc, conflicted = bucket_conflict_state(*state, **sweep)
                    n_conf_edges = (count_conflict_edges(*state, **sweep)
                                    if self.exact_edges else None)
                    graph_nbytes = sub_gc.nbytes
                else:
                    if self.device is not None:
                        gc, build_stats = build_conflict_csr(*state, self.device, **sweep)
                        n_conf_edges = build_stats.n_conflict_edges
                        built_on_device = build_stats.built_on_device
                    else:
                        gc, n_conf_edges = build_conflict_graph(*state, **sweep)
                    # The full-width graph (the Table IV term, which is
                    # what a device holds) reduced to the coloring state.
                    conflicted = np.flatnonzero(gc.degree())
                    sub_gc, _ = induced_subgraph(gc, conflicted)
                    graph_nbytes = gc.nbytes
                    del gc
            t_build = telemetry.clock() - t0

            # Lines 8-9: color unconflicted vertices from their lists,
            # then list-color the conflicted subgraph.
            t0 = telemetry.clock()
            with telemetry.span("picasso.conflict_color", iteration=it):
                local_colors = np.full(n, -1, dtype=np.int64)
                umask = np.ones(n, dtype=bool)
                umask[conflicted] = False
                unconflicted = np.flatnonzero(umask)
                local_colors[unconflicted] = col_lists[unconflicted, 0]

                color_rounds = 0
                color_peak = 0
                if len(conflicted):
                    outcome = color_engine.color(  # all conflicted: no list copy
                        sub_gc, col_lists if len(conflicted) == n else col_lists[conflicted],
                        self.rng, device=self.device,
                    )
                    color_rounds = outcome.n_rounds
                    color_peak = outcome.peak_bytes
                    local_colors[conflicted] = outcome.colors
                    vu_local = conflicted[outcome.uncolored]
                    del outcome
                else:
                    vu_local = np.empty(0, dtype=np.int64)
                oracle_tests = getattr(sub_gc, "tests", 0)
                telemetry.count("coloring.oracle_tests", float(oracle_tests))
                del sub_gc  # iteration k's graph goes before k + 1's build
            t_color = telemetry.clock() - t0

            # Commit global colors with the per-iteration offset.
            colored_local = np.nonzero(local_colors >= 0)[0]
            colors[active[colored_local]] = (
                base_color + local_colors[colored_local]
            )
            base_color += palette

            # Engine scratch is recorded per iteration (color_peak_bytes)
            # but kept out of the Table IV peak metric, whose definition
            # predates the engine layer — changing it would break the
            # cross-PR memory trajectory.
            # A graph-free iteration's term is its coloring state: the
            # bucket query, or the explicit graph's conflicted subgraph
            # plus the vertex ids.
            iter_peak = (
                active_source.nbytes
                + lists_nbytes(col_lists)
                + graph_nbytes
                + colors.nbytes
            )
            peak_bytes = max(peak_bytes, iter_peak)
            iterations.append(
                IterationStats(
                    iteration=it,
                    n_active=n,
                    palette_size=palette,
                    list_size=list_size,
                    n_conflict_vertices=int(len(conflicted)),
                    n_conflict_edges=n_conf_edges,
                    n_colored=int(len(colored_local)),
                    n_uncolored=int(len(vu_local)),
                    assign_s=t_assign,
                    conflict_build_s=t_build,
                    conflict_color_s=t_color,
                    peak_bytes=int(iter_peak),
                    built_on_device=built_on_device,
                    color_rounds=color_rounds,
                    color_peak_bytes=int(color_peak),
                    oracle_tests=int(oracle_tests),
                )
            )

            if len(vu_local) == 0:
                active = np.empty(0, dtype=np.int64)
                break
            # Stall guard: widen the palette if nothing got colored.
            if len(colored_local) == 0:
                palette_fraction = min(
                    1.0, palette_fraction * params.grow_on_stall
                )
            # Line 11: recurse on the uncolored subproblem.
            active = active[vu_local]
            active_source = active_source.subset(vu_local)
            if ckpt_dir and it % params.checkpoint_every == 0:
                # Snapshot the *post-iteration* committed state — the
                # exact tuple the resume path restores above.
                save_checkpoint(
                    ckpt_dir,
                    PicassoCheckpoint(
                        iteration=it,
                        colors=colors,
                        active=active,
                        base_color=base_color,
                        palette_fraction=palette_fraction,
                        rng_state=self.rng.bit_generator.state,
                        fingerprint=fingerprint,
                        peak_bytes=int(peak_bytes),
                        iterations=iterations,
                    ),
                )
            fault_point("iteration")
        else:
            if len(active):
                raise PicassoNonConvergence(
                    iteration=params.max_iterations,
                    n_active=len(active),
                    palette_fraction=palette_fraction,
                    colors=colors,
                )

        elapsed = telemetry.clock() - t_start
        return PicassoResult(
            colors=colors,
            algorithm="picasso",
            peak_bytes=int(peak_bytes),
            elapsed_s=elapsed,
            stats={
                "total_palette_colors": base_color,
                "color_rounds": sum(s.color_rounds for s in iterations),
            },
            engine=color_engine.name,
            n_rounds=len(iterations),
            iterations=iterations,
            telemetry=telemetry.snapshot() if run_telemetry else None,
        )


def picasso_color(
    target: PauliSet | CSRGraph,
    params: PicassoParams | None = None,
    device: DeviceSim | None = None,
    seed: int | np.random.Generator | None = None,
) -> PicassoResult:
    """Functional convenience wrapper around :class:`Picasso`."""
    return Picasso(params=params, device=device, seed=seed).color(target)
