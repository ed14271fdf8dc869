"""Outside-in per-layer tracing for the traced benchmark run.

Wrappers installed from this file time calls into each layer's public
functions, as the Picasso driver sees them; no code under ``src/`` knows
about them.  A span is one wrapped call; a layer's *self* time is its
span time minus the time of the wrapped calls nested inside it.  Spans
are aggregated in memory per name (calls, total, self) and turned into
the per-layer metrics once the run ends.

Layer map (span name <- wrapped callable):

- ``picasso.color``       the ``Picasso.color`` call itself (root)
- ``palette.assign``      ``assign_color_lists``
- ``conflict.build``      ``build_fused_conflict_state`` / ``build_conflict_graph``
- ``tiles.survivor``      ``device.tiles.conflict_hits_block`` (survivor bookkeeping)
- ``tiles.palette_test``  ``device.tiles.lists_intersect_block``
- ``oracle.block``        ``PauliComplementSource.edge_block``
- ``oracle.gather``       ``PauliComplementSource.edge_mask``
- ``csr.assemble``        ``graphs.csr.csr_from_coo_chunks``
- ``coloring.color``      ``color`` of the engine the driver resolves
- ``parallel.install``    ``PoolExecutor.imap`` up to its return (pool start,
                          payload install) and ``PoolExecutor.finalize``
- ``parallel.wait``       each ``next()`` on the pool's result stream

A wrapped name that no longer exists is skipped, so a change that
deletes a path leaves its metrics at zero instead of breaking the run.

Pool workers are forked with the wrappers installed and an emptied
tracer.  Before the pool closes, a ``finalize`` broadcast brings each
worker's spans home and adds them to the dispatcher's, so on the pool
workload the sweep layers (``tiles.*``, ``oracle.*``) are the sum of
the workers' time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter

#: The tracer installed in this process; forked pool workers inherit it.
_ACTIVE: Tracer | None = None


class Tracer:
    """In-memory span and counter aggregation for one process."""

    def __init__(self) -> None:
        self.wrapped: list[str] = []
        self.reset()

    def reset(self) -> None:
        # name -> [calls, total_s, self_s]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.first: dict[str, object] = {}
        # One accumulator of nested-span time per open span.
        self._stack: list[list[float]] = []

    def absorb(self, snapshot: dict) -> None:
        """Add a pool worker's spans and counts to this tracer's."""
        for name, (calls, total, self_time) in snapshot["spans"].items():
            rec = self.spans[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_time
        for name, value in snapshot["counts"].items():
            self.counts[name] += value
        self.counts["parallel.worker_peak_rss_mb"] = max(
            self.counts["parallel.worker_peak_rss_mb"], snapshot["peak_rss_mb"]
        )

    def _enter(self) -> float:
        self._stack.append([0.0])
        return clock()

    def _exit(self, name: str, t0: float) -> None:
        dur = clock() - t0
        child = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += dur
        rec = self.spans[name]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child

    def wrap(self, name: str, fn, hook=None):
        """``fn`` timed as span ``name``; ``hook(tracer, out, args)``
        records counts after the call, inside the parent span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
            if hook is not None:
                hook(self, out, args)
            return out

        return wrapper

    def self_s(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0


def _replace_everywhere(module, attr: str, make) -> bool:
    """Swap ``module.attr`` for ``make(original)`` in every loaded
    ``repro`` module that bound the same object (``from x import f``)."""
    original = getattr(module, attr, None)
    if original is None:
        return False
    replacement = make(original)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and vars(mod).get(attr) is original:
            setattr(mod, attr, replacement)
    return True


def _patch_method(cls, attr: str, make) -> bool:
    original = cls.__dict__.get(attr)
    if original is None:
        return False
    setattr(cls, attr, make(original))
    return True


# -- count hooks (run after the wrapped call returns) -------------------


def _on_assign(t: Tracer, out, args) -> None:
    n, palette_size, list_size = args[:3]
    t.first.setdefault("assign", (int(n), int(palette_size), int(list_size)))


def _on_build(t: Tracer, out, args) -> None:
    edges = int(out[-1])  # both build forms return the edge count last
    t.counts["conflict.edges"] += edges
    t.counts["conflict.edges_max"] = max(t.counts["conflict.edges_max"], edges)
    t.first.setdefault("edges", edges)


def _on_palette_test(t: Tracer, hit, args) -> None:
    colmasks, r0, r1, c0, c1 = args[:5]
    rows, cols = r1 - r0, c1 - c0
    t.counts["tiles.word_ops"] += rows * cols * colmasks.shape[1]
    if r0 == c0:
        # Diagonal tiles: only the strict upper triangle is a pair.
        t.counts["tiles.pairs"] += rows * (rows - 1) // 2
        t.counts["tiles.survivors"] += np.count_nonzero(np.triu(hit, 1))
    else:
        t.counts["tiles.pairs"] += rows * cols
        t.counts["tiles.survivors"] += np.count_nonzero(hit)


def _on_hits(t: Tracer, out, args) -> None:
    t.counts["tiles.hits"] += len(out[0])


def _on_assemble(t: Tracer, graph, args) -> None:
    t.counts["csr.arcs"] += len(graph.targets)


def _on_color(t: Tracer, outcome, args) -> None:
    t.counts["coloring.vertices"] += args[0].n_vertices
    t.counts["coloring.uncolored"] += len(outcome.uncolored)


def _result_nbytes(item) -> int:
    if isinstance(item, np.ndarray):
        return item.nbytes
    if isinstance(item, (tuple, list)):
        return sum(_result_nbytes(x) for x in item)
    return 0


def _timed_stream(t: Tracer, stream):
    """Re-yield a pool result stream, timing each wait for a result."""
    try:
        while True:
            t0 = t._enter()
            try:
                item = next(stream)
            except StopIteration:
                return
            finally:
                t._exit("parallel.wait", t0)
            t.counts["parallel.tasks"] += 1
            t.counts["parallel.result_bytes"] += _result_nbytes(item)
            yield item
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()


def proc_status_mb(field: str) -> float:
    """A ``/proc/self/status`` memory field (kB there) in MiB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"{field} missing from /proc/self/status")


def _worker_snapshot() -> dict:
    """Runs in each pool worker: its spans, counts and peak RSS."""
    return {
        "spans": dict(_ACTIVE.spans),
        "counts": dict(_ACTIVE.counts),
        "peak_rss_mb": proc_status_mb("VmHWM"),
    }


def install(t: Tracer) -> None:
    """Install every layer wrapper into the loaded program."""
    global _ACTIVE
    import repro.core.picasso as picasso
    import repro.device.tiles as tiles
    import repro.graphs.csr as csr
    from repro.core.sources import PauliComplementSource
    from repro.parallel.executor import PoolExecutor

    _ACTIVE = t
    os.register_at_fork(after_in_child=t.reset)
    finalize = PoolExecutor.finalize

    def fn(name, hook=None):
        return lambda f: t.wrap(name, f, hook)

    def engine_factory(get_engine):
        @functools.wraps(get_engine)
        def wrapper(*args, **kwargs):
            engine = get_engine(*args, **kwargs)
            engine.color = t.wrap("coloring.color", engine.color, _on_color)
            return engine

        return wrapper

    def pool_imap(imap):
        @functools.wraps(imap)
        def wrapper(self, *args, **kwargs):
            stream = t.wrap("parallel.install", imap)(self, *args, **kwargs)
            return _timed_stream(t, stream)

        return wrapper

    def pool_close(close):
        @functools.wraps(close)
        def wrapper(self):
            if self.pool_alive:
                for snapshot in finalize(self, _worker_snapshot) or ():
                    t.absorb(snapshot)
            return close(self)

        return wrapper

    installs = [
        ("palette.assign", _replace_everywhere(
            picasso, "assign_color_lists", fn("palette.assign", _on_assign))),
        ("conflict.build", _replace_everywhere(
            picasso, "build_fused_conflict_state", fn("conflict.build", _on_build))),
        ("conflict.build(classic)", _replace_everywhere(
            picasso, "build_conflict_graph", fn("conflict.build", _on_build))),
        ("tiles.survivor", _replace_everywhere(
            tiles, "conflict_hits_block", fn("tiles.survivor", _on_hits))),
        ("tiles.palette_test", _replace_everywhere(
            tiles, "lists_intersect_block",
            fn("tiles.palette_test", _on_palette_test))),
        ("oracle.block", _patch_method(
            PauliComplementSource, "edge_block", fn("oracle.block"))),
        ("oracle.gather", _patch_method(
            PauliComplementSource, "edge_mask", fn("oracle.gather"))),
        ("csr.assemble", _replace_everywhere(
            csr, "csr_from_coo_chunks", fn("csr.assemble", _on_assemble))),
        ("coloring.color", _replace_everywhere(
            picasso, "get_engine", engine_factory)),
        ("parallel.install+wait", _patch_method(PoolExecutor, "imap", pool_imap)),
        ("parallel.install(finalize)", _patch_method(
            PoolExecutor, "finalize", fn("parallel.install"))),
        ("parallel.worker_peak", _patch_method(PoolExecutor, "close", pool_close)),
    ]
    t.wrapped = [name for name, ok in installs if ok]


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (see ``BENCHMARK.json``)."""
    c = t.counts
    return {
        "palette.assign_s": t.self_s("palette.assign"),
        "tiles.palette_test_s": t.self_s("tiles.palette_test"),
        "tiles.palette_word_ops": c["tiles.word_ops"],
        "tiles.survivor_fraction": _ratio(c["tiles.survivors"], c["tiles.pairs"]),
        "tiles.survivor_s": t.self_s("tiles.survivor"),
        "oracle.block_s": t.self_s("oracle.block"),
        "oracle.gather_s": t.self_s("oracle.gather"),
        "oracle.edge_yield": _ratio(c["tiles.hits"], c["tiles.survivors"]),
        "conflict.build_self_s": t.self_s("conflict.build"),
        "conflict.edges_total": c["conflict.edges"],
        "conflict.edges_max": c["conflict.edges_max"],
        "csr.assemble_s": t.self_s("csr.assemble"),
        "csr.arcs": c["csr.arcs"],
        "coloring.color_s": t.self_s("coloring.color"),
        "coloring.vertices": c["coloring.vertices"],
        "coloring.uncolored_fraction": _ratio(
            c["coloring.uncolored"], c["coloring.vertices"]
        ),
        "picasso.iterations": t.calls("palette.assign"),
        "picasso.driver_self_s": t.self_s("picasso.color"),
        "parallel.wait_s": t.self_s("parallel.wait"),
        "parallel.install_s": t.self_s("parallel.install"),
        "parallel.tasks": c["parallel.tasks"],
        "parallel.result_bytes": c["parallel.result_bytes"],
        "parallel.worker_peak_rss_mb": c["parallel.worker_peak_rss_mb"],
    }
