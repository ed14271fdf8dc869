"""Unified coloring-engine subsystem: one interface, a registry, four engines.

Algorithm 2 (list coloring of the conflict graph) used to be hard-wired
into the Picasso driver, with the round-synchronous parallel analogs
stranded in a disconnected baseline layer.  This module collapses the
two layers into one pluggable seam:

- :class:`ListColoringEngine` — the interface every engine implements:
  ``color(gc, col_lists, rng, executor=None, device=None)`` returning a
  :class:`ListColoringOutcome` with uniform provenance (``engine``,
  ``n_rounds``, ``peak_bytes``).
- A **registry** (:func:`register_engine` / :func:`get_engine` /
  :func:`available_engines`) keyed by engine name, threaded through
  ``PicassoParams(color_engine=...)``, the semi-streaming driver, the
  CLI and the benches.

Engines:

======================  =====================================================
``greedy-dynamic``      Algorithm 2 on packed bitsets with one numpy
                        priority key per vertex, (list size, rank), and a
                        blocked argmin (the paper's choice; serial, best
                        quality)
``sets``                the Python-``set`` reference implementation —
                        bit-identical to ``greedy-dynamic`` per seed
``greedy-static``       fixed-order list coloring (``order`` knob:
                        natural / random / lf) — the §IV-B ablation
``parallel-list``       round-synchronous speculative/JP list coloring on
                        the executor substrate
                        (:mod:`repro.coloring.parallel_list`)
======================  =====================================================

Every engine charges its palette scratch to a :class:`DeviceSim` when
one is passed (named ``color_scratch`` allocation), so Algorithm 2
memory lands in the same ledger as the conflict build's buffers.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.coloring.greedy_list import (
    greedy_list_color_dynamic,
    greedy_list_color_dynamic_sets,
    greedy_list_color_static,
)
from repro.coloring.parallel_list import parallel_list_color
from repro.graphs.csr import CSRGraph

if TYPE_CHECKING:
    from repro.device.sim import DeviceSim
    from repro.parallel.executor import Executor

__all__ = [
    "ListColoringOutcome",
    "ListColoringEngine",
    "register_engine",
    "get_engine",
    "available_engines",
]


@dataclass
class ListColoringOutcome:
    """Uniform result of one list-coloring run.

    ``colors`` holds a local palette id per vertex (-1 exactly on
    ``uncolored`` — the rollover set ``Vu``); provenance fields are
    populated by every engine so memory/round comparisons are
    like-for-like.
    """

    colors: np.ndarray
    uncolored: np.ndarray
    engine: str
    n_rounds: int = 1
    peak_bytes: int = 0
    stats: dict[str, Any] = field(default_factory=dict)


class ListColoringEngine(ABC):
    """Interface of the pluggable Algorithm 2 implementations."""

    #: Registry name (set by subclasses).
    name: str = ""

    #: Whether the engine dispatches rounds over a pool executor.
    parallel: bool = False

    @abstractmethod
    def color(
        self,
        gc: CSRGraph,
        col_lists: np.ndarray,
        rng: np.random.Generator | int | None = None,
        executor: Executor | None = None,
        device: DeviceSim | None = None,
    ) -> ListColoringOutcome:
        """List-color ``gc`` from ``col_lists``.

        ``executor`` is consumed by parallel engines (serial engines
        ignore it — uniform call site in the driver); ``device``, when
        given, receives the engine's palette scratch as a named
        allocation.
        """

    def _scratch(
        self, device: DeviceSim | None, nbytes: int
    ) -> AbstractContextManager[Any]:
        """Charge palette scratch to the device ledger for the run."""
        if device is None:
            return nullcontext()
        return device.scratch("color_scratch", int(nbytes))

    @staticmethod
    def _masks_nbytes(col_lists: np.ndarray) -> int:
        """Bytes of one packed ``(n, W)`` candidate bitset matrix."""
        col_lists = np.asarray(col_lists)
        if col_lists.size == 0:
            return 0
        nbits = max(int(col_lists.max()) + 1, 1)
        return col_lists.shape[0] * ((nbits + 63) // 64) * 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: dict[str, type[ListColoringEngine]] = {}


def register_engine(cls: type[ListColoringEngine]) -> type[ListColoringEngine]:
    """Class decorator: add an engine to the registry under ``cls.name``."""
    if not cls.name:
        raise ValueError("engine class must define a non-empty name")
    if cls.name in _REGISTRY:
        raise ValueError(f"engine {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def available_engines() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_engine(name: str, **knobs: Any) -> ListColoringEngine:
    """Instantiate a registered engine with engine-specific knobs.

    Unknown knobs are rejected by the engine constructor, unknown names
    here — with the available set in the message.
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown coloring engine {name!r}; "
            f"available: {available_engines()}"
        )
    return cls(**knobs)


@register_engine
class GreedyDynamicEngine(ListColoringEngine):
    """Algorithm 2 on packed bitsets (most-constrained-first keys)."""

    name = "greedy-dynamic"

    def color(
        self,
        gc: CSRGraph,
        col_lists: np.ndarray,
        rng: np.random.Generator | int | None = None,
        executor: Executor | None = None,
        device: DeviceSim | None = None,
    ) -> ListColoringOutcome:
        # The packed masks twice (the row-major build and its
        # word-major copy briefly coexist); the keys, padded to whole
        # blocks of B < 2*sqrt(n) + 64, and one minimum per block; rank
        # (whose bytes Vu reuses), draws and colors at 8 B per vertex;
        # and one neighbor pass's temporaries, at most five words per
        # neighbor of the highest-degree vertex.  The adjacency is read
        # in place.
        n = gc.n_vertices
        scratch = (
            2 * self._masks_nbytes(col_lists)
            + 8 * (n + 3 * math.isqrt(n) + 128)
            + 3 * 8 * n
            + 5 * 8 * gc.max_degree()
        )
        with self._scratch(device, scratch):
            colors, vu = greedy_list_color_dynamic(gc, col_lists, rng)
        peak = gc.nbytes + scratch + colors.nbytes
        return ListColoringOutcome(
            colors=colors, uncolored=vu, engine=self.name,
            n_rounds=1, peak_bytes=int(peak),
        )


@register_engine
class GreedySetsEngine(ListColoringEngine):
    """The Python-``set`` Algorithm 2 reference (seeded-equivalence)."""

    name = "sets"

    def color(
        self,
        gc: CSRGraph,
        col_lists: np.ndarray,
        rng: np.random.Generator | int | None = None,
        executor: Executor | None = None,
        device: DeviceSim | None = None,
    ) -> ListColoringOutcome:
        col_lists = np.asarray(col_lists)
        # Python sets cost far more than packed words; charge the
        # classic ~64 B/entry estimate so the ledger reflects why the
        # bitset engine replaced this one.
        scratch = int(col_lists.size) * 64 + 3 * gc.n_vertices * 8
        with self._scratch(device, scratch):
            colors, vu = greedy_list_color_dynamic_sets(gc, col_lists, rng)
        peak = gc.nbytes + scratch + colors.nbytes
        return ListColoringOutcome(
            colors=colors, uncolored=vu, engine=self.name,
            n_rounds=1, peak_bytes=int(peak),
        )


@register_engine
class GreedyStaticEngine(ListColoringEngine):
    """Fixed-order list coloring (§IV-B static order schemes)."""

    name = "greedy-static"

    def __init__(self, order: str = "natural") -> None:
        self.order = order

    def color(
        self,
        gc: CSRGraph,
        col_lists: np.ndarray,
        rng: np.random.Generator | int | None = None,
        executor: Executor | None = None,
        device: DeviceSim | None = None,
    ) -> ListColoringOutcome:
        scratch = 2 * gc.n_vertices * 8  # perm + taken-colors scratch
        with self._scratch(device, scratch):
            colors, vu = greedy_list_color_static(
                gc, col_lists, self.order, rng
            )
        peak = gc.nbytes + scratch + colors.nbytes
        return ListColoringOutcome(
            colors=colors, uncolored=vu, engine=self.name,
            n_rounds=1, peak_bytes=int(peak),
            stats={"order": self.order},
        )


@register_engine
class ParallelListEngine(ListColoringEngine):
    """Round-synchronous speculative list coloring over the executor
    substrate (:mod:`repro.coloring.parallel_list`)."""

    name = "parallel-list"
    parallel = True

    def __init__(
        self,
        max_rounds: int | None = None,
        kernel_backend: str | None = None,
    ) -> None:
        self.max_rounds = max_rounds
        self.kernel_backend = kernel_backend

    def color(
        self,
        gc: CSRGraph,
        col_lists: np.ndarray,
        rng: np.random.Generator | int | None = None,
        executor: Executor | None = None,
        device: DeviceSim | None = None,
    ) -> ListColoringOutcome:
        # Candidate + forbidden bitsets, both resident for the run.
        scratch = 2 * self._masks_nbytes(col_lists) + 3 * gc.n_vertices * 8
        with self._scratch(device, scratch):
            colors, vu, info = parallel_list_color(
                gc, col_lists, rng,
                executor=executor, max_rounds=self.max_rounds,
                kernel_backend=self.kernel_backend,
            )
        return ListColoringOutcome(
            colors=colors, uncolored=vu, engine=self.name,
            n_rounds=info["n_rounds"], peak_bytes=info["peak_bytes"],
            stats={"n_conflicts": info["n_conflicts"]},
        )
