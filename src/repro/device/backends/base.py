"""Kernel-backend contract and registry (the accelerator dispatch seam).

The tiled sweep drivers in :mod:`repro.device.tiles` and the coloring
engines consume three *hot* word-level primitives — popcount-parity
(`anticommute`), palette-intersect (`conflict candidate`) and
lowest-set-bit (`color pick`) — plus two thin per-tile drivers built on
them.  This module narrows that surface into one typed contract,
:class:`KernelBackend`, and a name-keyed registry mirroring the
coloring-engine registry (:mod:`repro.coloring.engine`):

- :func:`register_backend` / :func:`get_backend` /
  :func:`registered_backends` / :func:`available_backends` — the
  registry.  *Registered* names include backends whose runtime is not
  importable here (``numba`` on a host without it); *available* names
  are the subset that can actually run, which is what test
  parametrization and benchmarks iterate.
- :func:`resolve_backend` — the selection policy shared by the driver
  and every worker initializer: an explicit name wins, ``None`` /
  ``"auto"`` falls back to ``REPRO_KERNEL_BACKEND``, then ``"numpy"``.
  An unavailable or unknown name degrades to numpy with a one-line
  stderr note (once per name per process) instead of failing the run —
  backends are bit-identical by contract, so the fallback is always
  safe, merely slower.

Every backend must reproduce the numpy reference **bit for bit**: the
equivalence suites parametrize over :func:`available_backends` and
require identical CSR structures and colorings per seed.  Anything that
cannot meet that bar is not a backend, it is a different algorithm.
"""

from __future__ import annotations

import os
import sys
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry

if TYPE_CHECKING:
    from repro.device.tiles import EdgeBlockFn, TileScratch

__all__ = [
    "KernelBackend",
    "register_backend",
    "get_backend",
    "registered_backends",
    "available_backends",
    "resolve_backend",
]

#: Environment override consulted by :func:`resolve_backend` when no
#: explicit backend name is given (mirrors ``REPRO_TELEMETRY`` and the
#: executor envs).
ENV_VAR = "REPRO_KERNEL_BACKEND"


class KernelBackend(ABC):
    """Contract of one compute-kernel implementation.

    The three abstract primitives are the hot words; the two concrete
    drivers (:meth:`conflict_hits_block`, :meth:`block_hits`) delegate
    to the shared tile logic in :mod:`repro.device.tiles` with
    ``backend=self`` so diagonal masking, dense-vs-gather oracle policy
    and hit ordering live in exactly one place.  A device backend that
    wants to fuse the whole tile on-device overrides the drivers too.
    """

    #: Registry name (set by subclasses).
    name: str = ""

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend's runtime can be imported here."""
        return True

    @abstractmethod
    def anticommute_parity_block(
        self, packed: np.ndarray, r0: int, r1: int, c0: int, c1: int
    ) -> np.ndarray:
        """``parity(popcount(a & b))`` for the block, as uint8 0/1."""

    @abstractmethod
    def lists_intersect_block(
        self,
        colmasks: np.ndarray,
        r0: int,
        r1: int,
        c0: int,
        c1: int,
        scratch: TileScratch | None = None,
    ) -> np.ndarray:
        """Boolean block: True where the palette bitsets intersect.

        ``scratch`` is the numpy path's preallocated tile buffers;
        compiled backends may ignore it.
        """

    @abstractmethod
    def lowest_set_bit_rows(self, masks: np.ndarray) -> np.ndarray:
        """Lowest set bit per row of a packed ``(n, W)`` matrix
        (int64, -1 for all-zero rows)."""

    def conflict_hits_block(
        self,
        colmasks: np.ndarray,
        r0: int,
        r1: int,
        c0: int,
        c1: int,
        edge_mask_fn=None,
        edge_block_fn: EdgeBlockFn | None = None,
        dense_edge_fraction: float | None = None,
        scratch: TileScratch | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused conflict kernel for one tile (see
        :func:`repro.device.tiles.conflict_hits_block`)."""
        from repro.device import tiles

        telemetry.count("device.dispatch", backend=self.name)
        if dense_edge_fraction is None:
            dense_edge_fraction = tiles.DENSE_EDGE_FRACTION
        return tiles.conflict_hits_block(
            colmasks, r0, r1, c0, c1, edge_mask_fn, edge_block_fn,
            dense_edge_fraction=dense_edge_fraction, scratch=scratch,
            backend=self,
        )

    def block_hits(
        self, block_fn: EdgeBlockFn, r0: int, r1: int, c0: int, c1: int, s: int
    ) -> np.ndarray:
        """Upper-triangle hits of a block predicate on one block, as
        ascending CSR keys ``i << s | j`` (see
        :func:`repro.device.tiles.block_hits`)."""
        from repro.device import tiles

        telemetry.count("device.dispatch", backend=self.name)
        return tiles.block_hits(block_fn, r0, r1, c0, c1, s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: dict[str, type[KernelBackend]] = {}

# One instance per backend name: backends are stateless beyond their
# lazily compiled kernels, and sharing the instance shares the compile.
_INSTANCES: dict[str, KernelBackend] = {}

# Names already warned about by resolve_backend's fallback (one stderr
# line per unknown/unavailable name per process, not one per sweep).
_FALLBACK_NOTED: set[str] = set()


def register_backend(cls: type[KernelBackend]) -> type[KernelBackend]:
    """Class decorator: add a backend to the registry under ``cls.name``."""
    if not cls.name:
        raise ValueError("backend class must define a non-empty name")
    if cls.name in _REGISTRY:
        raise ValueError(f"kernel backend {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def registered_backends() -> tuple[str, ...]:
    """All registered backend names, sorted (importable or not)."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> tuple[str, ...]:
    """Registered backends whose runtime imports here, sorted."""
    return tuple(sorted(n for n, c in _REGISTRY.items() if c.is_available()))


def get_backend(name: str) -> KernelBackend:
    """The singleton instance of a registered, available backend.

    Unknown names raise ``ValueError`` with the registered set in the
    message; a registered backend whose runtime is missing raises
    ``RuntimeError`` (use :func:`resolve_backend` for the degrading
    path).
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"registered: {registered_backends()}"
        )
    if not cls.is_available():
        raise RuntimeError(
            f"kernel backend {name!r} is registered but its runtime is "
            "not importable here"
        )
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = _INSTANCES[name] = cls()
    return inst


def resolve_backend(name: str | None = None) -> KernelBackend:
    """Selection policy: explicit name, else env, else numpy.

    ``None`` / ``"auto"`` consult ``REPRO_KERNEL_BACKEND``; an empty or
    ``"auto"`` env lands on ``"numpy"``.  A name that is unknown or
    whose runtime is missing **degrades to numpy** with a one-line
    stderr note (once per name per process): backends are bit-identical
    by contract, so a cluster agent without numba still produces the
    same CSR and colorings, just slower.  This is the worker-side
    resolver — pool and cluster payload installs ship the *name* and
    call this in the worker process, so spawned and remote workers pick
    their backend against their own environment.
    """
    if name is None or name == "auto":
        name = os.environ.get(ENV_VAR, "").strip().lower() or "numpy"
        if name == "auto":
            name = "numpy"
    cls = _REGISTRY.get(name)
    if cls is not None and cls.is_available():
        return get_backend(name)
    if name not in _FALLBACK_NOTED:
        _FALLBACK_NOTED.add(name)
        reason = "is not registered" if cls is None else "has no importable runtime"
        print(
            f"repro: kernel backend {name!r} {reason}; "
            "falling back to 'numpy'",
            file=sys.stderr,
        )
    return get_backend("numpy")
