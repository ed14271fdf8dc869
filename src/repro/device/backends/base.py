"""Kernel-backend contract and registry (the accelerator dispatch seam).

A backend replaces the word-level kernel the hot path calls through
this seam: the lowest-set-bit scan of the ``parallel-list`` picks
(:mod:`repro.coloring.parallel_list`).  The conflict sweeps' palette
test is a numpy word broadcast in :mod:`repro.device.tiles` and takes
no backend.  The registry mirrors the coloring-engine registry (:mod:`repro.coloring.engine`):

- :func:`register_backend` / :func:`get_backend` /
  :func:`registered_backends` / :func:`available_backends` — the
  registry.  *Registered* names include backends whose runtime is not
  importable here (``numba`` on a host without it); *available* names
  are the subset that can actually run, which is what test
  parametrization and benchmarks iterate.
- :func:`backend_name` — the one reader of ``REPRO_KERNEL_BACKEND``:
  an explicit name wins, ``None`` / ``"auto"`` fall back to the
  environment, then ``"numpy"``.
- :func:`resolve_backend` — the instance every ``parallel-list`` run
  uses, in the driver and in every worker initializer.  An unavailable
  or unknown name degrades to numpy with a one-line stderr note (once
  per name per process) instead of failing the run — backends are
  bit-identical by contract, so the fallback is always safe, merely
  slower.

Every backend must reproduce the numpy reference **bit for bit**: the
equivalence suites parametrize over :func:`available_backends` and
require identical colorings per seed.  Anything that
cannot meet that bar is not a backend, it is a different algorithm.
"""

from __future__ import annotations

import os
import sys
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "KernelBackend",
    "register_backend",
    "get_backend",
    "registered_backends",
    "available_backends",
    "backend_name",
    "resolve_backend",
]

#: Environment override consulted by :func:`backend_name` when no
#: explicit backend name is given (mirrors ``REPRO_TELEMETRY`` and the
#: executor envs).
ENV_VAR = "REPRO_KERNEL_BACKEND"


class KernelBackend(ABC):
    """Contract of one compute-kernel implementation: the hot kernel,
    nothing else.  The round loop of
    :mod:`repro.coloring.parallel_list` calls it, so the pick policy
    lives in exactly one place for every backend."""

    #: Registry name (set by subclasses).
    name: str = ""

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend's runtime can be imported here."""
        return True

    @abstractmethod
    def lowest_set_bit_rows(self, masks: np.ndarray) -> np.ndarray:
        """Lowest set bit per row of a packed ``(n, W)`` matrix
        (int64, -1 for all-zero rows)."""

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


def backend_name(name: str | None = None) -> str:
    """The backend name a request selects, before any availability
    check: an explicit name wins; ``None`` / ``"auto"`` read
    ``REPRO_KERNEL_BACKEND`` (per call, so a test can flip it), landing
    on ``"numpy"`` when that is unset, empty or itself ``"auto"``.
    """
    if name is None or name == "auto":
        name = os.environ.get(ENV_VAR, "").strip().lower()
    return name if name and name != "auto" else "numpy"


def resolve_backend(name: str | None = None) -> KernelBackend:
    """The backend instance for :func:`backend_name` of ``name``.

    A name that is unknown or whose runtime is missing **degrades to
    numpy** with a one-line stderr note (once per name per process):
    backends are bit-identical by contract, so a cluster agent without
    numba still produces the same CSR and colorings, just slower.  This
    is also the worker-side resolver — pool and cluster payload
    installs ship the *name* and call this in the worker process, so
    spawned and remote workers pick their backend against their own
    environment.
    """
    name = backend_name(name)
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
