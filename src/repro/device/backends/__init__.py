"""Registry-dispatched compute-kernel backends (see :mod:`.base`).

A backend supplies the one hot word kernel that is not a numpy
broadcast: the ``parallel-list`` engine's lowest-set-bit picks.
Importing this package registers the two shipped backends: ``numpy``
(the default — the vectorized kernels) and ``numba`` (compiled CPU
loops, lazily jitted, degrades to numpy when numba is absent).
Selection threads through ``PicassoParams(kernel_backend=...)`` /
``--kernel-backend`` / ``REPRO_KERNEL_BACKEND``; every
``parallel-list`` run, in the driver or in a worker, takes its instance
from :func:`resolve_backend`.
"""

from repro.device.backends.base import (
    KernelBackend,
    available_backends,
    backend_name,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.device.backends.numba_backend import NumbaBackend
from repro.device.backends.numpy_backend import NumpyBackend

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "NumbaBackend",
    "register_backend",
    "get_backend",
    "registered_backends",
    "available_backends",
    "backend_name",
    "resolve_backend",
]
