"""Registry-dispatched compute-kernel backends (see :mod:`.base`).

Importing this package registers the two shipped backends: ``numpy``
(the default — the existing vectorized kernels, unchanged) and
``numba`` (compiled CPU loops, lazily jitted, degrades to numpy when
numba is absent).  Selection threads through
``PicassoParams(kernel_backend=...)`` / ``--kernel-backend`` /
``REPRO_KERNEL_BACKEND`` and is resolved worker-side via
:func:`resolve_backend`.
"""

from repro.device.backends.base import (
    KernelBackend,
    available_backends,
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
    "resolve_backend",
]
