"""Multi-host sharded execution (paper §VIII's distributed future work).

The single-host execution stack made every conflict sweep a
*(payload install, task list, ordered results)* triple against the
:class:`~repro.parallel.executor.Executor` seam.  This package extends that seam beyond one node:

- :mod:`repro.distributed.transport` — a length-prefixed socket
  protocol: pickled control messages, NumPy buffers raw and out of
  band, versioned handshake, bounded send/recv.
- :mod:`repro.distributed.worker` — the per-host agent serving
  install / imap / finalize RPCs with the *existing* worker task
  functions (``python -m repro.distributed.worker --bind ...``).
- :mod:`repro.distributed.cluster` — :class:`ClusterExecutor`, the
  full ``Executor`` contract over N agents: one installed payload
  token, delta installs, incarnation-pinned ``holds_token``, recycle on
  broken broadcasts; results interleave back into task order so
  distributed CSR builds and colorings are bit-identical per seed to
  serial for any shard count.
- :mod:`repro.distributed.local` — :class:`LocalCluster`, N agents on
  loopback for tests/CI, with kill/restart failure injection.

Select it with ``PicassoParams(hosts="hostA:7070,hostB:7070")`` (CLI:
``--hosts``), or ``executor="cluster"`` with the ``REPRO_HOSTS``
environment variable.
"""

from repro.distributed.cluster import ClusterExecutor
from repro.distributed.local import LocalCluster
from repro.distributed.transport import (
    Connection,
    HandshakeError,
    TransportError,
    connect,
    parse_hosts,
)
from repro.distributed.worker import WorkerAgent

__all__ = [
    "ClusterExecutor",
    "LocalCluster",
    "Connection",
    "HandshakeError",
    "TransportError",
    "connect",
    "parse_hosts",
    "WorkerAgent",
]
