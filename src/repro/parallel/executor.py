"""Execution backends: a common submit/gather interface over workers.

The paper ships "a sequential and a parallel implementation" (§I).  This
module is the seam between the two: every pair/tile sweep in the library
is expressed as *(initializer payload, task list, task function)* and
handed to an :class:`Executor`, which decides where the tasks run.

- :class:`SerialExecutor` — runs tasks in-process, in order.  The
  correctness reference and the right choice for small problems (no
  process start-up, no result pickling).
- :class:`PoolExecutor` — a **persistent** ``multiprocessing.Pool`` of
  worker processes, created lazily on first use and reused across
  sweeps (Algorithm 1 runs one sweep per iteration; re-forking a pool
  for each was pure start-up overhead).  Payloads are installed into
  live workers through a barrier-gated broadcast — every worker runs
  the initializer exactly once per install — and repeat installs that
  present the same ``payload_token`` may ship only a delta (the worker
  keeps the token-cached static part; see
  :mod:`repro.parallel.pool`).  Optional ``pin=True`` pins each worker
  to one core via ``os.sched_setaffinity`` so its tile scratch stays
  NUMA-local (a silent no-op on platforms without the call).
- :class:`repro.distributed.cluster.ClusterExecutor` (spec
  ``"cluster"``, or ``"auto"`` with ``hosts=``) — the same contract
  sharded over worker agents on other hosts through the socket
  transport; lives in :mod:`repro.distributed` and is resolved lazily
  by :func:`make_executor`.

All backends preserve task order in their results, which is what lets
the tile sweep keep its deterministic chunk stream — parallel and
serial conflict-graph builds are bit-identical per seed (see
:mod:`repro.parallel.pool`).  That result stream is the one gather
path: a pool's results come back pickled through its result pipe, a
cluster's as framed socket messages.

Lifecycle contract: whoever materializes an :class:`Executor` from a
spec string owns it and must :meth:`~Executor.close` it (or use it as a
context manager) — a persistent pool holds live worker processes until
then.  Passing an :class:`Executor` *instance* into a build function
leaves ownership with the caller.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.pool as mp_pool
import os
from abc import ABC, abstractmethod
from collections.abc import Callable, Hashable, Iterator, Sequence
from contextlib import contextmanager
from typing import Any

from repro import telemetry

__all__ = [
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "WorkerFailure",
    "make_executor",
    "owned_executor",
    "default_start_method",
    "pin_current_worker",
    "token_channel",
]


class WorkerFailure(RuntimeError):
    """A worker (pool process or cluster agent) died or wedged past its
    bound mid-operation.  The backend has already recycled itself when
    this is raised, so the failure is mechanically recoverable: the
    same operation resubmitted on the (fresh) backend — or on a
    fallback one — produces the identical remaining results, which is
    what :class:`repro.resilience.supervisor.ResilientExecutor` does.
    Subclasses ``RuntimeError`` so pre-supervision callers that caught
    the generic error keep working."""

#: Seconds a worker waits at the install barrier before declaring the
#: broadcast broken (a worker died mid-install) instead of hanging.
#: Overridable via ``REPRO_BROADCAST_TIMEOUT_S`` for hosts where a
#: spawn-mode payload pickle can legitimately straggle.
BROADCAST_TIMEOUT_S = float(os.environ.get("REPRO_BROADCAST_TIMEOUT_S", "120"))

#: Seconds the dispatcher waits for any single strip result before
#: declaring the worker dead.  multiprocessing never re-issues a task
#: lost to an abruptly-killed worker, so an unbounded wait would hang
#: the whole build; generous because one strip of a very large sweep
#: can legitimately run for minutes.  Overridable via
#: ``REPRO_RESULT_TIMEOUT_S`` for runs whose densest strip outlasts it.
RESULT_TIMEOUT_S = float(os.environ.get("REPRO_RESULT_TIMEOUT_S", "600"))


def default_start_method() -> str:
    """``"fork"`` where the platform offers it, else ``"spawn"``.

    The ``REPRO_START_METHOD`` environment variable overrides the
    choice (CI forces ``spawn`` to prove the fork-less path works);
    an unavailable forced method raises.
    """
    forced = os.environ.get("REPRO_START_METHOD")
    if forced:
        if forced not in mp.get_all_start_methods():
            raise ValueError(
                f"REPRO_START_METHOD={forced!r} not available "
                f"(have {mp.get_all_start_methods()})"
            )
        return forced
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def pin_current_worker(rank: int) -> bool:
    """Pin the calling process to one CPU of its allowed set.

    Worker ``rank`` takes CPU ``allowed[rank % len(allowed)]``, so a
    pool of ``n_workers <= cores`` lands one worker per core and tile
    scratch stays core-local.  Returns True when the affinity call
    succeeded; platforms without ``sched_setaffinity`` (macOS, Windows)
    and restricted environments degrade to a silent no-op (False).
    """
    getaff = getattr(os, "sched_getaffinity", None)
    setaff = getattr(os, "sched_setaffinity", None)
    if getaff is None or setaff is None:
        return False
    try:
        allowed = sorted(getaff(0))
        if not allowed:
            return False
        setaff(0, {allowed[rank % len(allowed)]})
        return True
    except OSError:
        return False


# -- pool-worker bootstrap ------------------------------------------------
#
# Installed once per worker process at pool creation.  The rank counter
# hands each worker a distinct index (for pinning); the barrier gates
# payload broadcasts so each of the pool's workers runs an install
# exactly once (a worker that finished its install blocks on the
# barrier, so the next install task must go to a different worker).

_POOL_LOCAL: dict[str, Any] = {}


def _bootstrap_pool_worker(
    rank_counter: Any, barrier: Any, pin: bool
) -> None:
    with rank_counter.get_lock():
        rank = rank_counter.value
        rank_counter.value += 1
    _POOL_LOCAL["rank"] = rank
    _POOL_LOCAL["barrier"] = barrier
    _POOL_LOCAL["pinned"] = pin_current_worker(rank) if pin else False
    # This process is a pool worker: its telemetry is a delta shipped
    # home on the finalize broadcast, not the dispatcher's merged view.
    telemetry.mark_worker_process()


def _broadcast_task(arg: tuple[Callable[..., Any], tuple[Any, ...]]) -> Any:
    fn, payload = arg
    barrier = _POOL_LOCAL.get("barrier")
    try:
        ret = fn(*payload)
    except BaseException:
        # Release the peers *now*: without the abort, the n-1 healthy
        # workers would sit at the barrier for the full timeout before
        # this failure could surface to the dispatcher.
        if barrier is not None:
            barrier.abort()
        raise
    if barrier is not None:
        barrier.wait(BROADCAST_TIMEOUT_S)
    # The broadcast return value is the piggyback channel worker
    # telemetry deltas ride home on (see Executor.finalize).
    return ret


def token_channel(token: Hashable) -> Hashable:
    """The namespace a payload token installs under.

    Workers keep one token-cached static payload *per consumer module*
    (the sweep cache in :mod:`repro.parallel.pool`, the palette cache
    in :mod:`repro.coloring.parallel_list`), so the dispatcher must
    track one installed token per such channel too — otherwise a run
    that alternates sweep and coloring installs on one persistent pool
    would evict each other's tokens and force full payloads every
    iteration.  Convention: tuple tokens are namespaced by their first
    element (``("sweep", ...)``, ``("color", ...)``); scalar tokens are
    their own channel.
    """
    if isinstance(token, tuple) and token:
        return token[0]
    return token


class Executor(ABC):
    """Submit/gather interface shared by all backends.

    An executor runs ``task_fn`` over ``tasks`` after installing
    ``payload`` via ``initializer`` exactly once per worker, and returns
    the results *in task order*, so every backend returns the same
    result sequence as the serial one.
    """

    #: Worker processes the backend will use (1 for serial).
    n_workers: int = 1

    #: Whether workers outlive a sweep, making the token-cached static
    #: payload worth keeping (True for persistent pools and cluster
    #: connections — an in-process backend would just pin large arrays
    #: in the dispatcher).
    supports_payload_cache: bool = False

    #: Slot-prefix under which this backend's finalize-channel
    #: telemetry snapshots merge into the dispatcher view (``w`` for
    #: pool workers, ``s`` for cluster shards — see
    #: :func:`repro.telemetry.absorb_snapshots`).
    telemetry_prefix: str = "w"

    def __init__(self) -> None:
        #: Installed payload token per channel (see :func:`token_channel`);
        #: empty when nothing is installed or the pool has been recycled.
        self._tokens: dict[Hashable, Hashable] = {}
        self._last_token: Hashable = None

    @property
    def _installed_token(self) -> Hashable:
        """Most recently installed payload token (diagnostics/tests)."""
        return self._last_token

    def _record_install(self, token: Hashable) -> None:
        if token is None:
            # A tokenless initializer gives no contract about which
            # worker-side caches it clobbered, so every channel's
            # record is suspect — drop them all (the next tokened
            # install per channel ships in full).
            self._clear_tokens()
            return
        self._last_token = token
        self._tokens[token_channel(token)] = token

    def _clear_tokens(self) -> None:
        self._tokens.clear()
        self._last_token = None

    @abstractmethod
    def imap(
        self,
        task_fn: Callable[..., Any],
        tasks: Sequence[Any],
        initializer: Callable[..., Any] | None = None,
        payload: tuple[Any, ...] = (),
        payload_token: Hashable = None,
    ) -> Iterator[Any]:
        """Run ``task_fn`` over ``tasks``, returning an iterator of
        results in task order — the streaming form consumers use when
        results feed a bounded buffer (e.g. the device COO stream).

        Contract (identical across backends):

        - **Empty task lists never run the initializer** — there is no
          work, so no payload is installed anywhere.
        - **Otherwise initialization is eager**: by the time ``imap``
          returns, ``initializer(*payload)`` has run once in every
          worker (in-process for the serial backend).  Consumers may
          rely on worker state being installed even before the first
          result is consumed.
        - Task *execution* streams lazily; results come back strictly
          in task order.
        - ``payload_token``, when not None, names the installed payload
          so a later call can ask :meth:`holds_token` and ship a
          smaller delta payload instead of the full one.
        """

    def map(
        self,
        task_fn: Callable[..., Any],
        tasks: Sequence[Any],
        initializer: Callable[..., Any] | None = None,
        payload: tuple[Any, ...] = (),
        payload_token: Hashable = None,
    ) -> list[Any]:
        """Run ``task_fn`` over ``tasks``; all results, in task order."""
        return list(
            self.imap(task_fn, tasks, initializer, payload, payload_token)
        )

    def holds_token(self, token: Hashable) -> bool:
        """True when the workers still hold the payload installed under
        ``token`` (same live pool, no recycle since) — the signal that a
        delta payload suffices for the next install.  Tokens are tracked
        per channel, so sweep and coloring payloads on one executor do
        not evict each other."""
        return (
            token is not None
            and self._tokens.get(token_channel(token)) == token
        )

    def worker_capacities(self) -> list[int]:
        """Relative task-weight capacity of each worker slot, aligned
        with the positional deal (slot ``k`` receives ``tasks[k::n]``).

        Homogeneous backends report all-ones; a hierarchical cluster
        shard advertises how many local cores sit behind its agent so
        the strip partitioner can deal it proportionally more pair
        weight (see :func:`repro.parallel.pool.sweep_strip_tasks`)."""
        return [1] * self.n_workers

    def finalize(
        self, fn: Callable[..., Any], payload: tuple[Any, ...] = ()
    ) -> list[Any] | None:
        """Run a cleanup function once per worker after a sweep.

        The dispatcher calls this in a ``finally`` to drop per-sweep
        worker state (plan, bitsets, scratch, derived oracles) so large
        arrays do not stay alive between builds.  In-process for the
        serial backend; a broadcast for pools (no-op when no pool is
        live).  Returns the per-worker return values in slot order
        (``None`` when nothing ran) — the piggyback channel worker
        telemetry deltas ride home on."""
        return [fn(*payload)]

    def close(self) -> None:
        """Release backend resources (worker processes).  Idempotent."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_workers={self.n_workers})"


class SerialExecutor(Executor):
    """In-process backend: eager initializer, then an ordered lazy loop."""

    n_workers = 1

    def imap(
        self,
        task_fn: Callable,
        tasks: Sequence,
        initializer: Callable | None = None,
        payload: tuple = (),
        payload_token=None,
    ) -> Iterator:
        tasks = list(tasks)
        if not tasks:
            return iter(())
        if initializer is not None:
            initializer(*payload)
            self._record_install(payload_token)
        return map(task_fn, tasks)

    def close(self) -> None:
        self._clear_tokens()


class PoolExecutor(Executor):
    """Persistent process-pool backend over ``multiprocessing``.

    The pool is created lazily on first use and **reused across
    sweeps** until :meth:`close`.  Each sweep's payload is installed
    into the live workers through a barrier-gated broadcast (one
    install per worker, pickled through the task pipe under every start
    method — the fork-time copy-on-write shortcut of the per-sweep pool
    design no longer applies, but neither does its per-sweep fork
    cost).  An abandoned result stream (a consumer aborting mid-sweep,
    e.g. on :class:`~repro.device.sim.DeviceOutOfMemory`) recycles the
    pool so stale tasks never leak into the next sweep.

    Parameters
    ----------
    n_workers:
        Pool size (>= 1).
    start_method:
        ``"fork"``, ``"spawn"``, ``"forkserver"`` or ``None`` to pick
        :func:`default_start_method`.
    pin:
        Pin each worker to one core via ``os.sched_setaffinity``
        (worker ``rank`` -> allowed CPU ``rank % n_cpus``).  A silent
        no-op on platforms without the call.
    """

    supports_payload_cache = True

    def __init__(
        self,
        n_workers: int = 2,
        start_method: str | None = None,
        pin: bool = False,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if start_method is not None and start_method not in mp.get_all_start_methods():
            raise ValueError(
                f"start method {start_method!r} not available "
                f"(have {mp.get_all_start_methods()})"
            )
        super().__init__()
        self.n_workers = n_workers
        self.start_method = start_method
        self.pin = pin
        self._pool: mp_pool.Pool | None = None
        #: Worker pid set at install time, per token channel — a
        #: respawned worker invalidates the delta path for a channel.
        self._token_pids: dict[Hashable, list[int] | None] = {}
        self._streaming = False

    def resolved_start_method(self) -> str:
        """The start method the pool will actually use."""
        return self.start_method or default_start_method()

    @property
    def pool_alive(self) -> bool:
        """True while a worker pool is live (created and not recycled)."""
        return self._pool is not None

    def worker_pids(self) -> list[int] | None:
        """Pids of the live pool's workers ([] when no pool is up) —
        lets tests and diagnostics verify the pool actually persists
        across sweeps instead of being re-forked.  Returns ``None``
        when the interpreter's Pool internals are unreadable; the
        token check treats that as "unknown workers" and forces a full
        install rather than risking a stale delta."""
        if self._pool is None:
            return []
        try:
            return sorted(p.pid for p in self._pool._pool)
        except AttributeError:  # pragma: no cover - future interpreters
            return None

    def _ensure_pool(self) -> mp_pool.Pool:
        pool = self._pool
        if pool is None:
            ctx = mp.get_context(self.resolved_start_method())
            rank_counter = ctx.Value("i", 0)
            barrier = ctx.Barrier(self.n_workers)
            pool = ctx.Pool(
                self.n_workers,
                initializer=_bootstrap_pool_worker,
                initargs=(rank_counter, barrier, self.pin),
            )
            self._pool = pool
            self._clear_tokens()
            self._token_pids.clear()
        return pool

    def _broadcast(
        self, fn: Callable[..., Any], payload: tuple[Any, ...]
    ) -> list[Any]:
        pool = self._ensure_pool()
        try:
            # chunksize=1 so the n_workers install tasks go to n_workers
            # distinct workers: a worker that ran its install blocks at
            # the barrier until every worker has one.  map_async + a
            # bounded get, not map: a worker abruptly killed after
            # dequeuing its install task never reports a result and
            # multiprocessing does not re-issue lost tasks, so a plain
            # map would block forever.
            result = pool.map_async(
                _broadcast_task, [(fn, payload)] * self.n_workers, chunksize=1
            )
            return result.get(BROADCAST_TIMEOUT_S + 30.0)
        except mp.TimeoutError:
            self._recycle()
            raise WorkerFailure(
                "payload broadcast timed out — a pool worker likely died "
                "mid-install; the pool has been recycled"
            ) from None
        except Exception:
            # An install failed (or its barrier broke): the barrier is
            # unusable for this pool either way, so recycle now — the
            # next use gets fresh workers and a fresh barrier instead
            # of raising BrokenBarrierError forever.
            self._recycle()
            raise

    def _stream(self, result_iter: mp_pool.IMapIterator) -> Iterator[Any]:
        """Yield pool results with a bounded per-result wait; recycle
        the pool if the stream is abandoned mid-sweep or wedged."""
        done = False
        try:
            while True:
                try:
                    item = result_iter.next(RESULT_TIMEOUT_S)
                except StopIteration:
                    break
                except mp.TimeoutError:
                    # Same failure mode the install broadcast guards
                    # against: a worker killed mid-strip never reports
                    # and the task is never re-issued.
                    raise WorkerFailure(
                        f"no sweep result within {RESULT_TIMEOUT_S:.0f}s — "
                        "a pool worker likely died mid-strip; the pool "
                        "has been recycled"
                    ) from None
                yield item
            done = True
        finally:
            self._streaming = False
            if not done:
                # Unconsumed tasks are churning toward a dead iterator;
                # terminate them now and start clean next sweep.
                self._recycle()

    def _recycle(self) -> None:
        if self._pool is not None:
            telemetry.count("pool.recycle")
            self._pool.terminate()
            # reprolint: disable=bounded-blocking -- mp.Pool.join() takes
            # no timeout; terminate() above SIGTERMs the workers first.
            self._pool.join()
            self._pool = None
        self._clear_tokens()
        self._token_pids.clear()
        self._streaming = False

    def holds_token(self, token: Hashable) -> bool:
        """A pool additionally demands the worker set is unchanged: a
        worker that died was auto-respawned by ``multiprocessing`` with
        an empty payload cache, so a delta-only install would strand it
        (and stall the healthy workers at the broadcast barrier) — any
        respawn (or an unreadable worker set) forces the next install
        to ship the full payload."""
        pids = self.worker_pids()
        return (
            super().holds_token(token)
            and pids is not None
            and pids == self._token_pids.get(token_channel(token))
        )

    def imap(
        self,
        task_fn: Callable[..., Any],
        tasks: Sequence[Any],
        initializer: Callable[..., Any] | None = None,
        payload: tuple[Any, ...] = (),
        payload_token: Hashable = None,
    ) -> Iterator[Any]:
        tasks = list(tasks)
        if not tasks:
            return iter(())
        if self._streaming:
            # PR 2's per-sweep pools isolated overlapping sweeps by
            # construction; a persistent pool cannot — a new install
            # would overwrite worker state while the previous sweep's
            # strips are still queued, silently corrupting its results.
            # Fail loudly instead.
            raise RuntimeError(
                "PoolExecutor does not support overlapping sweeps: finish, "
                "close, or abandon the previous result stream first"
            )
        pool = self._ensure_pool()
        if initializer is not None:
            self._broadcast(initializer, payload)
            self._record_install(payload_token)
            if payload_token is None:
                self._token_pids.clear()
            else:
                self._token_pids[token_channel(payload_token)] = (
                    self.worker_pids()
                )
        # imap (not map): results stream back in task order as they
        # finish, so a consumer filling a bounded buffer — the device
        # COO stream — never holds every strip's hit arrays at once and
        # can abort (DeviceOutOfMemory) mid-sweep.
        self._streaming = True
        return self._stream(pool.imap(task_fn, tasks))

    def broadcast(
        self, fn: Callable[..., Any], payload: tuple[Any, ...] = ()
    ) -> None:
        """Run ``fn(*payload)`` once in every pool worker, eagerly.

        The install primitive ``imap`` uses internally, exposed for
        callers that must forward an install RPC verbatim to every
        local worker — the hierarchical cluster agent
        (:class:`repro.distributed.worker.WorkerAgent`) fans each
        install/finalize message out through this.  Token bookkeeping is
        the caller's problem (the agent's dispatcher tracks tokens
        end-to-end; tracking them here too would double-count)."""
        self._broadcast(fn, payload)

    def finalize(
        self, fn: Callable[..., Any], payload: tuple[Any, ...] = ()
    ) -> list[Any] | None:
        if self._pool is not None:
            try:
                return self._broadcast(fn, payload)
            except Exception:
                # Finalize runs inside dispatchers' ``finally`` blocks:
                # a cleanup failure must not mask the sweep's own
                # exception.  _broadcast already recycled the pool, so
                # the stale worker state is gone with the processes.
                pass
        return None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            # reprolint: disable=bounded-blocking -- mp.Pool.join() takes
            # no timeout; close() stops intake so idle workers exit.
            self._pool.join()
            self._pool = None
        self._clear_tokens()
        self._token_pids.clear()
        self._streaming = False

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self._recycle()
        except Exception:
            pass


def make_executor(
    spec: str | Executor = "auto",
    n_workers: int = 1,
    start_method: str | None = None,
    pin: bool = False,
    hosts: str | Sequence[str] | None = None,
    transport: str = "socket",
) -> Executor:
    """Resolve an executor spec to a backend instance.

    ``"serial"`` always runs in-process; ``"pool"`` always builds a
    :class:`PoolExecutor` (even for one worker — useful in tests);
    ``"auto"`` picks serial for ``n_workers <= 1``, a pool otherwise —
    unless ``hosts`` is given, which routes ``"auto"`` to the cluster
    backend.  ``"cluster"`` always builds a
    :class:`~repro.distributed.cluster.ClusterExecutor` over the worker
    agents named by ``hosts`` (``"host:port,host:port"`` or a
    sequence), falling back to the ``REPRO_HOSTS`` environment
    variable; ``transport`` selects the wire protocol (``"socket"``).
    An :class:`Executor` instance passes through untouched
    (``pin``/``start_method``/``hosts`` are ignored for it; the
    instance's owner configured and closes it).  Spec-created executors
    are owned by the caller, who must close them.
    """
    if isinstance(spec, Executor):
        return spec
    if spec == "cluster" or (spec == "auto" and hosts):
        if hosts is None:
            hosts = os.environ.get("REPRO_HOSTS")
        if not hosts:
            raise ValueError(
                "executor='cluster' needs hosts (PicassoParams(hosts=...), "
                "--hosts, or the REPRO_HOSTS environment variable)"
            )
        # Imported lazily: repro.distributed builds on this module.
        from repro.distributed.cluster import make_cluster_executor

        return make_cluster_executor(hosts, transport)
    if spec == "serial":
        return SerialExecutor()
    if spec == "pool":
        return PoolExecutor(max(1, n_workers), start_method, pin=pin)
    if spec == "auto":
        if n_workers <= 1:
            return SerialExecutor()
        return PoolExecutor(n_workers, start_method, pin=pin)
    raise ValueError(f"unknown executor spec {spec!r}")


@contextmanager
def owned_executor(
    spec: str | Executor = "auto",
    n_workers: int = 1,
    start_method: str | None = None,
    pin: bool = False,
    hosts: str | Sequence[str] | None = None,
    transport: str = "socket",
) -> Iterator[Executor]:
    """The executor-lifecycle contract as a context manager.

    Resolves ``spec`` like :func:`make_executor` and, on exit, closes
    the backend *only if this call materialized it* — an
    :class:`Executor` instance passed through stays open for its owner.
    Every build function that accepts a spec-or-instance uses this one
    expression of the ownership rule instead of hand-rolling it.
    """
    ex = make_executor(spec, n_workers, start_method, pin, hosts, transport)
    try:
        yield ex
    finally:
        if ex is not spec:
            ex.close()
