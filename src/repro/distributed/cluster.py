"""Multi-host execution backend: the ``Executor`` contract over sockets.

:class:`ClusterExecutor` is to a set of worker *agents*
(:mod:`repro.distributed.worker`) what
:class:`~repro.parallel.executor.PoolExecutor` is to a persistent
process pool — it implements the same submit/gather interface, so the
conflict-sweep dispatcher (:mod:`repro.parallel.pool`) shards across
hosts with **zero changes to its dispatch logic**:

- payloads install through a broadcast to every shard, recorded under
  one installed payload token exactly as on the pool — repeat sweeps
  ship only the sweep-plan delta;
- :meth:`holds_token` additionally pins the agent *incarnations* seen
  at install time (the socket analog of the pool's worker-pid pin): an
  agent restarted since the install has an empty payload cache, so the
  next install ships in full rather than stranding it —
  ``PayloadNotInstalled`` raised by a raced shard travels back verbatim
  and triggers the dispatcher's one-shot full-install retry;
- tasks are dealt **round-robin** over the shards and results are
  interleaved back into task order, so the concatenated chunk stream —
  and therefore the assembled CSR — is
  bit-identical to the serial backend's for any shard count;
- a broken broadcast, a shard that dies mid-strip, or an abandoned
  result stream **recycles** the connections (bounded by the
  ``REPRO_BROADCAST_TIMEOUT_S`` / ``REPRO_RESULT_TIMEOUT_S`` knobs the
  pool already honours) instead of hanging the dispatcher.

Results come home the one way they can cross hosts: the framed
result stream, which sends each strip's key array as a raw out-of-band
buffer (one memcpy, no per-element pickling).  It is the cluster's only
gather, as the pickled result pipe is the pool's.

Closing the executor closes its *connections* only; agent processes
are a host resource owned by whoever started them (the
:class:`~repro.distributed.local.LocalCluster` harness, an operator's
``python -m repro.distributed.worker`` on a real host).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator, Sequence
from typing import Any

from repro import telemetry
from repro.distributed.transport import (
    BROADCAST_TIMEOUT_S,
    RESULT_TIMEOUT_S,
    Connection,
    TransportError,
    connect,
    parse_hosts,
)
from repro.parallel.executor import Executor, WorkerFailure

__all__ = ["ClusterExecutor"]


class ClusterExecutor(Executor):
    """Socket-sharded execution backend over worker agents.

    Parameters
    ----------
    hosts:
        Agent addresses — ``"host:port,host:port"`` or an iterable of
        ``"host:port"`` / ``(host, port)``.  One shard per agent.
    connect_timeout_s, broadcast_timeout_s, result_timeout_s:
        Per-operation bounds; default to the pool's env-overridable
        ``REPRO_BROADCAST_TIMEOUT_S`` / ``REPRO_RESULT_TIMEOUT_S``
        knobs.
    redistribute:
        When an agent dies mid-sweep, re-deal its unfinished strips to
        the surviving agents and finish the sweep on them — instead of
        recycling the whole connection set and raising.  Off by
        default: without a supervisor (or an operator opting in) a
        death should stay loud.  The re-deal preserves canonical task
        order (results are buffered and yielded strictly in task
        order), so a sweep that lost an agent produces the
        bit-identical chunk stream.  After the sweep, the executor
        compacts itself to the survivors: later sweeps shard across
        what is actually alive.
    """

    supports_payload_cache = True
    #: Cluster shards absorb telemetry deltas under ``s0``, ``s1``, ...
    #: (a hierarchical agent's inner workers then nest as ``s1:w0``).
    telemetry_prefix = "s"

    def __init__(
        self,
        hosts,
        connect_timeout_s: float | None = None,
        broadcast_timeout_s: float | None = None,
        result_timeout_s: float | None = None,
        redistribute: bool = False,
    ) -> None:
        super().__init__()
        self.redistribute = redistribute
        self.hosts = parse_hosts(hosts)
        self.n_workers = len(self.hosts)
        self.connect_timeout_s = (
            BROADCAST_TIMEOUT_S if connect_timeout_s is None else connect_timeout_s
        )
        self.broadcast_timeout_s = (
            BROADCAST_TIMEOUT_S if broadcast_timeout_s is None else broadcast_timeout_s
        )
        self.result_timeout_s = (
            RESULT_TIMEOUT_S if result_timeout_s is None else result_timeout_s
        )
        self._conns: list[Connection] | None = None
        #: Agent incarnations at install time — a restarted agent
        #: invalidates the delta path.
        self._token_incarnations: list[str] | None = None
        self._streaming = False

    # -- connection lifecycle -------------------------------------------

    @property
    def connected(self) -> bool:
        """True while connections to every shard are live."""
        return self._conns is not None

    def worker_incarnations(self) -> list[str] | None:
        """Agent identities of the live connections (``None`` when not
        connected) — fresh per agent process, so a restart is visible
        even when the replacement reuses the host:port."""
        if self._conns is None:
            return None
        return [c.incarnation for c in self._conns]

    def _ensure_connected(self) -> list[Connection]:
        if self._conns is None:
            conns: list[Connection] = []
            try:
                for host, port in self.hosts:
                    conns.append(connect(host, port, self.connect_timeout_s))
            except BaseException:
                for c in conns:
                    c.close()
                raise
            self._conns = conns
            # A fresh connection epoch gives no guarantee about what a
            # previous dispatcher left in the agents' per-sweep state;
            # forget the token so the next install ships full (which
            # also clears stale worker state).
            self._forget_install()
        return self._conns

    def _recycle(self) -> None:
        if self._conns is not None:
            for c in self._conns:
                c.close()
            self._conns = None
        self._forget_install()
        self._streaming = False

    def _forget_install(self) -> None:
        self._installed_token = None
        self._token_incarnations = None

    def holds_token(self, token) -> bool:
        """A cluster additionally demands the agent set is unchanged:
        a restarted agent has an empty payload cache, so a delta-only
        install would strand it — any incarnation change (or no live
        connections) forces the next install to ship in full."""
        incs = self.worker_incarnations()
        return (
            super().holds_token(token)
            and incs is not None
            and incs == self._token_incarnations
        )

    def worker_capacities(self) -> list[int]:
        """Per-shard capacity as advertised in the agents' handshakes.

        A flat agent advertises 1; a hierarchical agent advertises its
        ``inner_workers``.  The weighted strip deal
        (:func:`repro.parallel.pool.sweep_strip_tasks`) consumes this
        to give bigger shards proportionally more pair weight while the
        positional ``tasks[k::n]`` deal stays untouched.  Connects on
        demand; agents predating the capacity field count as 1.
        """
        conns = self._ensure_connected()
        return [max(1, int(c.peer.get("capacity", 1))) for c in conns]

    # -- broadcast / stream ---------------------------------------------

    def _broadcast(
        self, fn: Callable, payload: tuple, op: str = "install"
    ) -> list[Any]:
        conns = self._ensure_connected()
        try:
            # Send to every shard first, then collect the acks: agents
            # drain their sockets promptly (they sit in recv between
            # RPCs), so the installs run concurrently across hosts
            # instead of serializing on each ack.
            for c in conns:
                c.send(
                    {"op": op, "fn": fn, "payload": payload},
                    self.broadcast_timeout_s,
                )
            replies = [c.recv(self.broadcast_timeout_s) for c in conns]
        except TransportError as exc:
            self._recycle()
            raise WorkerFailure(
                f"payload broadcast failed ({exc}) — a cluster worker "
                "likely died mid-install; the connections have been "
                "recycled"
            ) from None
        errors = [r["error"] for r in replies if not r.get("ok")]
        if errors:
            # The install failed on at least one shard; shards that
            # succeeded now hold state the failed ones do not — the
            # only consistent next step is a full re-install, so drop
            # the connections (and with them the token record) and
            # surface the first error verbatim (PayloadNotInstalled
            # included, which the dispatcher retries in full).
            self._recycle()
            raise errors[0]
        # Shard-order broadcast returns — the telemetry piggyback
        # channel (each agent's drained delta rides its finalize ack).
        return [r.get("result") for r in replies]

    def _stream(self, n_tasks: int) -> Iterator:
        conns = self._conns
        n = len(conns)
        done = False
        try:
            for k in range(n_tasks):
                conn = conns[k % n]
                try:
                    msg = conn.recv(self.result_timeout_s)
                except TransportError as exc:
                    raise WorkerFailure(
                        f"no result from shard {k % n} "
                        f"({self.hosts[k % n][0]}:{self.hosts[k % n][1]}) "
                        f"within {self.result_timeout_s:.0f}s ({exc}) — a "
                        "cluster worker likely died mid-strip; the "
                        "connections have been recycled"
                    ) from None
                if not msg.get("ok"):
                    raise msg["error"]
                yield msg["result"]
            done = True
        finally:
            self._streaming = False
            if not done:
                # Remaining results are churning toward a dead
                # iterator; drop the connections (agents abort their
                # task loops on the closed sockets) and start clean.
                self._recycle()

    # -- shard redistribution -------------------------------------------

    def _compact(self, dead: set) -> None:
        """Shrink to the surviving shards after a redistributed sweep.

        Connections, hosts and the recorded incarnation list all drop
        the dead indices in lockstep, so
        :meth:`holds_token` keeps answering True for the survivors —
        the next sweep ships only its delta to agents that really do
        still hold the static payload."""
        alive = [i for i in range(len(self._conns)) if i not in dead]
        before = len(self._conns)
        self._conns = [self._conns[i] for i in alive]
        self.hosts = tuple(self.hosts[i] for i in alive)
        self.n_workers = len(self._conns)
        incs = self._token_incarnations
        if incs is not None and len(incs) == before:
            self._token_incarnations = [incs[i] for i in alive]

    def _redistribute_dead(
        self, first_dead: int, tasks, task_fn, emissions, owner, dead
    ) -> None:
        """Re-deal a dead shard's unfinished strips to the survivors.

        An agent processes RPCs sequentially, so an ``imap`` op sent to
        a busy survivor queues in its socket and runs *after* its
        current emissions — a survivor's emission order is therefore
        its remaining deque plus whatever this re-deal appends, which
        the ``owner``/``emissions`` bookkeeping records exactly.  A
        survivor that dies while being handed work just joins the queue
        (its whole pending set, old and new, is re-dealt in turn); when
        no survivor remains the sweep is unrecoverable here and
        surfaces the classic bounded error for the supervisor."""
        conns = self._conns
        telemetry.count("cluster.redistribute")
        queue = [first_dead]
        while queue:
            c = queue.pop()
            if c not in dead:
                dead.add(c)
                conns[c].close()
            pending = list(emissions[c])
            emissions[c].clear()
            survivors = [i for i in range(len(conns)) if i not in dead]
            if not survivors:
                raise WorkerFailure(
                    "every cluster shard died mid-strip — no survivor "
                    "left to redistribute to; the connections have "
                    "been recycled"
                ) from None
            if not pending:
                continue
            # Round-robin over the survivors, in canonical index
            # order — deterministic, though any assignment would do:
            # order is restored dispatcher-side from ``owner``.
            assign: dict[int, list[int]] = {s: [] for s in survivors}
            for j, idx in enumerate(pending):
                assign[survivors[j % len(survivors)]].append(idx)
            for s, idxs in assign.items():
                if not idxs:
                    continue
                emissions[s].extend(idxs)
                for i in idxs:
                    owner[i] = s
                try:
                    conns[s].send(
                        {
                            "op": "imap",
                            "fn": task_fn,
                            "tasks": [tasks[i] for i in idxs],
                        },
                        self.broadcast_timeout_s,
                    )
                except TransportError:
                    if s not in queue:
                        queue.append(s)

    def _stream_redistributing(self, tasks, task_fn) -> Iterator:
        """Result stream that survives shard deaths: results are
        buffered out of emission order and yielded strictly in task
        order, so the chunk stream is bit-identical whether or not an
        agent died."""
        conns = self._conns
        n = len(conns)
        emissions = [deque(range(c, len(tasks), n)) for c in range(n)]
        owner = {idx: c for c in range(n) for idx in emissions[c]}
        dead: set = set()
        buffered: dict = {}
        done = False
        try:
            for k in range(len(tasks)):
                while k not in buffered:
                    c = owner[k]
                    try:
                        msg = conns[c].recv(self.result_timeout_s)
                    except TransportError:
                        self._redistribute_dead(
                            c, tasks, task_fn, emissions, owner, dead
                        )
                        continue
                    if not msg.get("ok"):
                        if isinstance(msg["error"], WorkerFailure):
                            # A hierarchical agent relaying its inner
                            # pool's typed failure: the shard's attempt
                            # is lost exactly as if the agent had died,
                            # so its strips redistribute the same way
                            # (the agent itself stays up — with a
                            # recycled inner pool — for later runs).
                            self._redistribute_dead(
                                c, tasks, task_fn, emissions, owner, dead
                            )
                            continue
                        raise msg["error"]
                    buffered[emissions[c].popleft()] = msg["result"]
                yield buffered.pop(k)
            done = True
        finally:
            self._streaming = False
            if not done:
                self._recycle()
            elif dead:
                self._compact(dead)

    # -- Executor contract ----------------------------------------------

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
        if self._streaming:
            raise RuntimeError(
                "ClusterExecutor does not support overlapping sweeps: "
                "finish, close, or abandon the previous result stream first"
            )
        conns = self._ensure_connected()
        if initializer is not None:
            self._broadcast(initializer, payload)
            self._installed_token = payload_token
            self._token_incarnations = self.worker_incarnations()
        n = len(conns)
        try:
            for k, conn in enumerate(conns):
                # Round-robin deal: shard k owns tasks k, k+n, k+2n...
                # Globally the i-th result is the (i // n)-th of shard
                # i % n, so interleaving reads in that order restores
                # exact task order — the determinism contract.
                shard = tasks[k::n]
                if shard:
                    conn.send(
                        {"op": "imap", "fn": task_fn, "tasks": shard},
                        self.broadcast_timeout_s,
                    )
        except TransportError as exc:
            self._recycle()
            raise WorkerFailure(
                f"task dispatch failed ({exc}) — a cluster worker died; "
                "the connections have been recycled"
            ) from None
        self._streaming = True
        if self.redistribute:
            return self._stream_redistributing(tasks, task_fn)
        return self._stream(len(tasks))

    def finalize(self, fn: Callable, payload: tuple = ()) -> list[Any] | None:
        if self._conns is not None:
            try:
                return self._broadcast(fn, payload, op="finalize")
            except Exception:
                # Finalize runs inside dispatchers' ``finally`` blocks:
                # a cleanup failure must not mask the sweep's own
                # exception.  _broadcast already recycled the
                # connections, so stale worker state is unreachable.
                pass
        return None

    def close(self) -> None:
        """Close the connections (agent processes stay up — they are
        owned by whoever started them).  Idempotent."""
        self._recycle()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self._recycle()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        addrs = ",".join(f"{h}:{p}" for h, p in self.hosts)
        return f"ClusterExecutor(hosts=[{addrs}])"
