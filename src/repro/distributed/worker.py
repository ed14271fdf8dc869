"""Worker host agent: serves install/imap/finalize RPCs over the transport.

One agent process runs per host (or per shard).  It owns no algorithm
logic of its own — RPCs name the *existing* worker task functions
(:func:`repro.parallel.pool.init_sweep_worker`, ``_run_strip``,
:func:`repro.parallel.pool.teardown_sweep_worker`) by pickle
reference, and the agent just calls them in-process.  Worker-global
state therefore behaves exactly as in a ``multiprocessing`` pool
worker: the token-cached static payload
(:data:`repro.parallel.pool._STATIC_CACHE`) survives between RPCs for
as long as the agent process lives, which is what makes delta installs
work across hosts, and :class:`~repro.parallel.pool.PayloadNotInstalled`
travels back to the dispatcher as itself so the one-shot full-install
retry of :func:`repro.parallel.pool.imap_sweep` fires unchanged.

RPC vocabulary (one pickled dict per request)::

    {"op": "install",  "fn": f, "payload": args}  -> {"ok": True}
    {"op": "imap",     "fn": f, "tasks": [...]}   -> one {"ok": True,
                                                    "result": r} per
                                                    task, in task order
    {"op": "finalize", "fn": f, "payload": args}  -> {"ok": True}
    {"op": "ping"}                                -> {"ok": True, ...}
    {"op": "shutdown"}                            -> {"ok": True}, stop

Failures reply ``{"ok": False, "error": exc, "traceback": str}`` — the
exception object itself when it pickles, a ``RuntimeError`` carrying
its repr otherwise — and the agent keeps serving.  ``imap`` streams
results as they finish so the dispatcher can interleave shards; a
dispatcher that abandons the stream (its socket closes) just aborts the
remaining tasks, and the agent goes back to accepting.

The agent serves one connection at a time: the cluster executor holds
one persistent connection per shard, mirroring the persistent pool.

With ``inner_workers > 1`` the agent is **hierarchical**: it wraps a
local persistent :class:`~repro.parallel.executor.PoolExecutor`, fans
installs out to every local worker, and streams imap results from the
pool — so every core on the host works while the transport crosses
hosts once per strip group.  The handshake advertises ``inner_workers``
as the shard's ``capacity``, which the dispatcher's weighted strip deal
consumes.

Run standalone on a real host with::

    python -m repro.distributed.worker --bind 0.0.0.0:7070
"""

from __future__ import annotations

import argparse
import socket
import sys
import traceback
import uuid

from repro import telemetry
from repro.distributed.transport import (
    RESULT_TIMEOUT_S,
    Connection,
    HandshakeError,
    TransportError,
    check_hello,
    recv_msg,
    send_msg,
    server_hello,
)

__all__ = ["WorkerAgent", "serve", "main"]

#: Block forever while idle between RPCs — nothing is in flight, so
#: there is nothing for a bound to protect.
_IDLE = float("inf")

#: Bound on result sends.  The dispatcher drains shards strictly in
#: task order and may legitimately sit on a *sibling* shard for up to
#: its per-result bound; until it comes back to us, our sends block on
#: TCP backpressure.  Matching the dispatcher's drain bound (not the
#: much shorter install bound) means backpressure alone can never kill
#: a healthy connection.
_SEND_BOUND = RESULT_TIMEOUT_S


class _Shutdown(Exception):
    """Raised inside the RPC loop by the shutdown op."""


def _safe_error(exc: BaseException) -> dict:
    """An error reply whose exception survives pickling.

    Library exceptions (``PayloadNotInstalled``, ``ValueError``, ...)
    pickle fine and are re-raised verbatim on the dispatcher; anything
    that does not pickle degrades to a ``RuntimeError`` with the repr,
    never to a dead connection.
    """
    import pickle

    try:
        pickle.dumps(exc)
        err: BaseException = exc
    except Exception:
        err = RuntimeError(f"{type(exc).__name__}: {exc!r}")
    return {"ok": False, "error": err, "traceback": traceback.format_exc()}


class WorkerAgent:
    """One host's RPC server over a listening socket.

    Parameters
    ----------
    host, port:
        Bind address.  Port 0 picks an ephemeral port (the loopback
        test harness); :attr:`port` reports the bound one.
        ``SO_REUSEADDR`` is set so a restarted agent can rebind the
        port of a killed predecessor immediately.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        inner_workers: int = 1,
    ) -> None:
        self.host = host
        #: Local worker processes behind this agent.  1 keeps the flat
        #: PR 5 agent (RPCs run in the agent process itself); > 1 makes
        #: the agent hierarchical — it wraps a local
        #: :class:`~repro.parallel.executor.PoolExecutor` so every core
        #: on the host works while the transport crosses hosts once per
        #: strip group.
        self.inner_workers = max(1, int(inner_workers))
        #: Fresh per agent process, never reused: a dispatcher that
        #: reconnects and sees a different incarnation knows every
        #: worker-side payload cache is gone.
        self.incarnation = uuid.uuid4().hex
        # The agent process is a telemetry "worker": its deltas (its
        # own spans plus the transport counters of the agent side)
        # drain into the finalize reply, never into a local exporter.
        telemetry.mark_worker_process()
        self._inner = None
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(4)
        self.port = self._listener.getsockname()[1]

    @property
    def capacity(self) -> int:
        """Strip-deal weight this shard advertises in its handshake."""
        return self.inner_workers

    def _inner_pool(self):
        """The lazy local pool of a hierarchical agent (None when flat)."""
        if self.inner_workers <= 1:
            return None
        if self._inner is None:
            from repro.parallel.executor import PoolExecutor

            self._inner = PoolExecutor(self.inner_workers)
        return self._inner

    # -- RPC handlers ----------------------------------------------------

    def _handle(self, conn: Connection, msg: dict) -> None:
        op = msg.get("op")
        inner = self._inner_pool()
        if op == "install" or op == "finalize":
            result = None
            try:
                if inner is not None:
                    # Fan the install out to every local worker.  A
                    # delta install against a recycled inner pool raises
                    # PayloadNotInstalled from the workers; it travels
                    # back verbatim and the dispatcher's one-shot
                    # full-install retry fires, exactly as for a
                    # restarted flat agent.
                    if op == "finalize":
                        # Finalize doubles as the telemetry piggyback:
                        # the inner workers' drained deltas fold into
                        # this agent's own (transport counters, agent
                        # spans) and ride the ack back to the
                        # dispatcher.
                        result = telemetry.combine_agent_snapshot(
                            inner.finalize(msg["fn"], msg.get("payload", ()))
                        )
                    else:
                        inner.broadcast(msg["fn"], msg.get("payload", ()))
                else:
                    ret = msg["fn"](*msg.get("payload", ()))
                    if op == "finalize":
                        result = ret
            except Exception as exc:
                # Exception, not BaseException: KeyboardInterrupt /
                # SystemExit must stop a standalone agent, not be
                # pickled into an error reply.
                conn.send(_safe_error(exc))
                return
            conn.send({"ok": True, "result": result})
        elif op == "imap":
            fn = msg["fn"]
            if inner is not None:
                self._imap_inner(conn, inner, fn, msg["tasks"])
                return
            for task in msg["tasks"]:
                try:
                    result = fn(task)
                except Exception as exc:
                    conn.send(_safe_error(exc), _SEND_BOUND)
                    return
                conn.send({"ok": True, "result": result}, _SEND_BOUND)
        elif op == "ping":
            conn.send(
                {"ok": True, **server_hello(self.incarnation, self.capacity)}
            )
        elif op == "shutdown":
            conn.send({"ok": True})
            raise _Shutdown
        else:
            conn.send(
                _safe_error(ValueError(f"unknown RPC op {op!r}"))
            )

    def _imap_inner(self, conn: Connection, inner, fn, tasks) -> None:
        """The hierarchical imap: strips run on the local pool, results
        stream back per-task in task order.

        A SIGKILLed inner worker surfaces (within the result bound) as
        the pool's typed :class:`~repro.parallel.executor.WorkerFailure`
        — which pickles — so the dispatcher sees the same exception
        family a dead flat agent produces and the supervisor's retry /
        failover machinery applies unchanged.  The inner pool has been
        recycled by then, so the retry's full install lands on fresh
        workers.
        """
        stream = inner.imap(fn, tasks)
        try:
            while True:
                try:
                    result = next(stream)
                except StopIteration:
                    return
                except Exception as exc:
                    conn.send(_safe_error(exc), _SEND_BOUND)
                    return
                conn.send({"ok": True, "result": result}, _SEND_BOUND)
        finally:
            # A dispatcher that vanished mid-stream (its send raised
            # TransportError past us) abandons the stream; closing it
            # triggers the pool's recycle-on-abandon so stale strips
            # never leak into the next sweep.  (Empty task lists come
            # back as a plain iterator with no close.)
            close = getattr(stream, "close", None)
            if close is not None:
                close()

    def _serve_connection(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_msg(sock, server_hello(self.incarnation, self.capacity))
        check_hello(recv_msg(sock))
        conn = Connection(sock)
        # The resilience suite's "drop" fault severs *this* connection
        # (mid-stream, deterministically) instead of killing the whole
        # agent; a no-op unless a fault is armed.
        from repro.resilience.faults import register_connection

        register_connection(conn)
        try:
            while True:
                msg = recv_msg(sock, _IDLE)
                self._handle(conn, msg)
        finally:
            register_connection(None)

    def serve_forever(self) -> None:
        """Accept loop: one connection served to completion at a time.

        A dispatcher that disconnects (sweep done, executor recycled,
        or died) drops the agent back into ``accept``; only an explicit
        shutdown RPC ends the loop.
        """
        try:
            while True:
                sock, _ = self._listener.accept()
                try:
                    self._serve_connection(sock)
                except _Shutdown:
                    return
                except (TransportError, HandshakeError, OSError):
                    # Peer gone or spoke garbage: this connection is
                    # done, the agent is fine.  In-flight per-sweep
                    # state is torn down by the next install.
                    pass
                finally:
                    sock.close()
        finally:
            self.close()

    def close(self) -> None:
        if self._inner is not None:
            try:
                self._inner.close()
            except Exception:  # pragma: no cover - close never matters
                pass
            self._inner = None
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close never matters
            pass


def serve(
    host: str = "127.0.0.1", port: int = 0, inner_workers: int = 1
) -> None:
    """Bind and serve until a shutdown RPC (blocking convenience)."""
    agent = WorkerAgent(host, port, inner_workers=inner_workers)
    # stderr, flushed: stdout may be captured by a launcher, and
    # operators (and tests) read the bound port through a pipe anyway.
    print(
        f"repro worker agent listening on {agent.host}:{agent.port}",
        file=sys.stderr,
        flush=True,
    )
    agent.serve_forever()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="repro distributed worker agent"
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="listen address (port 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--inner-workers",
        type=int,
        default=1,
        metavar="N",
        help="local worker processes behind this agent (default 1 = "
        "flat agent; > 1 wraps a local process pool and advertises N "
        "as the shard's strip-deal capacity)",
    )
    args = parser.parse_args(argv)
    host, _, port = args.bind.rpartition(":")
    serve(host or "127.0.0.1", int(port), inner_workers=args.inner_workers)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
