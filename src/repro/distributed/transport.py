"""Length-prefixed socket transport for multi-host execution.

The wire format is deliberately thin: one *message* is a pickled
Python object (protocol 5) whose NumPy arrays travel **out of band** as
raw buffers — ``pickle`` emits a :class:`pickle.PickleBuffer` per
C-contiguous array instead of copying it into the pickle stream, and
the frame carries those buffers verbatim after the (small) object
pickle.  No msgpack, no base64, no per-element encoding: a strip's hit
arrays or a round's forbidden-word delta cross the socket at memcpy
cost.

Frame layout (all integers big-endian)::

    u32   number of out-of-band buffers  (B)
    u64   pickle byte count              (P)
    P  bytes   object pickle
    B times:
        u64  buffer byte count  (L)
        L bytes  raw buffer

Buffers are received into ``bytearray`` so reconstructed arrays are
writable, matching what a worker gets from the in-band pickling of the
process-pool path.

Every connection starts with a **handshake**: the server sends
``{magic, version, pid, incarnation}``, the client checks both fields
and answers with its own ``{magic, version}``.  A version or magic
mismatch raises :class:`HandshakeError` on whichever side saw it — two
builds of the library can never silently exchange frames.  The
``incarnation`` (fresh per agent process) is how the cluster executor
detects a restarted worker whose payload cache is gone, the socket
analog of :meth:`repro.parallel.executor.PoolExecutor.worker_pids`.

Send/recv are **bounded**: every blocking socket operation runs under a
timeout, reusing the knobs of the single-host pool — installs and
handshakes wait at most ``REPRO_BROADCAST_TIMEOUT_S``
(:data:`repro.parallel.executor.BROADCAST_TIMEOUT_S`), per-result waits
at most ``REPRO_RESULT_TIMEOUT_S``
(:data:`repro.parallel.executor.RESULT_TIMEOUT_S`) — so a peer that
died mid-round surfaces as a :class:`TransportError` within the bound
instead of hanging the dispatcher forever.
"""

from __future__ import annotations

import pickle
import socket
import struct

from repro import telemetry
from repro.parallel.executor import BROADCAST_TIMEOUT_S, RESULT_TIMEOUT_S

__all__ = [
    "PROTOCOL_VERSION",
    "TransportError",
    "HandshakeError",
    "TransportVersionError",
    "Connection",
    "connect",
    "send_msg",
    "recv_msg",
]

#: Bumped whenever the frame layout or the RPC vocabulary changes; the
#: handshake rejects any mismatch.
PROTOCOL_VERSION = 1

#: Frame sentinel — catches a non-repro peer (or a desynced stream)
#: before any pickle bytes are interpreted.
MAGIC = b"RPDX"

_HEADER = struct.Struct("!4sIQ")  # magic, n_buffers, pickle_len
_BUFLEN = struct.Struct("!Q")

#: Bytes per ``socket.recv`` call while draining a frame.
_RECV_CHUNK = 1 << 20


class TransportError(RuntimeError):
    """A socket operation failed or timed out — the peer is gone,
    wedged past its bound, or speaking a different protocol."""


class HandshakeError(TransportError):
    """The peer answered the handshake with the wrong magic/version."""


class TransportVersionError(HandshakeError):
    """The peer is a repro worker agent, but speaks a different
    protocol version — a build-skew error, not a wiring error, so it
    gets its own type (and carries both versions) for callers that want
    to report "upgrade one side" rather than "check your hosts list".
    """

    def __init__(self, peer_version, local_version) -> None:
        super().__init__(
            f"protocol version mismatch: peer speaks {peer_version!r}, "
            f"this build speaks {local_version!r} — upgrade one side"
        )
        self.peer_version = peer_version
        self.local_version = local_version

    def __reduce__(self):
        # Default exception pickling would replay the formatted message
        # into the two-argument constructor; rebuild from the versions.
        return (TransportVersionError, (self.peer_version, self.local_version))


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes (into a mutable buffer) or raise.

    EOF mid-frame means the peer died or closed on us; a socket timeout
    means it exceeded its bound.  Both surface as
    :class:`TransportError` so callers have one failure type to map to
    "recycle the cluster".
    """
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            k = sock.recv_into(view[got:], min(n - got, _RECV_CHUNK))
        except socket.timeout:
            raise TransportError(
                f"socket recv timed out after {sock.gettimeout():.0f}s "
                "— the peer is wedged or died mid-frame"
            ) from None
        except OSError as exc:
            raise TransportError(f"socket recv failed: {exc}") from None
        if k == 0:
            raise TransportError("peer closed the connection mid-frame")
        got += k
    return buf


#: Buffers below this size are coalesced into the control bytes (one
#: syscall beats one memcpy at this scale); larger ones go to the
#: socket directly, zero-copy.
_COALESCE_BYTES = 1 << 16


def send_msg(sock: socket.socket, obj, timeout: float | None = None) -> None:
    """Send one framed message; NumPy buffers go raw, out of band.

    Large buffers are handed to ``sendall`` as-is — the frame never
    concatenates them into a fresh bytes object, so a strip's multi-MB
    hit arrays cross at memcpy cost exactly once (kernel copy), not
    twice.  Small buffers coalesce with the control bytes instead,
    keeping the syscall count low for chatty messages.
    """
    buffers: list[pickle.PickleBuffer] = []
    payload = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    sock.settimeout(timeout if timeout is not None else BROADCAST_TIMEOUT_S)
    small = bytearray(_HEADER.pack(MAGIC, len(buffers), len(payload)))
    small += payload
    frame_bytes = len(small)
    try:
        for buf in buffers:
            raw = buf.raw()
            frame_bytes += _BUFLEN.size + raw.nbytes
            small += _BUFLEN.pack(raw.nbytes)
            if raw.nbytes >= _COALESCE_BYTES:
                sock.sendall(small)
                small = bytearray()
                sock.sendall(raw)
            else:
                small += raw
        if small:
            sock.sendall(small)
        telemetry.count("transport.frames_sent")
        telemetry.count("transport.bytes_sent", float(frame_bytes))
    except socket.timeout:
        raise TransportError(
            "socket send timed out — the peer stopped draining its socket"
        ) from None
    except OSError as exc:
        raise TransportError(f"socket send failed: {exc}") from None


def recv_msg(sock: socket.socket, timeout: float | None = None):
    """Receive one framed message; out-of-band buffers come back as
    writable ``bytearray``-backed arrays.

    ``timeout=None`` applies the default result bound;
    ``float("inf")`` blocks forever (an idle agent waiting for its next
    RPC — the one legitimate unbounded wait, since nothing is in
    flight).
    """
    bound = RESULT_TIMEOUT_S if timeout is None else timeout
    sock.settimeout(None if bound == float("inf") else bound)
    magic, n_buffers, pickle_len = _HEADER.unpack(
        _recv_exact(sock, _HEADER.size)
    )
    if magic != MAGIC:
        raise TransportError(
            f"bad frame magic {magic!r} — peer is not a repro transport "
            "or the stream desynced"
        )
    payload = _recv_exact(sock, pickle_len)
    frame_bytes = _HEADER.size + pickle_len
    bufs = []
    for _ in range(n_buffers):
        (blen,) = _BUFLEN.unpack(_recv_exact(sock, _BUFLEN.size))
        bufs.append(_recv_exact(sock, blen))
        frame_bytes += _BUFLEN.size + blen
    telemetry.count("transport.frames_recv")
    telemetry.count("transport.bytes_recv", float(frame_bytes))
    return pickle.loads(bytes(payload), buffers=bufs)


class Connection:
    """One framed, handshaken socket to a worker agent.

    Thin object wrapper over :func:`send_msg`/:func:`recv_msg` holding
    the peer identity the handshake reported (``pid``,
    ``incarnation``) — the cluster executor keys its token-validity
    check on the incarnation.
    """

    def __init__(self, sock: socket.socket, peer: dict | None = None) -> None:
        self.sock = sock
        self.peer = peer or {}

    @property
    def incarnation(self) -> str | None:
        """The agent process identity from the handshake (fresh per
        agent start, never reused) — a changed incarnation means the
        worker-side payload caches are gone."""
        return self.peer.get("incarnation")

    def send(self, obj, timeout: float | None = None) -> None:
        send_msg(self.sock, obj, timeout)

    def recv(self, timeout: float | None = None):
        return recv_msg(self.sock, timeout)

    def request(self, obj, timeout: float | None = None):
        """Send one message and wait (bounded) for one reply."""
        self.send(obj, timeout)
        return self.recv(timeout)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close never matters
            pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def server_hello(incarnation: str, capacity: int = 1) -> dict:
    """The greeting an agent sends on every accepted connection.

    ``capacity`` advertises how many local worker processes sit behind
    the agent (1 for the flat agent, ``inner_workers`` for the
    hierarchical one) so the dispatcher's weighted strip deal can size
    this shard's share.  Extra keys are handshake-compatible:
    :func:`check_hello` validates only magic and version, so an old
    client simply ignores the field.
    """
    import os

    return {
        "magic": MAGIC,
        "version": PROTOCOL_VERSION,
        "pid": os.getpid(),
        "incarnation": incarnation,
        "capacity": int(capacity),
    }


def check_hello(hello) -> dict:
    """Validate a handshake message; returns it, raises on mismatch."""
    if not isinstance(hello, dict) or hello.get("magic") != MAGIC:
        raise HandshakeError(f"peer is not a repro worker agent: {hello!r}")
    if hello.get("version") != PROTOCOL_VERSION:
        raise TransportVersionError(hello.get("version"), PROTOCOL_VERSION)
    return hello


def connect(
    host: str, port: int, timeout: float | None = None
) -> Connection:
    """Dial a worker agent and run the client half of the handshake."""
    bound = timeout if timeout is not None else BROADCAST_TIMEOUT_S
    try:
        sock = socket.create_connection((host, port), timeout=bound)
    except OSError as exc:
        raise TransportError(
            f"cannot connect to worker agent {host}:{port}: {exc}"
        ) from None
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        peer = check_hello(recv_msg(sock, bound))
        send_msg(sock, {"magic": MAGIC, "version": PROTOCOL_VERSION}, bound)
    except BaseException:
        sock.close()
        raise
    return Connection(sock, peer)


def parse_hosts(hosts) -> tuple[tuple[str, int], ...]:
    """Normalize a hosts spec to ``((host, port), ...)``.

    Accepts a comma-separated ``"host:port,host:port"`` string (the CLI
    / ``REPRO_HOSTS`` form) or any iterable of ``"host:port"`` strings
    or ``(host, port)`` pairs.
    """
    if isinstance(hosts, str):
        hosts = [h for h in (part.strip() for part in hosts.split(",")) if h]
    out: list[tuple[str, int]] = []
    for h in hosts:
        if isinstance(h, str):
            host, sep, port = h.rpartition(":")
            if not sep or not host:
                raise ValueError(
                    f"host spec {h!r} is not of the form host:port"
                )
            out.append((host, int(port)))
        else:
            host, port = h
            out.append((str(host), int(port)))
    if not out:
        raise ValueError("empty hosts list")
    seen = set()
    for host, port in out:
        if (host, port) in seen:
            raise ValueError(
                f"duplicate host {host}:{port} in hosts list — each entry "
                "is one shard, so a repeated address would double-deal "
                "tasks to the same agent (and double-count it as a worker)"
            )
        seen.add((host, port))
    return tuple(out)
