"""Supervised execution: retry, then degrade, never hang — and never
change the answer.

PR 3/5 made every worker failure *bounded*: a dead pool worker, a
wedged agent, a broken install broadcast all surface as a typed error
within a timeout instead of hanging the dispatcher.  This module turns
that detection into recovery.  :class:`ResilientExecutor` wraps any
backend with the full :class:`~repro.parallel.executor.Executor`
contract and supervises each operation:

1. **retry** the failed sweep/round on the same backend with capped
   exponential backoff (the backend already recycled its broken
   workers/connections, so a retry lands on a fresh pool or fresh
   sockets);
2. after ``max_retries`` failures, **fail over** down a configured
   degradation chain — canonically cluster → pool → serial — and
   replay there.

Both paths preserve the library's bit-identity contract for free, by
construction: every backend yields results *in canonical task order*,
and the tasks themselves are pure functions of (payload, task).  The
supervisor counts how many results each operation already yielded and
resubmits only the *remaining* tasks, so the concatenated stream the
consumer sees is exactly the uninterrupted stream — whichever backend
produced which half.

Payload re-installation is the subtle part.  A delta payload built
against the dead backend's token cache is useless on the replacement,
so the supervisor re-materializes the payload on every attempt: callers
that go through :func:`repro.parallel.pool.imap_delta_install` are
routed to :meth:`ResilientExecutor.imap_with_payload`, whose
``make_payload`` closure consults :meth:`holds_token` — which the
supervisor delegates to the *current* backend, where a recycled pool or
a fresh fallback holds nothing, so the rebuild comes out full on its
own.  Plain ``imap`` payloads are self-contained and simply re-sent.

What is *not* retried: a task function raising an ordinary exception is
an application error, not a worker failure — it propagates on the first
attempt, exactly as without the supervisor.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable, Hashable, Iterator, Sequence
from typing import Any

from repro import telemetry
from repro.distributed.transport import TransportError
from repro.parallel.executor import (
    Executor,
    WorkerFailure,
    make_executor,
)
from repro.parallel.pool import PayloadNotInstalled
from repro.resilience.faults import FaultInjected

__all__ = [
    "ResilientExecutor",
    "supervised_executor",
    "FAILOVER_SPECS",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_BACKOFF_BASE_S",
]

#: Retries per backend before failing over (or giving up), overridable
#: via ``REPRO_MAX_RETRIES``.
DEFAULT_MAX_RETRIES = int(os.environ.get("REPRO_MAX_RETRIES", "2"))

#: First-retry sleep; doubles per retry, capped at
#: :data:`BACKOFF_CAP_S`.  Overridable via ``REPRO_BACKOFF_BASE_S``.
DEFAULT_BACKOFF_BASE_S = float(os.environ.get("REPRO_BACKOFF_BASE_S", "0.25"))

#: Upper bound on any single backoff sleep.
BACKOFF_CAP_S = 30.0

#: Executor specs allowed in a failover chain.
FAILOVER_SPECS = ("cluster", "pool", "serial")

#: The failures recovery is allowed to touch: the bounded
#: worker-failure family (pool timeouts, cluster deaths, broken
#: broadcasts), the delta-install respawn race, its barrier-side alias,
#: raw transport faults, and the injected stand-in used by the
#: resilience tests.  Everything else is an application error and
#: propagates untouched.
RECOVERABLE = (
    WorkerFailure,
    PayloadNotInstalled,
    threading.BrokenBarrierError,
    TransportError,
    FaultInjected,
)


class _OpState:
    """Per-operation progress: results already yielded, retries spent
    on the current backend, recoveries over the operation's lifetime
    (the retry budget resets on failover; the recovery count never
    does — it is what marks a submission as a re-attempt)."""

    __slots__ = ("done", "attempt", "recoveries")

    def __init__(self) -> None:
        self.done = 0
        self.attempt = 0
        self.recoveries = 0


class ResilientExecutor(Executor):
    """Executor wrapper adding retry + failover supervision.

    Parameters
    ----------
    inner:
        The primary backend.  The supervisor owns it (and every
        fallback it later builds): :meth:`close` closes whichever
        backend is current.
    fallbacks:
        Zero-arg factories, tried in order after the current backend
        exhausts its retries.  Lazy on purpose — a pool fallback forks
        no workers until the cluster actually fails.
    max_retries:
        Failures tolerated per backend per operation before failing
        over; the chain's last backend raises instead.
    backoff_base_s:
        Sleep before retry ``k`` is ``backoff_base_s * 2**(k-1)``,
        capped at :data:`BACKOFF_CAP_S`.
    """

    def __init__(
        self,
        inner: Executor,
        fallbacks: Sequence[Callable[[], Executor]] = (),
        max_retries: int | None = None,
        backoff_base_s: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__()
        self._inner = inner
        self._fallbacks = list(fallbacks)
        self.max_retries = (
            DEFAULT_MAX_RETRIES if max_retries is None else max_retries
        )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.backoff_base_s = (
            DEFAULT_BACKOFF_BASE_S if backoff_base_s is None else backoff_base_s
        )
        self._sleep = sleep
        #: Recovery trail: ``("retry" | "failover", backend_repr,
        #: error_str)`` per recovery action — what the resilience tests
        #: assert on, and what a post-mortem reads.
        self.events: list[tuple[str, str, str]] = []

    # -- delegation ------------------------------------------------------

    @property
    def inner(self) -> Executor:
        """The currently supervised backend."""
        return self._inner

    @property
    def n_workers(self) -> int:  # type: ignore[override]
        return self._inner.n_workers

    @property
    def supports_payload_cache(self) -> bool:  # type: ignore[override]
        return self._inner.supports_payload_cache

    def holds_token(self, token: Hashable) -> bool:
        # Delegated, not tracked locally: after a recycle or failover
        # the *current* backend holds nothing, which is exactly what
        # makes delta-aware payload builders come out full on retry.
        return self._inner.holds_token(token)

    def worker_capacities(self) -> list[int]:
        try:
            return self._inner.worker_capacities()
        except RECOVERABLE:
            # Capacity probing may dial the shards; a dead one must not
            # fail the sweep here — the unweighted deal is always
            # correct, and the real submit path retries properly.
            return [1] * self._inner.n_workers

    @property
    def telemetry_prefix(self) -> str:  # type: ignore[override]
        # Absorbed worker deltas keep the slot naming of whichever
        # backend is current ("s" for a cluster, "w" for a pool).
        return getattr(self._inner, "telemetry_prefix", "w")

    def finalize(
        self, fn: Callable[..., Any], payload: tuple[Any, ...] = ()
    ) -> list[Any] | None:
        try:
            return self._inner.finalize(fn, payload)
        except RECOVERABLE:
            # Cleanup on a dying backend: the state it would have
            # cleared dies with the workers, and finalize runs inside
            # callers' ``finally`` blocks where a secondary raise would
            # mask the real error.
            return None

    def close(self) -> None:
        self._inner.close()

    # -- supervision core ------------------------------------------------

    def _advance(self) -> bool:
        """Fail over to the next backend in the chain; False when the
        chain is exhausted (caller re-raises the last error)."""
        if not self._fallbacks:
            return False
        try:
            self._inner.close()
        except Exception:
            pass
        self._inner = self._fallbacks.pop(0)()
        return True

    def _after_failure(self, exc: BaseException, state: _OpState) -> None:
        """Bookkeeping between attempts: backoff while retries remain
        on this backend, fail over when they run out, re-raise ``exc``
        when the chain is spent."""
        state.attempt += 1
        state.recoveries += 1
        if state.attempt > self.max_retries:
            if not self._advance():
                raise exc
            telemetry.count("resilience.failover")
            self.events.append(
                ("failover", repr(self._inner), str(exc))
            )
            state.attempt = 0
            return
        telemetry.count("resilience.retry")
        self.events.append(("retry", repr(self._inner), str(exc)))
        delay = min(
            BACKOFF_CAP_S, self.backoff_base_s * (2 ** (state.attempt - 1))
        )
        if delay > 0:
            self._sleep(delay)

    def _submit(
        self,
        tasks: list[Any],
        submit: Callable[..., Iterator[Any]],
        state: _OpState,
    ) -> Iterator[Any]:
        """One successful submission of the remaining tasks (the
        install/dispatch half of an operation, which the Executor
        contract makes eager)."""
        while True:
            try:
                return submit(
                    self._inner, tasks[state.done :], state.recoveries > 0
                )
            except RECOVERABLE as exc:
                self._after_failure(exc, state)

    def _supervised(
        self, tasks: list[Any], submit: Callable[..., Iterator[Any]]
    ) -> Iterator[Any]:
        state = _OpState()
        stream = self._submit(tasks, submit, state)

        def results() -> Iterator[Any]:
            nonlocal stream
            while True:
                try:
                    for item in stream:
                        yield item
                        state.done += 1
                    return
                except RECOVERABLE as exc:
                    # Mid-stream death: the backend recycled itself;
                    # resubmit only what has not been yielded yet.
                    # Results are pure and order-preserved, so the
                    # spliced stream equals the uninterrupted one.
                    self._after_failure(exc, state)
                    stream = self._submit(tasks, submit, state)

        return results()

    # -- Executor contract -----------------------------------------------

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

        def submit(
            inner: Executor, remaining: list[Any], _retrying: bool
        ) -> Iterator[Any]:
            # A plain payload is self-contained (no delta against a
            # worker-side cache), so every attempt re-sends it as-is.
            return inner.imap(
                task_fn, remaining, initializer=initializer,
                payload=payload, payload_token=payload_token,
            )

        return self._supervised(tasks, submit)

    def imap_with_payload(
        self,
        task_fn: Callable[..., Any],
        tasks: Sequence[Any],
        initializer: Callable[..., Any],
        make_payload: Callable[[bool], tuple[Any, Hashable, bool]],
    ) -> Iterator[Any]:
        """The supervised form of
        :func:`repro.parallel.pool.imap_delta_install`: the payload is
        re-materialized via ``make_payload`` on every attempt, so a
        retry or failover never replays a delta built against a backend
        that no longer caches its static half.

        ``make_payload(force_full)`` returns ``(payload, token,
        is_full)``; ``force_full`` is True on every attempt after the
        first.  Builders that size the payload off
        :meth:`holds_token` (the sweep path) come out full on retry
        even without the flag, since the failed backend dropped its
        tokens when it recycled.
        """
        tasks = list(tasks)
        if not tasks:
            return iter(())

        def submit(
            inner: Executor, remaining: list[Any], retrying: bool
        ) -> Iterator[Any]:
            payload, token, _ = make_payload(bool(retrying))
            return inner.imap(
                task_fn, remaining, initializer=initializer,
                payload=(payload,), payload_token=token,
            )

        return self._supervised(tasks, submit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        chain = "+" + str(len(self._fallbacks)) if self._fallbacks else ""
        return f"ResilientExecutor({self._inner!r}{chain})"


def _parse_chain(failover: str | Sequence[str] | None) -> list[str]:
    if failover is None:
        return []
    if isinstance(failover, str):
        entries = [e for e in (p.strip() for p in failover.split(",")) if e]
    else:
        entries = [str(e) for e in failover]
    for e in entries:
        if e not in FAILOVER_SPECS:
            raise ValueError(
                f"unknown failover spec {e!r} (available: {FAILOVER_SPECS})"
            )
    return entries


def supervised_executor(
    spec: str | Executor = "auto",
    n_workers: int = 1,
    start_method: str | None = None,
    pin: bool = False,
    hosts: str | Sequence[str] | None = None,
    transport: str = "socket",
    failover: str | Sequence[str] | None = None,
    max_retries: int | None = None,
    backoff_base_s: float | None = None,
) -> Executor:
    """:func:`~repro.parallel.executor.make_executor` plus supervision.

    Builds the primary backend from ``spec`` and, when supervision is
    requested (``failover`` names a degradation chain and/or
    ``max_retries`` is set), wraps it in a
    :class:`ResilientExecutor` whose fallbacks are built lazily from
    the ``failover`` entries (``"cluster"``, ``"pool"``, ``"serial"``,
    comma-separated string or sequence) with the same construction
    knobs.  With neither knob set, the bare backend comes back and
    behavior is exactly pre-supervision.

    The caller owns the returned executor either way and must close it.
    """
    chain = _parse_chain(failover)
    if not chain and max_retries is None:
        return make_executor(
            spec, n_workers, start_method, pin, hosts, transport
        )

    def build(entry: str | Executor) -> Executor:
        ex = make_executor(
            entry, n_workers, start_method, pin, hosts, transport
        )
        # Under supervision a cluster backend redistributes a dead
        # agent's strips to the survivors first; only when that is
        # impossible (no survivors, dispatch/install failure) does the
        # failure reach the supervisor's retry/failover machinery.
        if hasattr(ex, "redistribute"):
            setattr(ex, "redistribute", True)
        return ex

    return ResilientExecutor(
        build(spec),
        [(lambda e=e: build(e)) for e in chain],
        max_retries=max_retries,
        backoff_base_s=backoff_base_s,
    )
