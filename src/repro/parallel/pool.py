"""Unified parallel pair-sweep dispatch over execution backends.

The paper provides "a sequential and a parallel implementation" (§I);
its CPU parallelism is shared-memory threads over pair chunks.  Python
processes substitute for threads (the GIL rules those out for compute).
This module is the seam where every conflict/graph sweep meets an
:class:`~repro.parallel.executor.Executor`.  :func:`sweep_plan` picks
one of two plans per sweep, and each worker task sweeps one row range
of it and returns one array of CSR keys:

- the inverted palette index's row ranges are its row blocks, balanced
  by exact candidate counts;
- under the ``rows`` plan the row ranges have equal pair weight, and
  each is swept in row strips of the block oracle ANDed with the
  palette test, or of the palette test's survivors through the
  pairwise oracle (:func:`repro.device.tiles.sweep_strips`); the
  palette test is skipped when every pair shares a color (``L = P``).

Payload shipping is two-tier for the persistent pool.  The payload is
split into a **static** part (the edge source / oracle — constant
across Algorithm 1 iterations when the caller passes the *root*
``source``) and a per-sweep **delta** (the palette index under the
index plan, the packed palette bitsets under the ``rows`` plan, the
active-vertex indices and the strip height).  The static part
is installed once under a token and cached worker-side; while the pool
lives and the token matches, later sweeps ship only the delta.
Workers derive the iteration's edge oracle from the cached root source
and the active indices, which reproduces the dispatcher's own subset
construction exactly.  Strips carry the same hit set as the serial
sweep, and the sort-key CSR assembly
(:func:`repro.graphs.csr.csr_from_coo_chunks`) depends on the edge set
alone, not on strip order, so it produces **bit-identical graphs** for
serial and parallel builds per seed.

Hits are CSR keys (:func:`repro.graphs.csr.key_layout`, 4 bytes per
edge up to 32,768 vertices) from the worker through the gather to the
assembly.  Key arrays travel back pickled through the executor's result
stream, the one gather path: one worker sweep task,
:func:`_run_strip`, and one stream, :func:`conflict_sweep_chunks`,
which every sweep (a CSR build, a count, detection's sweep) drains.

Per-sweep worker state (plan, bitsets, derived oracle) is
cleared in a ``finally`` on the dispatcher side after every sweep —
both in-process and, for pools, via a teardown broadcast — so large
arrays never stay alive between builds.  Only the token-cached static
payload survives, by design, until the executor closes.

On a single-core box this demonstrates correctness, not speedup; the
Table V speedup comes from the vectorized kernels instead.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections.abc import Iterator
from contextlib import closing

import numpy as np

from repro import telemetry
from repro.device.palette_index import PaletteIndex, all_pairs_share, pair_blocks, prefers_index
from repro.device.tiles import EdgeBlockFn, concat_hits, strip_height, sweep_strips
from repro.graphs.csr import CSRGraph, csr_from_coo_chunks
from repro.parallel.executor import Executor, SerialExecutor
from repro.resilience.faults import fault_point
from repro.util.bits import bitset_from_lists

__all__ = [
    "conflict_sweep_chunks",
    "gathered_conflict_csr",
    "block_sweep_chunks",
    "payload_token_for",
    "PayloadNotInstalled",
    "TASKS_PER_WORKER",
    "strip_shares",
    "finalize_sweep",
]


class PayloadNotInstalled(RuntimeError):
    """A delta-only install reached a worker without the cached static
    payload (it was auto-respawned after dying) — the one install
    failure that is mechanically recoverable by re-sending in full."""

#: Tasks handed to the pool per worker: a few strips each so stragglers
#: (denser strips, busier cores) rebalance through the pool queue.
TASKS_PER_WORKER = 4

# Worker-global per-sweep state, installed by the payload initializer
# and cleared by :func:`teardown_sweep_worker` when the sweep ends.
_WORKER: dict = {}

# Worker-global static-payload cache: one entry, keyed by the payload
# token.  Holds the root edge source across
# sweeps of a persistent pool so repeat installs can ship only the
# delta.  Replaced on the next full install; dies with the pool.
_STATIC_CACHE: dict = {}

# Dispatcher-side token registry: every source object gets one stable
# token for its lifetime; tokens are never reused (a dead source's
# entry vanishes with it and the counter only moves forward), so a
# stale worker cache can never be mistaken for the current payload.
_TOKEN_COUNTER = itertools.count(1)
_SOURCE_TOKENS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def payload_token_for(source) -> int:
    """Stable install token for a root edge source object."""
    token = _SOURCE_TOKENS.get(source)
    if token is None:
        token = next(_TOKEN_COUNTER)
        _SOURCE_TOKENS[source] = token
    return token


def sweep_payload(
    n: int,
    height: int | None,
    colmasks: np.ndarray | None,
    edge_mask_fn,
    edge_block_fn,
    source=None,
    active_idx: np.ndarray | None = None,
    executor: Executor | None = None,
    plan: PaletteIndex | str = "rows",
) -> tuple[dict, int | None]:
    """Build the install payload and its token for one sweep.

    With a ``source`` and a cache-capable executor the static part is
    the *root* source; when the executor still holds the token, the
    static part is elided and only the delta (plan, bitsets, active
    indices, strip height) ships.  Without a source the edge functions
    themselves are the static part and every install is a full one
    (token ``None``).

    ``plan``, ``height`` and ``colmasks`` come from :func:`sweep_plan`;
    they ship in the delta, so workers run row blocks without
    rebuilding an index.
    """
    delta = {
        "n": n,
        "height": height,
        "colmasks": colmasks,
        "active_idx": active_idx,
        "plan": plan,
    }
    if source is not None and executor is not None and executor.supports_payload_cache:
        # Telemetry rides the token: a worker that cached a static
        # payload without the recording flag must take a full install
        # when recording turns on (and vice versa), or it would keep
        # running under the stale flag.  Neutral either way — the flag
        # never touches the numerics.
        token = (payload_token_for(source), telemetry.enabled())
        static = {
            "source": source,
            "edge_mask_fn": None,
            "edge_block_fn": None,
            "telemetry": telemetry.enabled(),
        }
        if executor.holds_token(token):
            static = None
        telemetry.count(
            "pool.install.delta" if static is None else "pool.install.full"
        )
        return {"token": token, "static": static, "delta": delta}, token
    static = {
        "source": source,
        "edge_mask_fn": edge_mask_fn if source is None else None,
        "edge_block_fn": edge_block_fn if source is None else None,
        "telemetry": telemetry.enabled(),
    }
    telemetry.count("pool.install.full")
    return {"token": None, "static": static, "delta": delta}, None


def imap_sweep(executor: Executor, task_fn, tasks, payload_args: dict):
    """Install a sweep payload and stream the tasks, retrying once on
    the delta-install respawn race.

    ``holds_token`` is checked when the payload is built, but a worker
    can die (and be auto-respawned with an empty cache) before the
    broadcast lands; the stranded worker then raises
    :class:`PayloadNotInstalled` and the broadcast recycles the pool.
    Because an install has no side effects beyond worker state, the
    recovery is mechanical: rebuild the payload (a recycled pool no
    longer holds the token, so :func:`sweep_payload` comes out full on
    its own) and submit once more.  The failure may also surface as a
    *peer's* ``BrokenBarrierError`` (the stranded worker aborts the
    install barrier, and whichever error the pool reports wins), so
    both count as the respawn race — but only for a delta-only
    install; a failure on a *full* install is a real error and
    propagates.

    A supervised executor
    (:class:`repro.resilience.supervisor.ResilientExecutor`) exposes
    ``imap_with_payload`` and takes over the whole protocol — it must
    re-materialize the payload on *every* retry/failover, not just
    once, so the delta decision is made against whichever backend is
    current.
    """

    def make_payload(force_full: bool):
        # Full-ness is decided by sweep_payload via holds_token; after
        # the respawn race recycled the pool the token is gone, so the
        # rebuild comes out full without needing the flag.
        payload, token = sweep_payload(**payload_args)
        return payload, token, payload["static"] is not None

    supervised = getattr(executor, "imap_with_payload", None)
    if supervised is not None:
        return supervised(task_fn, tasks, init_sweep_worker, make_payload)
    payload, token, is_full = make_payload(False)
    try:
        return executor.imap(
            task_fn, tasks, initializer=init_sweep_worker,
            payload=(payload,), payload_token=token,
        )
    except (PayloadNotInstalled, threading.BrokenBarrierError):
        if is_full:
            raise
        payload, token, _ = make_payload(True)
        return executor.imap(
            task_fn, tasks, initializer=init_sweep_worker,
            payload=(payload,), payload_token=token,
        )


def init_sweep_worker(payload: dict) -> None:
    """Install a sweep payload; derive the per-worker oracle.

    A payload whose ``static`` part is ``None`` reuses the worker's
    token-cached static payload (the delta-only install of a persistent
    pool).  The previous sweep's state is dropped first.
    """
    token = payload["token"]
    static = payload["static"]
    if static is not None:
        # Any full install evicts the previous cache entry — a
        # token-less sweep (bare edge fns) must not leave the prior
        # run's root source pinned in the worker.
        _STATIC_CACHE.clear()
        if token is not None:
            _STATIC_CACHE[token] = static
    else:
        static = _STATIC_CACHE.get(token)
        if static is None:
            raise PayloadNotInstalled(
                f"sweep payload token {token!r} not installed in this worker "
                "(respawned after a crash?)"
            )
    teardown_sweep_worker()
    _WORKER.update(static)
    _WORKER.update(payload["delta"])
    # The recording flag ships with the static payload so pool workers
    # and cluster agents mirror the dispatcher's telemetry state.  Only
    # ever switched on here: under the serial executor this runs in the
    # dispatcher process, whose state is already authoritative.
    if _WORKER.get("telemetry"):
        telemetry.enable(True)
    source = _WORKER.get("source")
    if source is not None:
        idx = _WORKER.get("active_idx")
        if idx is not None:
            source = source.subset(idx)
        _WORKER["edge_mask_fn"] = source.edge_mask
        _WORKER["edge_block_fn"] = getattr(source, "edge_block", None)


def teardown_sweep_worker() -> dict | None:
    """Drop per-sweep worker state (the dispatcher's ``finally`` duty).

    Clears the plan and bitsets and the derived oracle functions, so
    none of it outlives the sweep.  The token-cached static payload is
    kept — that persistence is what lets the next install ship only a
    delta.

    Returns this worker's accumulated telemetry delta (``None`` when
    telemetry is off or in-process): the teardown broadcast runs after
    every sweep on the channel the executor already has, so worker
    metrics piggyback home without an extra round trip — see
    :func:`finalize_sweep`."""
    _WORKER.clear()
    return telemetry.drain_worker_snapshot()


def finalize_sweep(executor: Executor) -> None:
    """Tear down per-sweep worker state across an executor and absorb
    the telemetry deltas the teardown returns, merged under the
    backend's slot prefix (``w<k>`` pool workers, ``s<k>`` shards) in
    deterministic slot order."""
    telemetry.absorb_snapshots(
        executor.finalize(teardown_sweep_worker),
        prefix=getattr(executor, "telemetry_prefix", "w"),
    )


def _plan_name(plan) -> str:
    return "rows" if plan == "rows" else "index"


def _run_strip(task: tuple[int, int]) -> np.ndarray:
    """The worker sweep task: rows ``[start, stop)`` of an index or
    ``rows`` plan, as one CSR key array."""
    fault_point("task")
    start, stop = task
    plan = _WORKER["plan"]
    with telemetry.span(
        "pool.strip", start=start, stop=stop, plan=_plan_name(plan),
    ):
        if plan == "rows":
            n = _WORKER["n"]
            keys = concat_hits(sweep_strips(
                n, _WORKER["height"], start, stop, _WORKER["edge_block_fn"],
                _WORKER["colmasks"], _WORKER["edge_mask_fn"],
            ), n)
        else:
            keys = plan.block_hits(start, stop, _WORKER["edge_mask_fn"])
    telemetry.observe("pool.strip_hits", float(len(keys)))
    return keys


def strip_shares(executor: Executor, n_tasks: int) -> list[int] | None:
    """Capacity shares for the weighted strip deal, or ``None`` for the
    classic equal-share partition.

    Every executor deals task ``k`` to worker slot ``k % n_workers``
    (the pool queue rebalances freely; the cluster deal is positional),
    so giving strip ``k`` a share equal to slot ``k % n_workers``'s
    advertised capacity hands each shard total pair weight proportional
    to its capacity *without touching the deal itself* — the task list
    keeps its canonical contiguous cover, so results (and therefore the
    CSR and the coloring) are bit-identical to the unweighted deal.
    Uniform capacities return ``None``: the equal-share path is kept
    byte-exact."""
    get_caps = getattr(executor, "worker_capacities", None)
    if get_caps is None:
        return None
    caps = list(get_caps())
    if not caps or len(set(caps)) == 1:
        return None
    return [int(caps[k % len(caps)]) for k in range(n_tasks)]


def sweep_plan(
    n: int,
    col_lists: np.ndarray,
    palette_size: int,
    edge_mask_fn,
    edge_block_fn: EdgeBlockFn | None = None,
    height: int | None = None,
) -> tuple[PaletteIndex | str, int | None, np.ndarray | None]:
    """Choose how one sweep enumerates pairs, as ``(plan, height, colmasks)``:

    - ``(index, None, None)`` for the inverted palette index, when the
      sweep has a pairwise oracle, not every pair shares a color, and
      the index's exact candidate count undercuts the strips' palette
      word operations (:func:`repro.device.palette_index.prefers_index`);
    - ``("rows", height, colmasks)`` otherwise: row strips of
      ``height`` rows (:func:`repro.device.tiles.sweep_strips`) AND the
      packed palette bitsets ``colmasks`` with the block oracle, or
      test their survivors through the pairwise one.  ``colmasks`` is
      ``None`` when every pair shares a color (``L = P``,
      :func:`repro.device.palette_index.all_pairs_share`), so the
      strips skip the palette test.

    Both plans emit the same pairs, so the choice never changes a CSR.
    A caller that pins ``height`` (the DeviceSim build, whose strip
    scratch is charged against the budget) always sweeps rows.  Each
    choice is counted as ``sweep.plan.<name>``.
    """
    share = all_pairs_share(col_lists, palette_size)
    plan: PaletteIndex | str = "rows"
    if height is None:
        if (
            edge_mask_fn is not None and not share
            and prefers_index(n, col_lists, palette_size)
        ):
            plan = PaletteIndex(col_lists)
        else:
            height = strip_height(n)
    telemetry.count(f"sweep.plan.{_plan_name(plan)}")
    if plan != "rows" or share:
        return plan, height, None
    return plan, height, bitset_from_lists(col_lists, palette_size)


def sweep_strip_tasks(
    n: int,
    executor: Executor,
    plan: PaletteIndex | str = "rows",
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Partition the sweep domain for an executor: ``(start, stop)``
    row-range tasks in canonical order plus each range's weight.

    Under the ``rows`` plan the ranges are cut to equal pair weight
    (row ``i`` holds ``n - 1 - i`` pairs); under an index plan they are
    the index's row blocks and the weights their exact candidate counts
    — an upper bound on the block's hits, like a row range's pair
    count.

    Heterogeneous backends (hierarchical cluster agents advertising
    their inner pool size) get a capacity-weighted partition: range
    ``k``'s weight is proportional to the capacity of the worker slot
    the positional deal sends it to.  Weighted partitions keep empty
    ranges in place so the ``tasks[k::n]`` alignment holds."""
    n_tasks = max(1, executor.n_workers) * TASKS_PER_WORKER
    if plan == "rows":
        return pair_blocks(n, n_tasks, strip_shares(executor, n_tasks))
    n_blocks = plan.block_count(n_tasks)
    return plan.row_blocks(n_blocks, strip_shares(executor, n_blocks))


def conflict_sweep_chunks(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    edge_block_fn: EdgeBlockFn | None = None,
    height: int | None = None,
    executor: Executor | None = None,
    source=None,
    active_idx: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Executor-routed conflict sweep: yield edge chunks as arrays of
    CSR keys ``i << s | j`` (:func:`repro.graphs.csr.key_layout`).

    The single entry point behind the host build
    (:mod:`repro.core.conflict`), the device build
    (:mod:`repro.device.csr_build`) and the explicit graph builders
    (:func:`block_sweep_chunks`).  A serial backend (or ``None``)
    short-circuits to the streaming in-process sweep — same kernels,
    same order, lowest memory.  A pool backend partitions the domain
    into contiguous row ranges (per :func:`sweep_plan`), installs the
    payload once per worker, and yields the per-range results in
    range order, which makes the concatenated hit stream — and
    therefore the assembled CSR — bit-identical to the serial sweep's.

    ``col_lists`` are the ``(n, L)`` candidate lists over the palette
    ``{0..palette_size-1}``, each row of distinct colors.  ``height``
    pins the ``rows`` plan's strip height (see :func:`sweep_plan`).

    ``source``/``active_idx`` (optional) enable the persistent-pool
    delta payload: the root ``source`` is installed once under a token,
    later sweeps ship only the plan (and the bitsets) + active indices,
    and each worker derives ``source.subset(active_idx)`` locally.
    Per-sweep worker state is cleared in a ``finally`` whether the
    sweep completes or aborts.
    """
    plan, height, colmasks = sweep_plan(
        n, col_lists, palette_size, edge_mask_fn, edge_block_fn, height,
    )
    if executor is None or isinstance(executor, SerialExecutor):
        if plan == "rows":
            yield from sweep_strips(
                n, height, 0, n, edge_block_fn, colmasks, edge_mask_fn
            )
        else:
            yield from plan.iter_hits(edge_mask_fn)
        return
    tasks, _ = sweep_strip_tasks(n, executor, plan)
    payload_args = dict(
        n=n, height=height, colmasks=colmasks, edge_mask_fn=edge_mask_fn,
        edge_block_fn=edge_block_fn,
        source=source, active_idx=active_idx, executor=executor, plan=plan,
    )
    try:
        yield from imap_sweep(executor, _run_strip, tasks, payload_args)
    finally:
        finalize_sweep(executor)


def gathered_conflict_csr(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    edge_block_fn: EdgeBlockFn | None = None,
    executor: Executor | None = None,
    source=None,
    active_idx: np.ndarray | None = None,
) -> tuple[CSRGraph, int]:
    """Sweep-and-assemble: the back half of the host conflict build.
    Drains one :func:`conflict_sweep_chunks` stream (counting the
    gathered key bytes as ``sweep.hit_bytes``) and folds the hits into
    the sort-key CSR assembly, returning ``(graph, n_conflict_edges)``.
    """
    stream = conflict_sweep_chunks(
        n, edge_mask_fn, col_lists, palette_size, edge_block_fn,
        executor=executor, source=source, active_idx=active_idx,
    )
    with closing(stream), telemetry.span("sweep.gather"):
        chunks = [keys for keys in stream if len(keys)]
    telemetry.count("sweep.hit_bytes", float(sum(k.nbytes for k in chunks)))
    m = sum(len(keys) for keys in chunks)
    with telemetry.span("sweep.assemble"):
        graph = csr_from_coo_chunks(chunks, n)
    return graph, m


def block_sweep_chunks(
    n: int,
    block_fn: EdgeBlockFn,
    executor: Executor | None = None,
) -> Iterator[np.ndarray]:
    """Executor-routed all-pairs sweep (explicit graph builders): yield
    the upper-triangle hits of ``block_fn`` as ascending CSR keys.
    This is the ``rows`` plan of a one-color palette, under which every
    pair shares the color and every edge is a conflict edge."""
    return conflict_sweep_chunks(
        n, None, np.zeros((n, 1), dtype=np.int64), 1, edge_block_fn=block_fn,
        executor=executor,
    )
