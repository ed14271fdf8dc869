"""Unified parallel pair-sweep dispatch over execution backends.

The paper provides "a sequential and a parallel implementation" (§I);
its CPU parallelism is shared-memory threads over pair chunks.  Python
processes substitute for threads (the GIL rules those out for compute).
This module is the seam where every conflict/graph sweep meets an
:class:`~repro.parallel.executor.Executor`:

- the ``"tiled"`` engine partitions the upper-triangular tile grid into
  balanced contiguous :class:`~repro.parallel.partition.TileBlock`
  strips, each worker runs the fused block-broadcast kernel over its
  strip and returns one array of CSR keys — or, when
  :func:`sweep_plan` picks the inverted palette index, the strips are
  the index's row blocks, balanced by exact candidate counts; under
  the ``rows`` plan (every pair shares a color, ``L = P``) they are
  row ranges of equal pair weight, swept as row strips of the block
  oracle with no palette test;
- the ``"pairs"`` engine partitions the flat index range into
  :class:`~repro.parallel.partition.PairRange` slices and runs the
  legacy gather kernel over each.

Payload shipping is two-tier for the persistent pool.  The payload is
split into a **static** part (the edge source / oracle and engine
configuration — constant across Algorithm 1 iterations when the caller
passes the *root* ``source``) and a per-sweep **delta** (the palette
index under the index plan, the packed palette bitsets under the tile
plan or the ``"pairs"`` engine, the active-vertex indices and the tile
size).  The static part is installed once under a token and cached
worker-side; while the pool lives and the token matches, later sweeps
ship only the delta.  Workers derive the iteration's edge oracle from the cached root source and the active
indices, which reproduces the dispatcher's own subset construction
exactly.  Strips carry the same hit set as the serial sweep, and the
sort-key CSR assembly (:func:`repro.graphs.csr.csr_from_coo_chunks`)
depends on the edge set alone, not on strip or chunk order, so it
produces **bit-identical graphs** for serial and parallel builds per
seed.

Hits are CSR keys (:func:`repro.graphs.csr.key_layout`, 4 bytes per
edge up to 32,768 vertices) from the worker through the gather to the
assembly.  Key arrays travel back pickled through the executor's result
stream, the one gather path: two worker sweep tasks, a tile strip and a
pair range, and one stream, :func:`conflict_sweep_chunks`, which every
build drains.

Per-sweep worker state (plan, bitsets, derived oracle, tile scratch) is
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
from repro.device.palette_index import PaletteIndex, all_pairs_share, prefers_index, row_blocks
from repro.device.tiles import (
    DEFAULT_TILE_BYTES,
    EdgeBlockFn,
    TileScratch,
    concat_hits,
    conflict_hits_strip,
    strip_height,
    sweep_block_hits,
    sweep_conflict_chunks,
    tile_edge,
)
from repro.graphs.csr import CSRGraph, csr_from_coo_chunks, key_layout, pair_keys
from repro.parallel.executor import Executor, SerialExecutor, owned_executor
from repro.parallel.partition import (
    partition_pairs,
    partition_tiles,
    tile_grid,
)
from repro.pauli.anticommute import AnticommuteOracle
from repro.resilience.faults import fault_point
from repro.util.bits import bitset_from_lists
from repro.util.chunking import pair_index_to_ij

__all__ = [
    "conflict_sweep_chunks",
    "gathered_conflict_csr",
    "fused_conflict_csr",
    "block_sweep_chunks",
    "parallel_conflict_graph",
    "payload_token_for",
    "imap_delta_install",
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
# token.  Holds the root edge source and engine configuration across
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


def _backend_for(kernel_backend: str | None):
    """Resolve a kernel-backend *name* to an instance, lazily.

    ``None`` means "no dispatch" — the tiles drivers run their direct
    numpy path, exactly the pre-seam code.  The import is deferred so
    the pool module never drags the backend registry (and through it
    the device package) into its own import cycle.
    """
    if kernel_backend is None:
        return None
    from repro.device.backends import resolve_backend

    return resolve_backend(kernel_backend)


def sweep_payload(
    n: int,
    engine: str,
    tile: int | None,
    chunk_size: int,
    colmasks: np.ndarray | None,
    edge_mask_fn,
    edge_block_fn,
    source=None,
    active_idx: np.ndarray | None = None,
    executor: Executor | None = None,
    kernel_backend: str | None = None,
    plan: PaletteIndex | None = None,
) -> tuple[dict, int | None]:
    """Build the install payload and its token for one sweep.

    With a ``source`` and a cache-capable executor the static part is
    the *root* source; when the executor still holds the token, the
    static part is elided and only the delta (plan, bitsets, active
    indices, tile) ships.  Without a source the edge functions
    themselves are the static part and every install is a full one (token ``None``).

    ``kernel_backend`` ships as a *name* in the static part and is
    resolved by :func:`init_sweep_worker` in the worker process —
    spawned and remote workers pick their backend against their own
    environment (a cluster agent without numba degrades to numpy on
    its own, bit-identically).

    ``plan`` and ``colmasks`` come from :func:`sweep_plan`; they ship
    in the delta, so workers run row blocks without rebuilding an
    index.  Under ``"rows"``, ``tile`` is the strip height.
    """
    delta = {
        "n": n,
        "tile": tile,
        "colmasks": colmasks,
        "active_idx": active_idx,
        "plan": plan,
    }
    if source is not None and executor is not None and executor.supports_payload_cache:
        # The token must name the *whole* static part, not just the
        # source: the same executor swept with a different engine,
        # chunk size or kernel backend is a different payload, and a
        # delta-only install against the old cache would run stale
        # config.  The leading "sweep" element is the token channel
        # (see :func:`repro.parallel.executor.token_channel`): sweep
        # and coloring payloads coexist on one persistent pool without
        # evicting each other's delta path.
        # Telemetry rides the token too: a worker that cached a static
        # payload without the recording flag must take a full install
        # when recording turns on (and vice versa), or it would keep
        # running under the stale flag.  Neutral either way — the flag
        # never touches the numerics.
        token = (
            "sweep", payload_token_for(source), engine, chunk_size,
            kernel_backend, telemetry.enabled(),
        )
        static = {
            "engine": engine,
            "chunk_size": chunk_size,
            "source": source,
            "edge_mask_fn": None,
            "edge_block_fn": None,
            "kernel_backend": kernel_backend,
            "telemetry": telemetry.enabled(),
        }
        if executor.holds_token(token):
            static = None
        telemetry.count(
            "pool.install.delta" if static is None else "pool.install.full"
        )
        return {"token": token, "static": static, "delta": delta}, token
    static = {
        "engine": engine,
        "chunk_size": chunk_size,
        "source": source,
        "edge_mask_fn": edge_mask_fn if source is None else None,
        "edge_block_fn": edge_block_fn if source is None else None,
        "kernel_backend": kernel_backend,
        "telemetry": telemetry.enabled(),
    }
    telemetry.count("pool.install.full")
    return {"token": None, "static": static, "delta": delta}, None


def imap_delta_install(
    executor: Executor, task_fn, tasks, initializer, make_payload
):
    """Submit with a token-cached payload, retrying once on the
    delta-install respawn race — the one retry protocol shared by the
    conflict sweep and the parallel coloring engine.

    ``make_payload(force_full)`` returns ``(payload, token, is_full)``.
    ``holds_token`` is checked when the payload is built, but a worker
    can die (and be auto-respawned with an empty cache) before the
    broadcast lands; the stranded worker then raises
    :class:`PayloadNotInstalled` and the broadcast recycles the pool.
    Because an install has no side effects beyond worker state, the
    recovery is mechanical: rebuild the payload in full (a recycled
    pool no longer holds the token, so delta-aware builders come out
    full on their own) and submit once more.  The failure may also
    surface as a *peer's* ``BrokenBarrierError`` (the stranded worker
    aborts the install barrier, and whichever error the pool reports
    wins), so both count as the respawn race — but only for a
    delta-only install; a failure on a *full* install is a real error
    and propagates.

    A supervised executor
    (:class:`repro.resilience.supervisor.ResilientExecutor`) exposes
    ``imap_with_payload`` and takes over the whole protocol — it must
    re-materialize the payload on *every* retry/failover, not just
    once, so the delta decision is made against whichever backend is
    current.
    """
    supervised = getattr(executor, "imap_with_payload", None)
    if supervised is not None:
        return supervised(task_fn, tasks, initializer, make_payload)
    payload, token, is_full = make_payload(False)
    try:
        return executor.imap(
            task_fn, tasks, initializer=initializer,
            payload=(payload,), payload_token=token,
        )
    except (PayloadNotInstalled, threading.BrokenBarrierError):
        if is_full:
            raise
        payload, token, _ = make_payload(True)
        return executor.imap(
            task_fn, tasks, initializer=initializer,
            payload=(payload,), payload_token=token,
        )


def imap_sweep(executor: Executor, task_fn, tasks, payload_args: dict):
    """Install a sweep payload and stream the tasks (see
    :func:`imap_delta_install` for the retry semantics)."""

    def make_payload(force_full: bool):
        # Full-ness is decided by sweep_payload via holds_token; after
        # the respawn race recycled the pool the token is gone, so the
        # rebuild comes out full without needing the flag.
        payload, token = sweep_payload(**payload_args)
        return payload, token, payload["static"] is not None

    return imap_delta_install(
        executor, task_fn, tasks, init_sweep_worker, make_payload
    )


def init_sweep_worker(payload: dict) -> None:
    """Install a sweep payload; derive per-worker oracle and tile state.

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
    # Worker-side backend resolution: the payload carries the *name*,
    # each worker resolves it against its own environment.
    _WORKER["backend"] = _backend_for(_WORKER.get("kernel_backend"))
    if _WORKER["engine"] == "tiled" and _WORKER["plan"] is None:
        _WORKER["grid"] = tile_grid(_WORKER["n"], _WORKER["tile"])
        _WORKER["scratch"] = TileScratch(_WORKER["tile"])


def teardown_sweep_worker() -> dict | None:
    """Drop per-sweep worker state (the dispatcher's ``finally`` duty).

    Clears the plan and bitsets, the derived oracle functions and the
    tile scratch, so none of it outlives the sweep.  The token-cached static payload is kept — that
    persistence is what lets the next install ship only a delta.

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
    return "tiles" if plan is None else "rows" if plan == "rows" else "index"


def _run_tile_strip(task: tuple[int, int]) -> np.ndarray:
    """Worker task of the ``"tiled"`` engine: the fused conflict kernel
    over one strip of tiles, or the row block ``[start, stop)`` of an
    index or ``rows`` plan, as one CSR key array."""
    fault_point("task")
    start, stop = task
    plan = _WORKER["plan"]
    with telemetry.span(
        "pool.strip", engine="tiled", start=start, stop=stop,
        plan=_plan_name(plan),
    ):
        if plan == "rows":
            keys = concat_hits(sweep_block_hits(
                _WORKER["n"], _WORKER["edge_block_fn"], _WORKER["tile"],
                _WORKER.get("backend"), start, stop,
            ), _WORKER["n"])
        elif plan is not None:
            keys = plan.block_hits(start, stop, _WORKER["edge_mask_fn"])
        else:
            keys = conflict_hits_strip(
                _WORKER["colmasks"],
                _WORKER["grid"][start:stop],
                _WORKER["edge_mask_fn"],
                _WORKER["edge_block_fn"],
                scratch=_WORKER["scratch"],
                backend=_WORKER.get("backend"),
            )
    telemetry.observe("pool.strip_hits", float(len(keys)))
    return keys


def _run_pair_range(task: tuple[int, int]) -> np.ndarray:
    """Worker task: gather-engine conflict scan of one flat pair range."""
    from repro.device.kernels import conflict_pair_kernel

    fault_point("task")
    start, stop = task
    n = _WORKER["n"]
    chunk = _WORKER["chunk_size"]

    def hits():
        for s in range(start, stop, chunk):
            k = np.arange(s, min(s + chunk, stop), dtype=np.int64)
            i, j = pair_index_to_ij(k, n)
            mask = conflict_pair_kernel(
                _WORKER["edge_mask_fn"], _WORKER["colmasks"], i, j
            ).astype(bool)
            yield pair_keys(i[mask], j[mask], n)

    with telemetry.span("pool.strip", engine="pairs", start=start, stop=stop):
        keys = concat_hits(hits(), n)
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
    engine: str,
    tile: int | None,
    tile_bytes: int | None,
    edge_mask_fn,
    edge_block_fn: EdgeBlockFn | None = None,
) -> tuple[PaletteIndex | str | None, int | None, np.ndarray | None]:
    """Choose how one sweep enumerates pairs, as ``(plan, tile, colmasks)``:

    - ``("rows", height, None)`` when every pair shares a color (``L =
      P``, :func:`repro.device.palette_index.all_pairs_share`) and the
      sweep has a block oracle: the conflict edges are the oracle's
      edges, so row strips of ``height`` rows skip the palette test and
      emit hits in CSR key order (:func:`repro.device.tiles.sweep_block_hits`);
    - ``(index, None, None)`` when the inverted palette index's exact
      candidate count undercuts the tile sweep's palette word
      operations (:func:`repro.device.palette_index.prefers_index`);
    - ``(None, tile, colmasks)`` for the tile sweep (``(None, None,
      colmasks)`` for the ``"pairs"`` engine), the only plans that AND
      the packed palette bitsets, so the only ones that build them.

    All plans emit the same pairs, so the choice never changes a CSR.
    A caller that pins ``tile`` (the DeviceSim build, whose tile
    scratch is charged against the budget) keeps the tile sweep.  Each
    choice is counted as ``sweep.plan.<name>``.
    """
    plan: PaletteIndex | str | None = None
    if engine == "tiled" and tile is None:
        budget = tile_bytes or DEFAULT_TILE_BYTES
        if edge_block_fn is not None and all_pairs_share(col_lists, palette_size):
            plan, tile = "rows", strip_height(n, budget)
        elif edge_mask_fn is not None and prefers_index(n, col_lists, palette_size):
            plan = PaletteIndex(col_lists)
        else:
            tile = tile_edge(-(-palette_size // 64), budget, n=n)
    telemetry.count(f"sweep.plan.{_plan_name(plan) if engine == 'tiled' else engine}")
    colmasks = None if plan is not None else bitset_from_lists(col_lists, palette_size)
    return plan, tile, colmasks


def sweep_strip_tasks(
    n: int,
    engine: str,
    tile: int | None,
    executor: Executor,
    plan: PaletteIndex | str | None = None,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Partition the sweep domain for an executor: ``(start, stop)``
    strip tasks in canonical order plus each strip's pair weight.

    Under an index plan the strips are the index's row blocks and the
    weights their exact candidate counts — an upper bound on the
    block's hits, like a tile strip's pair count.  Under the ``rows``
    plan they are row ranges cut to equal pair weight.

    Heterogeneous backends (hierarchical cluster agents advertising
    their inner pool size) get a capacity-weighted partition: strip
    ``k``'s pair weight is proportional to the capacity of the worker
    slot the positional deal sends it to.  Weighted partitions keep
    empty strips in place so the ``tasks[k::n]`` alignment holds."""
    n_workers = max(1, executor.n_workers)
    n_tasks = n_workers * TASKS_PER_WORKER
    if plan == "rows":
        # Row ``i`` holds ``n - 1 - i`` pairs.
        r = np.arange(n + 1, dtype=np.int64)
        return row_blocks(
            r * (2 * n - r - 1) // 2, n_tasks, strip_shares(executor, n_tasks)
        )
    if plan is not None:
        n_blocks = plan.block_count(n_tasks)
        return plan.row_blocks(n_blocks, strip_shares(executor, n_blocks))
    shares = strip_shares(executor, n_tasks)
    keep = shares is not None
    if engine == "tiled":
        blocks = partition_tiles(
            n, tile, n_tasks, shares=shares, keep_empty=keep
        )
        blocks = blocks if keep else [b for b in blocks if len(b)]
        tasks = [(b.start, b.stop) for b in blocks]
        weights = np.array([b.n_pairs for b in blocks], dtype=np.int64)
    else:
        ranges = partition_pairs(
            n, n_tasks, shares=shares, keep_empty=keep
        )
        ranges = ranges if keep else [r for r in ranges if len(r)]
        tasks = [(r.start, r.stop) for r in ranges]
        weights = np.array([len(r) for r in ranges], dtype=np.int64)
    return tasks, weights


def _check_sweep_args(engine: str, chunk_size: int) -> None:
    if engine not in ("tiled", "pairs"):
        raise ValueError(f"unknown engine {engine!r}")
    if chunk_size < 1:
        # A non-positive step would make every pair range empty (or
        # raise deep inside ``range``) instead of sweeping it.
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")


def conflict_sweep_chunks(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    chunk_size: int = 1 << 18,
    engine: str = "tiled",
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    tile: int | None = None,
    executor: Executor | None = None,
    source=None,
    active_idx: np.ndarray | None = None,
    kernel_backend: str | None = None,
) -> Iterator[np.ndarray]:
    """Executor-routed conflict sweep: yield edge chunks as arrays of
    CSR keys ``i << s | j`` (:func:`repro.graphs.csr.key_layout`).

    The single entry point behind the host build
    (:mod:`repro.core.conflict`), the device build
    (:mod:`repro.device.csr_build`), the explicit graph builders
    (:func:`block_sweep_chunks`) and :func:`parallel_conflict_graph`.
    A serial backend (or ``None``) short-circuits to the streaming
    in-process sweep — same kernels, same order, lowest memory.  A pool
    backend partitions the domain into contiguous strips (tile grid or
    row blocks for ``"tiled"``, per :func:`sweep_plan`; flat pair
    ranges for ``"pairs"``), installs the payload once per worker, and
    yields the per-strip results in strip order, which makes the
    concatenated hit stream — and therefore the assembled CSR —
    bit-identical to the serial sweep's.

    ``col_lists`` are the ``(n, L)`` candidate lists over the palette
    ``{0..palette_size-1}``, each row of distinct colors.

    ``source``/``active_idx`` (optional) enable the persistent-pool
    delta payload: the root ``source`` is installed once under a token,
    later sweeps ship only the plan (or the bitsets) + active indices,
    and each worker derives ``source.subset(active_idx)`` locally.
    Per-sweep worker state is cleared in a ``finally`` whether the
    sweep completes or aborts.
    """
    _check_sweep_args(engine, chunk_size)
    plan, tile, colmasks = sweep_plan(
        n, col_lists, palette_size, engine, tile, tile_bytes,
        edge_mask_fn, edge_block_fn,
    )
    if executor is None or isinstance(executor, SerialExecutor):
        if plan == "rows":
            yield from sweep_block_hits(
                n, edge_block_fn, tile, backend=_backend_for(kernel_backend)
            )
            return
        if plan is not None:
            yield from plan.iter_hits(edge_mask_fn)
            return
        yield from sweep_conflict_chunks(
            n, edge_mask_fn, colmasks, chunk_size, engine, edge_block_fn,
            tile_bytes=tile_bytes, tile=tile,
            backend=_backend_for(kernel_backend),
        )
        return
    tasks, _ = sweep_strip_tasks(n, engine, tile, executor, plan)
    task_fn = _run_tile_strip if engine == "tiled" else _run_pair_range
    payload_args = dict(
        n=n, engine=engine, tile=tile, chunk_size=chunk_size,
        colmasks=colmasks, edge_mask_fn=edge_mask_fn,
        edge_block_fn=edge_block_fn,
        source=source, active_idx=active_idx, executor=executor,
        kernel_backend=kernel_backend, plan=plan,
    )
    try:
        yield from imap_sweep(executor, task_fn, tasks, payload_args)
    finally:
        finalize_sweep(executor)


def gathered_conflict_csr(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    chunk_size: int = 1 << 18,
    engine: str = "tiled",
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    executor: Executor | None = None,
    source=None,
    active_idx: np.ndarray | None = None,
    kernel_backend: str | None = None,
) -> tuple[CSRGraph, int]:
    """Sweep-and-assemble: the shared back half of every host conflict
    build.  Drains one :func:`conflict_sweep_chunks` stream and folds
    the hits into the sort-key CSR assembly, returning ``(graph,
    n_conflict_edges)``.
    """
    chunks = _gather_keys(conflict_sweep_chunks(
        n, edge_mask_fn, col_lists, palette_size, chunk_size, engine,
        edge_block_fn, tile_bytes=tile_bytes, executor=executor,
        source=source, active_idx=active_idx, kernel_backend=kernel_backend,
    ), engine)
    m = sum(len(keys) for keys in chunks)
    with telemetry.span("sweep.assemble", engine=engine):
        graph = csr_from_coo_chunks(chunks, n)
    return graph, m


def _gather_keys(stream: Iterator[np.ndarray], engine: str) -> list[np.ndarray]:
    """Drain a sweep stream into its non-empty key chunks, counting
    their bytes as ``sweep.hit_bytes``."""
    with closing(stream), telemetry.span("sweep.gather", engine=engine):
        chunks = [keys for keys in stream if len(keys)]
    telemetry.count("sweep.hit_bytes", float(sum(k.nbytes for k in chunks)))
    return chunks


def _fused_sub_csr(
    n: int, chunks: list[np.ndarray]
) -> tuple[CSRGraph, np.ndarray]:
    """Assemble the conflicted-subgraph CSR directly from key chunks.

    The conflict vertices are the keys' endpoints (marking stops once
    all ``n`` are marked).  The relabel ``old -> new`` is strictly
    monotone, so each key maps onto the subgraph's :func:`key_layout`
    in the same order, and the sort-key assembly (whose rows depend on
    the edge set alone) makes this CSR **bit-identical** to
    ``induced_subgraph(csr_from_coo_chunks(chunks, n), conflicted)``
    (on the conflicted set the induced relabel drops zero arcs, so it
    too is a pure monotone relabel) while never materializing the
    full-width graph.  When every vertex is conflicted the relabel is
    the identity and the keys pass straight through.  ``chunks`` is
    consumed: each original leaves the list as its relabeled copy is
    made, so the two never coexist in full.
    """
    s, _ = key_layout(n)
    col_mask = (1 << s) - 1
    mask = np.zeros(n, dtype=bool)
    for keys in chunks:
        if mask.all():
            break
        mask[keys >> s] = True
        mask[keys & col_mask] = True
    conflicted = np.flatnonzero(mask)
    if len(conflicted) == n:
        return csr_from_coo_chunks(chunks, n), conflicted
    sub_s, sub_dtype = key_layout(len(conflicted))
    new_id = np.cumsum(mask, dtype=sub_dtype) - 1
    chunks.reverse()
    sub_chunks: list[np.ndarray] = []
    while chunks:
        keys = chunks.pop()
        sub = new_id[keys >> s]
        sub <<= sub_s
        sub |= new_id[keys & col_mask]
        sub_chunks.append(sub)
        del keys
    return csr_from_coo_chunks(sub_chunks, len(conflicted)), conflicted


def fused_conflict_csr(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    chunk_size: int = 1 << 18,
    engine: str = "tiled",
    edge_block_fn: EdgeBlockFn | None = None,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    executor: Executor | None = None,
    source=None,
    active_idx: np.ndarray | None = None,
    timings: dict | None = None,
    kernel_backend: str | None = None,
) -> tuple[CSRGraph, np.ndarray, int]:
    """Sweep-and-assemble into coloring-ready conflict state.

    Drains the key stream of :func:`conflict_sweep_chunks` once, then
    marks the conflict vertices and assembles the conflicted sub-CSR
    directly in key space (:func:`_fused_sub_csr`) — no full-width
    graph, degree scan or induced-subgraph relabel.  Returns ``(sub_gc,
    conflicted, n_conflict_edges)`` where ``sub_gc`` is bit-identical
    to ``induced_subgraph`` of the :func:`gathered_conflict_csr` graph
    and ``conflicted`` to its ``nonzero(degree > 0)`` vertex set.

    ``timings``, when given, accumulates ``sweep_s`` (draining the hit
    stream — worker compute plus gather), ``assemble_s`` (the sub-CSR
    build) and ``hit_bytes`` (the gathered key bytes), for the
    per-iteration metrics.
    """
    t0 = telemetry.clock()
    chunks = _gather_keys(conflict_sweep_chunks(
        n, edge_mask_fn, col_lists, palette_size, chunk_size, engine,
        edge_block_fn, tile_bytes=tile_bytes, executor=executor,
        source=source, active_idx=active_idx, kernel_backend=kernel_backend,
    ), engine)
    m = sum(len(keys) for keys in chunks)
    hit_bytes = sum(keys.nbytes for keys in chunks)
    t1 = telemetry.clock()
    with telemetry.span("sweep.assemble", engine=engine):
        sub_gc, conflicted = _fused_sub_csr(n, chunks)
    if timings is not None:
        timings["sweep_s"] = timings.get("sweep_s", 0.0) + (t1 - t0)
        timings["assemble_s"] = (
            timings.get("assemble_s", 0.0) + (telemetry.clock() - t1)
        )
        timings["hit_bytes"] = timings.get("hit_bytes", 0) + hit_bytes
    return sub_gc, conflicted, m


def block_sweep_chunks(
    n: int,
    block_fn: EdgeBlockFn,
    tile_bytes: int = DEFAULT_TILE_BYTES,
    executor: Executor | None = None,
    kernel_backend: str | None = None,
) -> Iterator[np.ndarray]:
    """Executor-routed all-pairs sweep (explicit graph builders): yield
    the upper-triangle hits of ``block_fn`` as ascending CSR keys.
    This is the ``rows`` plan of a one-color palette, under which every
    pair shares the color and every edge is a conflict edge."""
    return conflict_sweep_chunks(
        n, None, np.zeros((n, 1), dtype=np.int64), 1, edge_block_fn=block_fn,
        tile_bytes=tile_bytes, executor=executor, kernel_backend=kernel_backend,
    )


def parallel_conflict_graph(
    pauli_set,
    col_lists: np.ndarray,
    palette_size: int,
    n_workers: int = 2,
    chunk_size: int = 1 << 16,
    want_anticommute: bool = False,
    engine: str = "tiled",
    tile_bytes: int = DEFAULT_TILE_BYTES,
    executor: Executor | None = None,
    kernel_backend: str | None = None,
) -> tuple[CSRGraph, int]:
    """Build the conflict graph over a Pauli set with worker processes.

    Thin front end over :func:`conflict_sweep_chunks` plus the shared
    sort-key CSR assembly — the same code path the serial host build
    uses, so parallel and serial graphs are bit-identical.

    Parameters
    ----------
    pauli_set:
        The active :class:`repro.pauli.PauliSet` (complement edges are
        derived on the fly in each worker).
    col_lists, palette_size:
        ``(n, L)`` candidate lists of the active vertices and the
        palette size ``P``.
    n_workers:
        Pool size; 1 short-circuits to the in-process streaming sweep.
        Ignored when ``executor`` is given.
    want_anticommute:
        Color the anticommute graph itself instead of its complement
        (used by tests to cross-check orientations).
    engine:
        ``"tiled"`` block-broadcast sweep (default) or ``"pairs"`` flat
        gather chunks.
    executor:
        Explicit backend; overrides ``n_workers``.  A spec-created
        backend is closed before returning; a passed instance is left
        open for its owner.

    Returns
    -------
    (graph, n_conflict_edges)
    """
    oracle = AnticommuteOracle(pauli_set.chars)
    if want_anticommute:
        edge_mask_fn = oracle.anticommute
        edge_block_fn = oracle.anticommute_block
    else:
        edge_mask_fn = oracle.commute_edges
        edge_block_fn = oracle.commute_block
    with owned_executor(executor if executor is not None else "auto", n_workers) as ex:
        return gathered_conflict_csr(
            pauli_set.n,
            edge_mask_fn,
            col_lists,
            palette_size,
            chunk_size=chunk_size,
            engine=engine,
            edge_block_fn=edge_block_fn,
            tile_bytes=tile_bytes,
            executor=ex,
            kernel_backend=kernel_backend,
        )
