"""Zero-copy shared-memory gather for the parallel pair sweep.

The PR 2 pool returned every per-strip hit array by pickling it through
the pool's result pipe — output-proportional *communication*, but each
conflict edge still crossed a pipe twice (pickle, unpickle).  This
module removes that copy: the dispatcher allocates one
``multiprocessing.shared_memory`` key region sized by the paper's
Lemma 2 conflict-edge estimate, every strip of the sweep gets a
reserved slot range inside it, workers write their hits (one CSR key
per slot, :func:`repro.graphs.csr.key_layout`) directly into their
slices, and only a per-strip *hit count* (one integer) travels back
through the pipe.  The dispatcher then hands NumPy views over the shared
region straight to :func:`repro.graphs.csr.csr_from_coo_chunks` — no
result pickling, no gather-side concatenation.

Sizing follows Lemma 2: the expected conflict-edge count is
``|E| * p_share`` with ``p_share`` the exact list-intersection
probability; strips reserve slots proportional to their pair weight
(never more than the weight itself — a strip can not produce more hits
than pairs).  Because the estimate is an expectation, a strip can
overshoot its reservation; the worker then reports the exact deficit
and the dispatcher **grows and retries**: a second region sized by the
reported exact counts re-runs only the overflowed strips.  Per-strip
results keep canonical strip order either way, so the shm gather is
bit-identical to the pickled gather and to the serial sweep.

Worker-side attachments are cached per region and closed by the sweep
teardown broadcast (:func:`repro.parallel.pool` clears worker state in
a ``finally``); the dispatcher closes and unlinks the regions when the
gather context exits — views into the region are only valid inside the
``with`` block.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from repro import telemetry
from repro.graphs.csr import key_layout
from repro.util.chunking import num_pairs

__all__ = [
    "SHM_SAFETY",
    "MIN_STRIP_SLOTS",
    "ShmCooRegion",
    "ShmRegionPool",
    "ShmGatherResult",
    "estimate_conflict_edges",
    "plan_strip_slots",
    "shm_conflict_gather",
    "write_strip_hits",
    "close_worker_attachments",
]

#: Multiplicative headroom over the Lemma 2 expectation when reserving
#: strip slots — expectation, not bound, so give variance some room
#: (undershoot is survivable: the grow-and-retry path re-runs only the
#: overflowed strips).
SHM_SAFETY = 1.5

#: Floor on any strip's reservation, so near-zero estimates still give
#: every strip a useful slice (a few cache lines; never exceeds the
#: strip's own pair count).
MIN_STRIP_SLOTS = 32

def _attach_untracked(name: str):
    """Attach an existing segment without resource-tracker bookkeeping.

    The dispatcher and its pool workers share one resource tracker (the
    fd rides in the process preparation data), and only the *creator*
    should hold the registration: a worker-side register can race the
    owner's unlink-time unregister through the tracker pipe and leave a
    phantom entry ("leaked shared_memory" warnings at shutdown), while
    a worker-side unregister strips the owner's entry.  Python 3.13+
    exposes this as ``track=False``; older interpreters register
    unconditionally, so the call is stubbed out for the duration of the
    constructor (pool workers run tasks single-threaded, so the stub
    cannot leak into a concurrent create).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class ShmCooRegion:
    """A shared-memory edge buffer: ``capacity`` slots of one CSR key
    each, of ``dtype`` (the sweep's :func:`key_layout` dtype).

    A strip's reservation ``[off, off + cap)`` is one contiguous slice.
    The creator owns the segment (close + unlink); workers attach by
    name and only close.
    """

    def __init__(self, shm, capacity: int, owner: bool, dtype) -> None:
        self._shm = shm
        self.capacity = int(capacity)
        self.owner = owner
        self.keys = np.frombuffer(shm.buf, dtype=dtype, count=self.capacity)

    @classmethod
    def create(cls, capacity: int, dtype=np.int64) -> "ShmCooRegion":
        capacity = max(int(capacity), 1)
        shm = shared_memory.SharedMemory(
            create=True, size=np.dtype(dtype).itemsize * capacity
        )
        return cls(shm, capacity, owner=True, dtype=dtype)

    @classmethod
    def attach(cls, name: str, capacity: int, dtype=np.int64) -> "ShmCooRegion":
        return cls(_attach_untracked(name), capacity, owner=False, dtype=dtype)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes

    def slice(self, offset: int, count: int) -> np.ndarray:
        """View of one reservation's first ``count`` filled slots."""
        return self.keys[offset : offset + count]

    def close(self) -> None:
        """Drop the NumPy view and unmap the segment."""
        self.keys = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external view
            # A consumer kept a view past the gather context; the map
            # stays until that view dies, but the name can still go.
            pass

    def unlink(self) -> None:
        if self.owner:
            self._shm.unlink()


class ShmRegionPool:
    """Double-buffered region reuse across the sweeps of one run.

    Creating, zero-mapping and unlinking a fresh segment every
    iteration is pure churn when Algorithm 1 runs many rounds over a
    shrinking active set.  The pool keeps ``n_slots`` regions alive and
    hands them out round-robin: a slot whose region is large enough is
    reused as-is (workers re-attach by name through their own cache —
    stale bytes beyond each strip's reported count are never read); a
    too-small one is replaced.  Two slots double-buffer: a straggling
    view of the previous sweep's region never aliases the one being
    written.  The owner must :meth:`close` the pool when the run ends —
    pooled regions are deliberately *not* released by the gather
    context.
    """

    def __init__(self, n_slots: int = 2) -> None:
        self._slots: list[ShmCooRegion | None] = [None] * max(1, int(n_slots))
        self._next = 0

    def acquire(self, capacity: int, dtype=np.int64) -> ShmCooRegion:
        """A region with at least ``capacity`` slots of ``dtype``,
        reused if possible."""
        capacity = max(int(capacity), 1)
        k = self._next
        self._next = (k + 1) % len(self._slots)
        region = self._slots[k]
        if region is not None and region.capacity >= capacity and region.keys.dtype == dtype:
            telemetry.count("shm.region.reuse")
            return region
        if region is not None:
            region.close()
            region.unlink()
        region = ShmCooRegion.create(capacity, dtype)
        telemetry.count("shm.region.create")
        self._slots[k] = region
        return region

    def close(self) -> None:
        """Release every pooled region.  Idempotent."""
        for k, region in enumerate(self._slots):
            if region is not None:
                region.close()
                region.unlink()
                self._slots[k] = None

    def __enter__(self) -> "ShmRegionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# Worker-global attachment cache: one attach per region per worker,
# reused across the worker's strips.  Cleared by the sweep teardown
# broadcast (and by the next payload install).
_ATTACHED: dict[str, ShmCooRegion] = {}


def _attached_region(name: str, capacity: int, dtype) -> ShmCooRegion:
    region = _ATTACHED.get(name)
    if region is None:
        region = ShmCooRegion.attach(name, capacity, dtype)
        _ATTACHED[name] = region
    return region


def close_worker_attachments() -> None:
    """Close every cached worker-side attachment (sweep teardown)."""
    for region in _ATTACHED.values():
        region.close()
    _ATTACHED.clear()


def write_strip_hits(keys: np.ndarray, spec: tuple[str, int, int, int]) -> int:
    """Write one strip's key array into its reserved slice; return the
    count.  The region's slots share the keys' dtype (both follow the
    sweep's :func:`key_layout`).

    ``spec`` is ``(region_name, region_capacity, offset, slot_cap)``.
    A strip whose hits exceed its reservation returns the *negated*
    exact hit count instead of writing — the dispatcher's grow-and-retry
    signal (the retry region is then sized exactly, so it cannot
    overflow again).
    """
    name, capacity, offset, slot_cap = spec
    n_hits = len(keys)
    if n_hits > slot_cap:
        return -n_hits
    if n_hits:
        region = _attached_region(name, capacity, keys.dtype)
        region.keys[offset : offset + n_hits] = keys
    return n_hits


def estimate_conflict_edges(n: int, palette_size: int, list_size: int) -> float:
    """Lemma 2 conflict-edge expectation with ``|E|`` bounded by all
    ``n(n-1)/2`` pairs (the sweep exists to avoid knowing ``|E|``): an
    overestimate, but variance cuts the other way, and the
    grow-and-retry path absorbs what is left."""
    # Lazy import: repro.core pulls this package in.
    from repro.core.analysis import expected_conflict_edges

    return expected_conflict_edges(num_pairs(n), palette_size, list_size)


def staging_bytes_hint(
    n: int,
    est_edges: float,
    n_strips: int,
    safety: float = SHM_SAFETY,
) -> int:
    """Upper-bound byte hint for the shm staging a sweep will request.

    Callers that charge the staging against a budget (the device build)
    reserve this *before* sizing their own output buffer, so the
    staging allocation cannot find the budget already fully claimed.
    Mirrors :func:`plan_strip_slots`: the proportional share plus the
    per-strip floor and ceil cushion, capped at pair space.
    """
    total = num_pairs(n)
    slot_bytes = key_layout(n)[1].itemsize
    if total == 0:
        return slot_bytes  # the region clamps to one slot
    slots = int(max(est_edges, 0.0) * safety) + n_strips * (MIN_STRIP_SLOTS + 1)
    return slot_bytes * max(min(slots, total), 1)


def plan_strip_slots(
    weights: np.ndarray,
    est_edges: float,
    safety: float = SHM_SAFETY,
) -> np.ndarray:
    """Slot reservation per strip from the Lemma 2 estimate.

    Slots are proportional to each strip's pair weight (uniform random
    lists make hit density uniform over pair space), floored at
    :data:`MIN_STRIP_SLOTS` and capped at the weight itself — a strip
    cannot hit more pairs than it scans, so a full-weight reservation
    can never overflow.
    """
    weights = np.asarray(weights, dtype=np.int64)
    total = int(weights.sum())
    if total <= 0:
        return np.zeros(len(weights), dtype=np.int64)
    density = max(float(est_edges), 0.0) * float(safety) / total
    slots = np.ceil(weights * density).astype(np.int64) + MIN_STRIP_SLOTS
    return np.minimum(slots, weights)


@dataclass
class ShmGatherResult:
    """Outcome of one shared-memory sweep.

    ``chunks`` holds per-strip key views into the shared region(s), in
    canonical strip order — the exact stream the pickled
    gather would have produced, valid only inside the gather context.
    """

    chunks: list = field(default_factory=list)
    n_edges: int = 0
    n_strips: int = 0
    n_zero_strips: int = 0
    n_retries: int = 0
    total_slots: int = 0
    nbytes: int = 0


@contextmanager
def shm_conflict_gather(
    n: int,
    edge_mask_fn,
    col_lists: np.ndarray,
    palette_size: int,
    chunk_size: int = 1 << 18,
    engine: str = "tiled",
    edge_block_fn=None,
    tile_bytes: int | None = None,
    tile: int | None = None,
    executor=None,
    est_conflict_edges: float | None = None,
    safety: float = SHM_SAFETY,
    source=None,
    active_idx: np.ndarray | None = None,
    region_cb=None,
    region_pool: "ShmRegionPool | None" = None,
    kernel_backend: str | None = None,
):
    """Run one conflict sweep through the shared-memory gather path.

    Same domain decomposition, payload shipping and strip order as
    :func:`repro.parallel.pool.conflict_sweep_chunks`, but hit arrays
    come back through a shared key region instead of the result pipe.
    Yields a :class:`ShmGatherResult` whose ``chunks`` feed
    :func:`repro.graphs.csr.csr_from_coo_chunks` with no copy; the
    region is closed and unlinked when the context exits.

    ``region_cb``, when given, is called with the byte size of each
    region before it is created — the hook the device build uses to
    charge shared staging against its budget (it may raise to veto).
    ``source``/``active_idx`` enable the persistent-pool delta payload
    (see :mod:`repro.parallel.pool`).  Works with any executor; the
    serial backend simply runs the same strip tasks in-process.

    ``region_pool`` (a :class:`ShmRegionPool`) supplies the *main*
    region from a reused double-buffered pool instead of a per-sweep
    segment; the pool owns that region's lifetime, while retry regions
    always stay per-sweep.
    Pooled acquisitions skip ``region_cb`` (the budget hook charges new
    segments, and the device build never pools).
    """
    # Imported here, not at module top: pool.py imports this module for
    # the worker-side write path.
    from repro.parallel import pool as _pool
    from repro.parallel.executor import SerialExecutor

    if executor is None:
        executor = SerialExecutor()
    plan, tile, colmasks = _pool.sweep_plan(
        n, col_lists, palette_size, engine, tile, tile_bytes,
        edge_mask_fn, edge_block_fn,
    )
    tasks, weights = _pool.sweep_strip_tasks(n, engine, tile, executor, plan)
    result = ShmGatherResult(n_strips=len(tasks))
    if not tasks:
        yield result
        return

    if est_conflict_edges is None:
        est_conflict_edges = estimate_conflict_edges(
            n, palette_size, col_lists.shape[1]
        )
    slots = plan_strip_slots(weights, est_conflict_edges, safety)
    offsets = np.zeros(len(slots) + 1, dtype=np.int64)
    np.cumsum(slots, out=offsets[1:])
    result.total_slots = int(offsets[-1])

    payload_args = dict(
        n=n, engine=engine, tile=tile, chunk_size=chunk_size,
        colmasks=colmasks, edge_mask_fn=edge_mask_fn,
        edge_block_fn=edge_block_fn,
        source=source, active_idx=active_idx, executor=executor,
        kernel_backend=kernel_backend, plan=plan,
    )
    task_fn = (
        _pool.run_tile_strip_shm if engine == "tiled"
        else _pool.run_pair_range_shm
    )

    regions: list[ShmCooRegion] = []
    dtype = key_layout(n)[1]

    def _new_region(capacity: int) -> ShmCooRegion:
        capacity = max(int(capacity), 1)
        if region_cb is not None:
            region_cb(dtype.itemsize * capacity)
        region = ShmCooRegion.create(capacity, dtype)
        telemetry.count("shm.region.create")
        regions.append(region)
        return region

    try:
        if region_pool is not None:
            region = region_pool.acquire(result.total_slots, dtype)
        else:
            region = _new_region(result.total_slots)
        shm_tasks = [
            (
                t,
                (region.name, region.capacity, int(offsets[k]), int(slots[k])),
            )
            for k, t in enumerate(tasks)
        ]
        counts = list(
            _pool.imap_sweep(executor, task_fn, shm_tasks, payload_args)
        )

        # Grow-and-retry: strips that overflowed reported their exact
        # hit count; a second region sized by those counts re-runs just
        # them (the payload is already installed — no re-initialization).
        failed = [k for k, c in enumerate(counts) if c < 0]
        chunk_src: list[tuple[ShmCooRegion, int]] = [
            (region, int(offsets[k])) for k in range(len(tasks))
        ]
        if failed:
            result.n_retries = len(failed)
            telemetry.count("shm.grow_retry", float(len(failed)))
            needed = np.array([-counts[k] for k in failed], dtype=np.int64)
            retry_offsets = np.zeros(len(failed) + 1, dtype=np.int64)
            np.cumsum(needed, out=retry_offsets[1:])
            retry_region = _new_region(int(retry_offsets[-1]))
            result.total_slots += int(retry_offsets[-1])
            retry_tasks = [
                (
                    tasks[k],
                    (
                        retry_region.name,
                        retry_region.capacity,
                        int(retry_offsets[r]),
                        int(needed[r]),
                    ),
                )
                for r, k in enumerate(failed)
            ]
            # Through imap_sweep, not a bare imap: the retry must
            # re-install the payload (a delta no-op while the token is
            # still held) so a worker respawned since the main pass
            # does not run the strip against empty state.
            retry_counts = list(
                _pool.imap_sweep(executor, task_fn, retry_tasks, payload_args)
            )
            for r, k in enumerate(failed):
                if retry_counts[r] < 0:  # pragma: no cover - exact sizing
                    raise RuntimeError("shm retry region overflowed")
                counts[k] = retry_counts[r]
                chunk_src[k] = (retry_region, int(retry_offsets[r]))

        result.nbytes = sum(r.nbytes for r in regions)
        if region_pool is not None:
            result.nbytes += region.nbytes
        telemetry.count("shm.bytes_reserved", float(result.nbytes))
        result.n_zero_strips = sum(1 for c in counts if c == 0)
        result.n_edges = int(sum(counts))
        result.chunks = [
            src.slice(off, counts[k])
            for k, (src, off) in enumerate(chunk_src)
            if counts[k]
        ]
        yield result
    finally:
        # Workers first (close their cached attachments), then drop our
        # views, then release the segments.  The chunk list is cleared
        # *in place*: consumers were handed this exact list object, and
        # a rebind would leave their reference still pinning the views.
        _pool.finalize_sweep(executor)
        result.chunks.clear()
        for r in regions:
            r.close()
            r.unlink()
