"""Picasso parameters (paper Table I) and the paper's two presets."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.coloring.engine import available_engines
from repro.device.tiles import DEFAULT_TILE_BYTES


@dataclass(frozen=True)
class PicassoParams:
    """The two knobs of the trade-off (§IV, §VII-D) plus run controls.

    Attributes
    ----------
    palette_fraction:
        ``P`` as a fraction of the current vertex count (the paper's
        percentile palette size ``P' / 100``).  Smaller -> fewer final
        colors, more conflict edges, more work.
    alpha:
        List-size coefficient: ``L = max(1, round(alpha * ln |V|))``,
        capped at the palette size.  Larger -> better colorability of
        the conflict graph, more conflict edges.
    conflict_order:
        How to color the conflict graph: ``"dynamic"`` (Algorithm 2,
        the paper's choice) or a static list order
        (``"natural" | "random" | "lf"``).
    max_iterations:
        Safety valve on the outer loop of Algorithm 1.
    grow_on_stall:
        If an iteration colors nothing, multiply the palette fraction
        by this factor for subsequent iterations (implementation detail
        guaranteeing termination; 1.0 disables).
    chunk_size:
        Pairs per kernel launch in conflict-graph construction
        (``"pairs"`` engine only; must be >= 1).
    min_palette:
        Floor on the per-iteration palette size ``P_l`` (>= 1).
    engine:
        Pair-sweep engine: ``"tiled"`` (default — the block-broadcast
        kernel engine of :mod:`repro.device.tiles`, with the bitset
        Algorithm 2; each host sweep enumerates through the inverted
        palette index of :mod:`repro.device.palette_index` instead
        when its cost rule says that is cheaper) or ``"pairs"`` (the
        original flat pair-chunk gather kernels plus the Python-set
        Algorithm 2, kept as the ablation baseline).  Both engines
        build identical conflict graphs and draw identical random
        numbers, so colorings match for a given seed.
    tile_budget_bytes:
        Per-tile scratch budget for the tiled engine's tile sweep (sets
        the tile edge; see :func:`repro.device.tiles.tile_edge`).  The
        default, :data:`~repro.device.tiles.DEFAULT_TILE_BYTES`
        (768 KiB, ``T = 256``), keeps a tile's word-AND temporary in a
        per-core L2.  A sizing hint, not a hard cap: the tile edge
        never drops below the 64-row minimum, so budgets under ~41 KB
        are exceeded.  Sweeps that take the inverted palette index
        (:mod:`repro.device.palette_index`) use no tiles.
    n_workers:
        Worker processes for conflict-graph construction.  1 (default)
        streams the sweep in-process; >= 2 partitions the sweep domain
        into balanced contiguous strips dispatched over a process pool.
        Serial and parallel builds are bit-identical per seed, so this
        is purely a throughput knob.
    executor:
        Execution backend: ``"auto"`` (serial for one worker, pool
        otherwise — or the cluster backend when ``hosts`` is set),
        ``"serial"`` (force in-process), ``"pool"`` (force a process
        pool even for one worker), or ``"cluster"`` (shard over
        multi-host worker agents; requires ``hosts`` or the
        ``REPRO_HOSTS`` environment variable).  Pools and cluster
        connections are persistent: created once per run, reused
        across Algorithm 1 iterations (only the per-iteration sweep-plan
        delta ships to the workers), and closed when the run ends.
        See :mod:`repro.parallel.executor` /
        :mod:`repro.distributed.cluster`.
    pin_workers:
        Pin each pool worker to one core via ``os.sched_setaffinity``
        so its tile scratch stays NUMA-local; silently ignored on
        platforms without the call.
    color_engine:
        Which Algorithm 2 implementation colors the conflict graph
        (:mod:`repro.coloring.engine` registry).  ``"auto"`` (default)
        keeps the historical pairing — the bitset ``greedy-dynamic``
        for the tiled engine, the ``sets`` reference for the pairs
        ablation, ``greedy-static`` when ``conflict_order`` names a
        static order.  ``"parallel-list"`` selects the
        round-synchronous speculative engine, whose rounds dispatch
        over the run's executor (sweep *and* color then share one
        persistent pool); output is deterministic per seed for any
        worker count.  An explicit engine name always wins over
        ``conflict_order``.
    color_max_rounds:
        Safety valve for the round-synchronous engines (``None`` =
        vertex count + 1, a true upper bound).
    hosts:
        Worker-agent addresses for the distributed backend
        (:mod:`repro.distributed`): ``"host:port,host:port"`` or a
        tuple of such strings.  Setting it routes ``executor="auto"``
        to a :class:`~repro.distributed.cluster.ClusterExecutor`; the
        sweep strips and coloring round picks shard across the agents
        and merge in canonical order, so distributed CSR builds and
        colorings are **bit-identical per seed** to serial for any
        shard count — like ``n_workers``, purely a throughput knob.
        Strip results come back through the framed socket stream, as a
        pool's come back through its result pipe.
    transport:
        Wire protocol for the distributed backend; ``"socket"`` (the
        length-prefixed raw-buffer protocol) is the only one today.
    checkpoint_dir:
        Directory for atomic snapshots of Algorithm 1 state
        (:mod:`repro.resilience.checkpoint`).  ``None`` (default)
        disables checkpointing.  Snapshots are written at the bottom of
        every ``checkpoint_every``-th iteration; a killed run restarted
        with ``resume=True`` picks up from the newest valid snapshot
        and finishes **bit-identical per seed** to an uninterrupted
        run — on any backend, since the fingerprint deliberately
        excludes execution knobs.
    checkpoint_every:
        Snapshot cadence in iterations (1 = every iteration).
    resume:
        Start from the newest valid checkpoint in ``checkpoint_dir``
        instead of from scratch (no-op when the directory has none —
        a fresh run that crashes early can always be relaunched with
        the same flags).
    failover:
        Backend degradation chain for the supervisor
        (:mod:`repro.resilience.supervisor`): a comma-separated string
        or tuple of ``"cluster" | "pool" | "serial"``, tried in order
        after the current backend exhausts its retries (canonically
        ``executor="cluster"`` with ``failover="pool,serial"``).
        ``None`` disables failover; setting it (or ``max_retries``)
        turns supervision on, which also enables shard redistribution
        on cluster backends.  Recovery is invisible in the output:
        retried, redistributed and failed-over runs are bit-identical
        per seed.
    max_retries:
        Bounded-failure retries per backend per sweep before failing
        over (or raising); ``None`` defers to ``REPRO_MAX_RETRIES``
        (default 2) when supervision is on.
    kernel_backend:
        Compute-kernel backend for the hot word kernels
        (:mod:`repro.device.backends` registry): ``"numpy"`` (the
        vectorized default) or ``"numba"`` (compiled CPU loops).
        ``"auto"`` (default) defers to the ``REPRO_KERNEL_BACKEND``
        environment variable, then numpy.
        Backends are **bit-identical per seed** — CSR structures and
        colorings never change with this knob, only throughput.  The
        name ships to pool and cluster workers, each of which resolves
        it against its own environment (missing runtimes degrade to
        numpy with a stderr note).  An execution knob, so it is
        excluded from checkpoint fingerprints like ``n_workers``.
    telemetry:
        Record structured metrics and trace spans for the run
        (:mod:`repro.telemetry`): dispatcher phase spans, worker-side
        strip spans, transport byte counters, install/recycle/retry
        counts, merged into one view on the dispatcher and exposed as
        ``PicassoResult.telemetry``.  ``None`` (default) defers to the
        ``REPRO_TELEMETRY`` environment variable (truthy = on); an
        explicit bool always wins.  Telemetry is **neutral**: runs with
        it on and off are bit-identical per seed on every backend — it
        is write-only from the algorithm's point of view.  An execution
        knob, excluded from checkpoint fingerprints.
    """

    palette_fraction: float = 0.125
    alpha: float = 2.0
    conflict_order: str = "dynamic"
    max_iterations: int = 200
    grow_on_stall: float = 2.0
    chunk_size: int = 1 << 18
    min_palette: int = 1
    engine: str = "tiled"
    tile_budget_bytes: int = DEFAULT_TILE_BYTES
    n_workers: int = 1
    executor: str = "auto"
    pin_workers: bool = False
    color_engine: str = "auto"
    color_max_rounds: int | None = None
    hosts: str | tuple | None = None
    transport: str = "socket"
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = False
    failover: str | tuple | None = None
    max_retries: int | None = None
    kernel_backend: str = "auto"
    telemetry: bool | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.palette_fraction <= 1.0:
            raise ValueError("palette_fraction must be in (0, 1]")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.conflict_order not in ("dynamic", "natural", "random", "lf"):
            raise ValueError(f"unknown conflict_order {self.conflict_order!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.grow_on_stall < 1.0:
            raise ValueError("grow_on_stall must be >= 1.0")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.min_palette < 1:
            raise ValueError("min_palette must be >= 1")
        if self.engine not in ("tiled", "pairs"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.tile_budget_bytes < 1:
            raise ValueError("tile_budget_bytes must be positive")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.executor not in ("auto", "serial", "pool", "cluster"):
            raise ValueError(f"unknown executor {self.executor!r}")
        if self.transport != "socket":
            raise ValueError(
                f"unknown transport {self.transport!r} (available: 'socket')"
            )
        if self.hosts is not None:
            if self.executor not in ("auto", "cluster"):
                raise ValueError(
                    "hosts requires executor='cluster' (or 'auto')"
                )
            # Fail on a malformed spec here, not mid-run at connect time.
            from repro.distributed.transport import parse_hosts

            parse_hosts(self.hosts)
        if self.color_engine != "auto" and self.color_engine not in available_engines():
            raise ValueError(
                f"unknown color_engine {self.color_engine!r}; "
                f"available: {('auto',) + available_engines()}"
            )
        if self.color_max_rounds is not None and self.color_max_rounds < 1:
            raise ValueError("color_max_rounds must be >= 1 or None")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        if self.failover is not None:
            # Fail on a malformed chain here, not after the first crash
            # (when the operator can no longer fix the spelling).
            from repro.resilience.supervisor import _parse_chain

            _parse_chain(self.failover)
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max_retries must be >= 0 or None")
        if self.kernel_backend != "auto":
            # Registered, not available: naming "numba" on a dispatch
            # host without it is legitimate when the workers have it
            # (and degrades to numpy bit-identically when they don't).
            from repro.device.backends import registered_backends

            if self.kernel_backend not in registered_backends():
                raise ValueError(
                    f"unknown kernel_backend {self.kernel_backend!r}; "
                    f"available: {('auto',) + registered_backends()}"
                )

    @property
    def supervised(self) -> bool:
        """True when the run should wrap its executor in the
        retry/failover supervisor."""
        return self.failover is not None or self.max_retries is not None

    def palette_size(self, n_active: int) -> int:
        """``P_l`` for the current subproblem size."""
        return max(self.min_palette, round(self.palette_fraction * n_active))

    def list_size(self, n_active: int) -> int:
        """``L_l = alpha * ln |V|``, at least 1, at most the palette."""
        if n_active <= 1:
            return 1
        raw = max(1, round(self.alpha * math.log(n_active)))
        return min(raw, self.palette_size(n_active))

    def resolved_color_engine(self) -> str:
        """The registry name ``color_engine="auto"`` resolves to.

        Preserves the historical pairing (bitset engine on ``tiled``,
        set reference on ``pairs``, static engine under a static
        ``conflict_order``); an explicit engine name passes through.
        """
        if self.color_engine != "auto":
            return self.color_engine
        if self.conflict_order != "dynamic":
            return "greedy-static"
        return "greedy-dynamic" if self.engine == "tiled" else "sets"

    def color_engine_knobs(self) -> dict:
        """Constructor knobs for the resolved engine."""
        name = self.resolved_color_engine()
        if name == "greedy-static":
            order = self.conflict_order if self.conflict_order != "dynamic" else "natural"
            return {"order": order}
        if name == "parallel-list":
            return {
                "max_rounds": self.color_max_rounds,
                "kernel_backend": self.resolved_kernel_backend(),
            }
        return {}

    def resolved_kernel_backend(self) -> str:
        """The backend name ``kernel_backend="auto"`` resolves to.

        An explicit name wins; ``"auto"`` consults
        ``REPRO_KERNEL_BACKEND`` (read per call, so a test can flip
        the variable without rebuilding params), landing on
        ``"numpy"`` when that is unset, empty or itself ``"auto"``.
        The result is always a concrete name: it ships in worker
        payloads, so the dispatcher and every worker agree on what was
        requested even when a worker's missing runtime makes it degrade
        to numpy locally.
        """
        if self.kernel_backend != "auto":
            return self.kernel_backend
        import os

        name = os.environ.get("REPRO_KERNEL_BACKEND", "").strip().lower()
        return name if name and name != "auto" else "numpy"

    def resolved_telemetry(self) -> bool:
        """Whether this run records telemetry.

        An explicit ``telemetry`` bool wins; otherwise the
        ``REPRO_TELEMETRY`` environment variable decides (read per
        call, like :meth:`resolved_kernel_backend`), defaulting to off — the
        disabled path is the zero-cost one.
        """
        if self.telemetry is not None:
            return self.telemetry
        from repro.telemetry import env_enabled

        return env_enabled()

    def with_(self, **kwargs) -> "PicassoParams":
        """Functional update."""
        return replace(self, **kwargs)


def normal_params(**overrides) -> PicassoParams:
    """The paper's "Normal" configuration: P = 12.5%, alpha = 2."""
    return PicassoParams(palette_fraction=0.125, alpha=2.0).with_(**overrides)


def aggressive_params(**overrides) -> PicassoParams:
    """The paper's "Aggressive" configuration: P = 3%, alpha = 30.

    Large lists over a small palette chase minimum colors at the cost
    of a much denser conflict graph (Table III vs Table IV).
    """
    return PicassoParams(palette_fraction=0.03, alpha=30.0).with_(**overrides)
