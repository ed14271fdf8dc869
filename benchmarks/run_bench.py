"""Perf-trajectory entry point: engines, backends and coloring.

Runs ``Picasso.color`` end to end on random Pauli sets across the axes
grown so far:

- **pair-sweep engine** — ``tiled`` block-broadcast kernels vs the
  legacy ``pairs`` gather kernels;
- **execution backend** — serial and a ``--workers``-sized persistent
  pool (strip results pickled through its result pipe);
- **coloring engine** — the serial bitset Algorithm 2
  (``greedy-dynamic``) vs the round-synchronous ``parallel-list``
  engine (``--color-engine`` picks any registry engine for these rows),
  both as ``color_serial`` (in-process rounds) and ``color_pool``
  (rounds dispatched over the worker pool, sweep *and* color sharing
  one persistent pool via channelled payload tokens);
- **distributed backend** (new) — the same run sharded over socket
  worker agents (:mod:`repro.distributed`): ``--hosts`` names running
  agents, otherwise a loopback :class:`~repro.distributed.local.
  LocalCluster` of ``--cluster-shards`` agents is spawned for the row.
  On one box this measures transport overhead, not speedup (strips
  still contend for the same cores) — the row exists to keep the
  cross-host dispatch on the perf trajectory and to assert the
  bit-identity contract end to end.

Each case records a per-phase breakdown (assign / conflict build /
conflict color wall-time) for the serial and parallel coloring engines
plus the measured **serial-fraction reduction**: after PRs 1–3
parallelized the build, Algorithm 2 was the dominant serial fraction of
an iteration; the breakdown shows how much of it the parallel engine
removes.  Backend identity is asserted per engine — every backend
builds a bit-identical conflict CSR, and the round-synchronous
coloring is partition-independent, so colorings must match exactly for
a given seed *within* an engine.  Across engines the group count may
differ (lowest-bit speculative picks trade a few percent of quality for
round-parallelism); the delta is recorded, not hidden.

- **checkpointing** — the serial tiled run with an every-iteration
  snapshot (``checkpoint_dir`` set, ``checkpoint_every=1``, the worst
  case) against the same run with checkpointing off; the
  ``checkpoint_overhead_pct`` metric is the acceptance number (<= 5%
  on the 10k headline) and the checkpointed run participates in the
  bit-identity assertion, since a snapshot that perturbed the
  trajectory would defeat its purpose.

- **kernel backend** (new) — when the numba runtime imports, a
  ``tiled_numba`` row runs the same serial tiled iterate with the
  compiled kernel backend (``PicassoParams(kernel_backend="numba")``)
  and joins the bit-identity assertion; ``compiled_kernel_speedup`` is
  the numpy/numba ratio of the conflict-build (sweep) phase.  Per-
  kernel ns/word microbenchmarks live in ``bench_kernels.py``.

- **telemetry** (new) — a probe pass re-runs the last case with
  telemetry enabled and records the headline counter totals (transport
  bytes over the cluster row, pool install delta hit-rate) plus the
  merged Prometheus snapshot as an artifact next to
  the report; a microbenchmark of the disabled no-op hooks asserts the
  default-off path adds < 2% to the headline wall time.

Elapsed seconds land in ``BENCH_PR<next>.json`` at the repo root,
where ``<next>`` is one past the newest committed trajectory file; the
JSON files form the performance trajectory (``BENCH_PR1..9.json`` hold
the earlier axes — the sequence has gaps where a PR shipped no perf
change), so regressions are visible in review.

The parallel rows record ``host_cpu_count``; on hosts with fewer cores
than ``--workers`` the speedup is bounded by the core count (a
single-core box demonstrates bit-identical correctness plus
dispatch/communication deltas, not parallel speedup) and the report
says so explicitly.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py               # incl. 10k headline
    PYTHONPATH=src python benchmarks/run_bench.py --workers 4
    PYTHONPATH=src python benchmarks/run_bench.py --quick       # small sizes only
    PYTHONPATH=src python benchmarks/run_bench.py --color-engine sets
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

import numpy as np

from repro import telemetry
from repro.coloring.engine import available_engines
from repro.core import Picasso, PicassoParams
from repro.device.backends import available_backends
from repro.pauli import random_pauli_set

_BENCH_DIR = pathlib.Path(__file__).resolve().parent
if str(_BENCH_DIR) not in sys.path:  # direct `python benchmarks/...` run
    sys.path.insert(0, str(_BENCH_DIR))
from check_regression import (  # noqa: E402
    newest_pr_number,
    next_pr_number,
    quick_report_path,
)

REPO_ROOT = _BENCH_DIR.parent


def out_path(quick: bool) -> pathlib.Path:
    """Report destination, numbered off the committed trajectory.

    A full run writes the *next* trajectory file at the repo root
    (newest committed + 1 — the number this PR will commit under);
    ``--quick`` writes under the ignored results directory, named for
    the newest *committed* file (the baseline the CI gate compares it
    against), so a CI smoke run can never land an artifact in the tree
    or clobber the committed full-size trajectory.  Both derivations
    tolerate gaps in the PR sequence (there is no ``BENCH_PR8.json``).
    """
    if quick:
        return quick_report_path(REPO_ROOT)
    return REPO_ROOT / f"BENCH_PR{next_pr_number(REPO_ROOT)}.json"


def telemetry_snapshot_path(quick: bool) -> pathlib.Path:
    """The Prometheus-text artifact written next to the quick report
    (CI uploads it alongside the bench JSON)."""
    k = newest_pr_number(REPO_ROOT) if quick else next_pr_number(REPO_ROOT)
    suffix = ".quick.telemetry.prom" if quick else ".telemetry.prom"
    return REPO_ROOT / "benchmarks" / "results" / f"BENCH_PR{k}{suffix}"

#: (name, n strings, n qubits) — the last row is the acceptance
#: headline: 10k strings over 50 qubits.
CASES = [
    ("small", 2_000, 16),
    ("medium", 5_000, 30),
    ("headline_10k", 10_000, 50),
]
QUICK_CASES = CASES[:1]


def run_config(pauli_set, params: PicassoParams, seed: int, repeats: int = 2) -> dict:
    """Best-of-``repeats`` end-to-end timing (identical seeded runs, so
    the fastest repeat is the least noise-polluted measurement)."""
    total = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        r = Picasso(params=params, seed=seed).color(pauli_set)
        elapsed = time.perf_counter() - t0
        if elapsed < total:
            total, result = elapsed, r
    phases = result.phase_times()
    return {
        "total_s": round(total, 4),
        "assign_s": round(phases["assignment"], 4),
        "conflict_build_s": round(phases["conflict_graph"], 4),
        "conflict_color_s": round(phases["conflict_coloring"], 4),
        "sweep_s": round(phases["sweep"], 4),
        "assemble_s": round(phases["assemble"], 4),
        "n_colors": int(result.n_colors),
        "n_iterations": result.n_iterations,
        "color_engine": result.engine,
        "color_rounds": int(result.stats.get("color_rounds", 0)),
        "max_conflict_edges": int(result.max_conflict_edges),
        "colors": result.colors,
    }


def _counter(snap: dict, name: str) -> float:
    return float(snap["counters"].get(name, 0.0))


def telemetry_probe(pauli_set, hosts: str, workers: int, seed: int) -> tuple[dict, dict]:
    """Enabled re-run of one case on the pool and cluster backends:
    headline counter totals plus the merged snapshot.

    Runs after every timing measurement (the enabled path is not the
    one being timed) and leaves telemetry disabled behind it.
    """
    telemetry.reset()
    telemetry.enable(True)
    try:
        Picasso(
            params=PicassoParams(
                engine="tiled", n_workers=workers, telemetry=True,
            ),
            seed=seed,
        ).color(pauli_set)
        Picasso(
            params=PicassoParams(engine="tiled", hosts=hosts, telemetry=True),
            seed=seed,
        ).color(pauli_set)
        snap = telemetry.snapshot()
    finally:
        telemetry.enable(False)
        telemetry.reset()
    delta = _counter(snap, "pool.install.delta")
    full = _counter(snap, "pool.install.full")
    totals = {
        "transport_bytes_sent": int(_counter(snap, "transport.bytes_sent")),
        "transport_bytes_recv": int(_counter(snap, "transport.bytes_recv")),
        "install_delta_hit_rate": round(delta / max(delta + full, 1.0), 4),
        "span_events": len(snap["events"]),
    }
    return totals, snap


def disabled_overhead_pct(headline_total_s: float, snap: dict) -> tuple[float, float]:
    """Cost of the default-off telemetry hooks on the headline row.

    Microbenchmarks one disabled no-op hook call, scales it by the hook
    call volume the *enabled* probe actually recorded (spans enter
    through three calls; each counter whose value is a count fired once
    per unit; byte totals share their call sites' frame counters;
    histogram observations carry their own count), and
    returns ``(pct_of_headline, ns_per_call)``.
    """
    assert not telemetry.enabled()
    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        telemetry.count("bench.noop")
    per_call = (time.perf_counter() - t0) / n
    ops = 3.0 * len(snap["events"])
    for key, val in snap["counters"].items():
        if "bytes" not in key:
            ops += val
    # Byte totals fire one hook per frame alongside these.
    ops += _counter(snap, "transport.frames_sent")
    ops += _counter(snap, "transport.frames_recv")
    for hist in snap["hists"].values():
        ops += hist.get("count", 0.0)
    pct = 100.0 * per_call * ops / max(headline_total_s, 1e-9)
    return round(pct, 4), round(per_call * 1e9, 1)


def phase_breakdown(row: dict) -> dict:
    """Build-vs-color wall-time split of one config row."""
    total = max(row["total_s"], 1e-9)
    return {
        "build_s": row["conflict_build_s"],
        "color_s": row["conflict_color_s"],
        "build_fraction": round(row["conflict_build_s"] / total, 4),
        "color_fraction": round(row["conflict_color_s"] / total, 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes only (CI smoke); skips the 10k headline case",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="pool size for the parallel rows (default 4, the "
        "acceptance configuration)",
    )
    parser.add_argument(
        "--color-engine",
        default="parallel-list",
        dest="color_engine",
        choices=list(available_engines()),
        help="registry engine for the parallel-coloring rows "
        "(default parallel-list)",
    )
    parser.add_argument(
        "--hosts",
        default=None,
        metavar="HOST:PORT,...",
        help="running worker agents for the distributed row; when "
        "omitted, a loopback LocalCluster of --cluster-shards agents "
        "is spawned for the run",
    )
    parser.add_argument(
        "--cluster-shards",
        type=int,
        default=2,
        metavar="N",
        help="loopback agents for the distributed row when --hosts is "
        "not given (default 2, the CI configuration)",
    )
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    cases = QUICK_CASES if args.quick else CASES
    # PR 9 axis: the compiled kernel backend, present only where its
    # runtime imports (the CI numba leg; a plain host records "numpy").
    kernel_backend = "numba" if "numba" in available_backends() else "numpy"
    report = {
        "benchmark": (
            "distributed socket-sharded sweep+coloring vs the "
            f"single-host axes: greedy-dynamic vs {args.color_engine} "
            "coloring, plus the PR 1-3 backend/gather rows"
        ),
        "n_workers": args.workers,
        "color_engine": args.color_engine,
        "kernel_backend": kernel_backend,
        "host_cpu_count": cpu_count,
        "cases": [],
    }
    # Distributed row substrate: running agents (--hosts) or a loopback
    # cluster spawned for the run.  Agents are daemon processes, so an
    # aborted bench cannot leak them past interpreter exit.
    import contextlib

    stack = contextlib.ExitStack()
    if args.hosts:
        hosts = args.hosts
        report["hosts"] = hosts
    else:
        from repro.distributed import LocalCluster

        cluster = stack.enter_context(LocalCluster(args.cluster_shards))
        hosts = ",".join(cluster.hosts)
        report["hosts"] = f"loopback x{args.cluster_shards}"
    if cpu_count < args.workers:
        report["core_ceiling_note"] = (
            f"host exposes {cpu_count} core(s) < {args.workers} workers: "
            "parallel rows are bounded by the core count and mainly "
            "demonstrate bit-identical correctness plus dispatch/gather "
            "overhead; the color-phase rows still measure the vectorized "
            "round-synchronous engine against the per-vertex greedy loop "
            "(an algorithmic, not core-count, effect); re-run on a "
            "multi-core host for the throughput numbers"
        )
    # One exit seam for the loopback agents: whatever the case loop
    # does — finish, assert-divergence return, or raise — the cluster
    # is torn down here, not at each exit site.
    try:
        return _run_cases(args, report, hosts, cases, kernel_backend)
    finally:
        stack.close()


def _run_cases(args, report, hosts, cases, kernel_backend) -> int:
    """The per-case measurement loop (cluster lifetime owned by main)."""
    for name, n, nq in cases:
        pauli_set = random_pauli_set(n, nq, seed=0)
        # PR 1-3 axes (greedy-dynamic coloring throughout).
        tiled = run_config(pauli_set, PicassoParams(engine="tiled"), args.seed)
        tiled_par = run_config(
            pauli_set,
            PicassoParams(engine="tiled", n_workers=args.workers),
            args.seed,
        )
        gather = run_config(pauli_set, PicassoParams(engine="pairs"), args.seed)
        # PR 9 axis: the serial tiled iterate on the compiled kernel
        # backend.  On hosts without numba this row is skipped (not run
        # on the silent numpy fallback, which would report a fake 1.0x).
        tiled_compiled = None
        if kernel_backend != "numpy":
            tiled_compiled = run_config(
                pauli_set,
                PicassoParams(engine="tiled", kernel_backend=kernel_backend),
                args.seed,
            )
        # PR 4 axis: the selected coloring engine, rounds in-process vs
        # dispatched over the shared persistent pool (the full parallel
        # iterate: sweep and color on one pool).
        color_serial = run_config(
            pauli_set,
            PicassoParams(engine="tiled", color_engine=args.color_engine),
            args.seed,
        )
        color_pool = run_config(
            pauli_set,
            PicassoParams(
                engine="tiled",
                color_engine=args.color_engine,
                n_workers=args.workers,
            ),
            args.seed,
        )
        # PR 5 axis: the full run sharded over socket worker agents —
        # sweep strips dealt round-robin across hosts, greedy-dynamic
        # coloring — must land on the same colors as every single-host
        # backend.
        cluster_row = run_config(
            pauli_set,
            PicassoParams(engine="tiled", hosts=hosts),
            args.seed,
        )
        # PR 6 axis: the same serial run snapshotting every iteration —
        # the worst-case checkpoint cadence.  The overhead metric is
        # the acceptance number; the colors join the identity assert.
        with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as ckpt_dir:
            checkpointed = run_config(
                pauli_set,
                PicassoParams(
                    engine="tiled",
                    checkpoint_dir=ckpt_dir,
                    checkpoint_every=1,
                ),
                args.seed,
            )
        identical = bool(
            np.array_equal(tiled["colors"], gather["colors"])
            and np.array_equal(tiled["colors"], tiled_par["colors"])
            and np.array_equal(tiled["colors"], cluster_row["colors"])
            and np.array_equal(tiled["colors"], checkpointed["colors"])
            and (
                tiled_compiled is None
                or np.array_equal(tiled["colors"], tiled_compiled["colors"])
            )
        )
        # Within the coloring engine, serial and pooled rounds must be
        # bit-identical (round-synchronous rounds are partition-
        # independent) — the "same number of groups +-0" contract of
        # the engine across backends.
        identical_color = bool(
            np.array_equal(color_serial["colors"], color_pool["colors"])
        )
        same_n_groups = bool(
            color_serial["n_colors"] == color_pool["n_colors"]
        )
        for row in (
            tiled, tiled_par, gather,
            color_serial, color_pool, cluster_row, checkpointed,
            *([tiled_compiled] if tiled_compiled else []),
        ):
            row.pop("colors")
        checkpoint_overhead_pct = round(
            100.0
            * (checkpointed["total_s"] - tiled["total_s"])
            / max(tiled["total_s"], 1e-9),
            2,
        )
        engine_speedup = gather["total_s"] / max(tiled["total_s"], 1e-9)
        workers_build_speedup = tiled["conflict_build_s"] / max(
            tiled_par["conflict_build_s"], 1e-9
        )
        # The ISSUE 4 headline: how much of the iteration's serial
        # fraction the parallel coloring engine removes.
        greedy_phases = phase_breakdown(tiled)
        parallel_phases = phase_breakdown(color_serial)
        color_speedup = tiled["conflict_color_s"] / max(
            color_serial["conflict_color_s"], 1e-9
        )
        serial_fraction_reduction = round(
            greedy_phases["color_fraction"] - parallel_phases["color_fraction"], 4
        )
        quality_delta_pct = round(
            100.0
            * (color_serial["n_colors"] - tiled["n_colors"])
            / max(tiled["n_colors"], 1),
            2,
        )
        # The PR 9 headline: numpy/compiled ratio of the conflict-build
        # (sweep) phase — None where no compiled runtime imports.
        compiled_kernel_speedup = (
            round(
                tiled["conflict_build_s"]
                / max(tiled_compiled["conflict_build_s"], 1e-9),
                2,
            )
            if tiled_compiled is not None
            else None
        )
        row = {
            "name": name,
            "n_strings": n,
            "n_qubits": nq,
            "tiled": tiled,
            "tiled_parallel": tiled_par,
            "gather": gather,
            "color_serial": color_serial,
            "color_pool": color_pool,
            "cluster": cluster_row,
            "checkpointed": checkpointed,
            **(
                {f"tiled_{kernel_backend}": tiled_compiled}
                if tiled_compiled is not None
                else {}
            ),
            # Distinct keys: --color-engine greedy-dynamic is a valid
            # choice and must not collapse the dict onto the baseline.
            "phase_breakdown": {
                "baseline_greedy_dynamic": greedy_phases,
                f"color_{args.color_engine}": parallel_phases,
            },
            "compiled_kernel_speedup": compiled_kernel_speedup,
            "engine_speedup": round(engine_speedup, 2),
            "workers_build_speedup": round(workers_build_speedup, 2),
            # >1 needs real extra hosts; on one box this is transport
            # overhead and the number to watch is how small it stays.
            "cluster_build_speedup": round(
                tiled["conflict_build_s"]
                / max(cluster_row["conflict_build_s"], 1e-9),
                2,
            ),
            "color_phase_speedup": round(color_speedup, 2),
            # Worst-case cadence (every iteration); acceptance wants
            # <= 5% on the headline.  Can dip negative within run-to-
            # run noise when snapshots are cheap.
            "checkpoint_overhead_pct": checkpoint_overhead_pct,
            "serial_fraction_reduction": serial_fraction_reduction,
            "color_quality_delta_pct": quality_delta_pct,
            "identical_colorings": identical,
            "identical_colorings_color_engine": identical_color,
            "same_n_groups_across_backends": same_n_groups,
        }
        report["cases"].append(row)
        print(
            f"{name:<14} n={n:>6} tiled={tiled['total_s']:>8.2f}s "
            f"{args.color_engine}={color_serial['total_s']:>8.2f}s "
            f"cluster={cluster_row['total_s']:>8.2f}s "
            f"color_phase {tiled['conflict_color_s']:.2f}s->"
            f"{color_serial['conflict_color_s']:.2f}s "
            f"({color_speedup:.2f}x, serial fraction "
            f"{greedy_phases['color_fraction']:.2f}->"
            f"{parallel_phases['color_fraction']:.2f}) "
            f"ckpt_overhead {checkpoint_overhead_pct:+.1f}% "
            f"quality {quality_delta_pct:+.1f}% "
            + (
                f"compiled({kernel_backend}) {compiled_kernel_speedup:.2f}x "
                if compiled_kernel_speedup is not None
                else ""
            )
            + f"identical={identical}/{identical_color}"
        )
        if not identical or not identical_color or not same_n_groups:
            print("ERROR: backends diverged", file=sys.stderr)
            return 1

    # PR 10: telemetry probe (enabled re-run of the last case) plus the
    # disabled-by-default overhead assertion against the headline row.
    name, n, nq = cases[-1]
    pauli_set = random_pauli_set(n, nq, seed=0)
    totals, snap = telemetry_probe(pauli_set, hosts, args.workers, args.seed)
    headline_total = report["cases"][-1]["tiled"]["total_s"]
    overhead_pct, ns_per_call = disabled_overhead_pct(headline_total, snap)
    report["telemetry"] = {
        "probe_case": name,
        **totals,
        "disabled_ns_per_call": ns_per_call,
        "disabled_overhead_pct": overhead_pct,
    }
    print(
        f"telemetry probe ({name}): transport "
        f"{totals['transport_bytes_sent']:,}B out / "
        f"{totals['transport_bytes_recv']:,}B in, install delta hit-rate "
        f"{totals['install_delta_hit_rate']:.2f}, disabled overhead "
        f"{overhead_pct:.4f}% ({ns_per_call:.0f} ns/hook)"
    )
    if overhead_pct >= 2.0:
        print(
            f"ERROR: disabled telemetry overhead {overhead_pct:.2f}% "
            "exceeds the 2% acceptance bound on the headline row",
            file=sys.stderr,
        )
        return 1

    # Resolve both destinations before the report lands: a full run
    # advances the trajectory, which would shift a late derivation of
    # the snapshot name to the *next* PR number.
    dest = out_path(args.quick)
    snap_path = telemetry_snapshot_path(args.quick)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {dest}")
    snap_path.parent.mkdir(parents=True, exist_ok=True)
    telemetry.write_prometheus(snap_path, snap)
    print(f"wrote {snap_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
