"""Command-line interface.

Subcommands mirror the workflows of the paper's evaluation:

- ``census``   — Table II dataset census for a suite tier;
- ``generate`` — molecule -> Pauli-set text file;
- ``color``    — color a Pauli-set file (Picasso or a baseline) and
  report colors / memory / iterations;
- ``sweep``    — (P', alpha) grid sweep with the Eq. 7 optima per beta;
- ``taper``    — Z2 symmetries and qubit tapering for a molecule.

Every subcommand takes the same three observability flags:
``--metrics-json PATH`` (one uniform run-summary JSON document, same
top-level schema everywhere, ``null`` where a field does not apply),
``--trace-json PATH`` (the merged telemetry event trace as JSON lines)
and ``--metrics-out PATH`` (a Prometheus-style text snapshot of the
telemetry counters).  The trace/snapshot flags enable telemetry for
the process; ``REPRO_TELEMETRY=1`` does the same without writing files.

Entry point: ``repro-picasso`` (or ``python -m repro.cli``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import telemetry


def _metrics_payload(
    command: str,
    *,
    algorithm: str | None = None,
    elapsed_s: float | None = None,
    n_colors: int | None = None,
    iterations: list | None = None,
    phase_times: dict | None = None,
    **extra,
) -> dict:
    """The uniform ``--metrics-json`` document.

    Every subcommand emits the same six top-level keys (``command``,
    ``algorithm``, ``elapsed_s``, ``n_colors``, ``iterations``,
    ``phase_times``) with ``null`` where a field does not apply, plus
    command-specific extras after them — so one consumer parses all
    five subcommands.
    """
    payload: dict = {
        "command": command,
        "algorithm": algorithm,
        "elapsed_s": elapsed_s,
        "n_colors": n_colors,
        "iterations": iterations,
        "phase_times": phase_times,
    }
    payload.update(extra)
    return payload


def _write_metrics_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"metrics written to {path}")


def _cmd_census(args: argparse.Namespace) -> int:
    from repro.datasets import load_molecule, suite_specs
    from repro.graphs import anticommute_edge_count

    t0 = telemetry.clock()
    rows = []
    print(f"{'molecule':<16} {'qubits':>7} {'terms':>9} {'anticommute edges':>18}")
    for spec in suite_specs(args.tier):
        ps = load_molecule(spec.name)
        m = anticommute_edge_count(ps)
        print(f"{spec.name:<16} {ps.n_qubits:>7} {ps.n:>9,} {m:>18,}")
        rows.append({
            "molecule": spec.name, "qubits": ps.n_qubits,
            "terms": ps.n, "anticommute_edges": int(m),
        })
    if args.metrics_json:
        _write_metrics_json(args.metrics_json, _metrics_payload(
            "census", elapsed_s=telemetry.clock() - t0,
            tier=args.tier, molecules=rows,
        ))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.chemistry import hn_pauli_set
    from repro.pauli import save_pauli_set

    t0 = telemetry.clock()
    ps = hn_pauli_set(args.atoms, args.dim, args.basis, transform=args.transform)
    save_pauli_set(ps, args.output)
    print(f"wrote {ps.n} Pauli strings over {ps.n_qubits} qubits to {args.output}")
    if args.metrics_json:
        _write_metrics_json(args.metrics_json, _metrics_payload(
            "generate", elapsed_s=telemetry.clock() - t0,
            n_strings=ps.n, n_qubits=ps.n_qubits, output=args.output,
        ))
    return 0


def _make_params(args: argparse.Namespace):
    from repro.core import PicassoParams, aggressive_params, normal_params

    if args.preset == "normal":
        base = normal_params()
    elif args.preset == "aggressive":
        base = aggressive_params()
    else:
        base = PicassoParams()
    overrides = {}
    if args.palette_percent is not None:
        overrides["palette_fraction"] = args.palette_percent / 100.0
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if getattr(args, "workers", None) is not None:
        overrides["n_workers"] = args.workers
    if getattr(args, "executor", None) is not None:
        overrides["executor"] = args.executor
    if getattr(args, "pin", False):
        overrides["pin_workers"] = True
    if getattr(args, "color_engine", None) is not None:
        overrides["color_engine"] = args.color_engine
    if getattr(args, "hosts", None) is not None:
        overrides["hosts"] = args.hosts
    if getattr(args, "checkpoint_dir", None) is not None:
        overrides["checkpoint_dir"] = args.checkpoint_dir
    if getattr(args, "checkpoint_every", None) is not None:
        overrides["checkpoint_every"] = args.checkpoint_every
    if getattr(args, "resume", False):
        overrides["resume"] = True
    if getattr(args, "failover", None) is not None:
        overrides["failover"] = args.failover
    if getattr(args, "max_retries", None) is not None:
        overrides["max_retries"] = args.max_retries
    return base.with_(**overrides)


def _write_metrics(path: str, result, algorithm: str) -> None:
    """The ``color`` run summary: uniform schema plus per-iteration
    stats and phase wall-time buckets.

    Picasso results carry the full iteration trace (including the
    sweep / assemble split of the build); baseline algorithms get the
    headline numbers with ``null`` iteration fields.
    """
    import dataclasses

    if algorithm == "picasso":
        payload = _metrics_payload(
            "color",
            algorithm=result.algorithm,
            elapsed_s=float(result.elapsed_s),
            n_colors=int(result.n_colors),
            iterations=[dataclasses.asdict(s) for s in result.iterations],
            phase_times={
                k: float(v) for k, v in result.phase_times().items()
            },
            peak_bytes=int(result.peak_bytes),
            n_iterations=result.n_iterations,
            max_conflict_edges=result.max_conflict_edges,
        )
    else:
        payload = _metrics_payload(
            "color",
            algorithm=result.algorithm,
            elapsed_s=float(result.elapsed_s),
            n_colors=int(result.n_colors),
            peak_bytes=int(result.peak_bytes),
        )
    _write_metrics_json(path, payload)


def _cmd_color(args: argparse.Namespace) -> int:
    from repro.core import Picasso
    from repro.core.sources import PauliComplementSource
    from repro.memory import bytes_human
    from repro.pauli import load_pauli_set

    ps = load_pauli_set(args.input)
    print(f"input: {ps.n} strings, {ps.n_qubits} qubits")
    if args.algorithm == "picasso":
        result = Picasso(params=_make_params(args), seed=args.seed).color(ps)
        ec = result.max_conflict_edges
        extra = f", {result.n_iterations} iterations, max |Ec| {'n/a' if ec is None else f'{ec:,}'}"
    else:
        from repro.coloring import (
            greedy_coloring,
            jones_plassmann_ldf,
            speculative_coloring,
        )
        from repro.graphs import complement_graph

        g = complement_graph(ps)
        if args.algorithm.startswith("greedy-"):
            result = greedy_coloring(g, args.algorithm.split("-", 1)[1], seed=args.seed)
        elif args.algorithm == "jp":
            result = jones_plassmann_ldf(g, seed=args.seed)
        else:
            result = speculative_coloring(g, seed=args.seed)
        extra = ""
    if args.validate:
        ok = PauliComplementSource(ps).validate(result.colors)
        if not ok:
            print("INVALID coloring", file=sys.stderr)
            return 1
        extra += ", validated"
    print(
        f"{result.algorithm}: {result.n_colors} colors "
        f"({result.color_percentage():.1f}% of |V|), "
        f"peak memory {bytes_human(result.peak_bytes)}, "
        f"{result.elapsed_s:.2f}s{extra}"
    )
    if args.output:
        np.savetxt(args.output, result.colors, fmt="%d")
        print(f"colors written to {args.output}")
    if args.metrics_json:
        _write_metrics(args.metrics_json, result, args.algorithm)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.pauli import load_pauli_set
    from repro.predict import optimal_frontier, run_sweep

    t0 = telemetry.clock()
    ps = load_pauli_set(args.input)
    points = run_sweep(
        ps,
        palette_percents=tuple(args.palette_percents),
        alphas=tuple(args.alphas),
        seed=args.seed,
    )
    print(f"{'P%':>6} {'alpha':>6} {'colors':>7} {'max|Ec|':>10} {'time s':>7}")
    for p in points:
        print(
            f"{p.palette_percent:>6.1f} {p.alpha:>6.1f} {p.n_colors:>7} "
            f"{p.max_conflict_edges:>10,} {p.elapsed_s:>7.2f}"
        )
    optima = list(optimal_frontier(points))
    print("\nEq. 7 optima:")
    for beta, best in optima:
        print(
            f"  beta={beta:.1f}: P'={best.palette_percent}% alpha={best.alpha} "
            f"({best.n_colors} colors, {best.max_conflict_edges:,} conflict edges)"
        )
    if args.metrics_json:
        _write_metrics_json(args.metrics_json, _metrics_payload(
            "sweep",
            algorithm="picasso",
            elapsed_s=telemetry.clock() - t0,
            points=[{
                "palette_percent": p.palette_percent, "alpha": p.alpha,
                "n_colors": int(p.n_colors),
                "max_conflict_edges": int(p.max_conflict_edges),
                "elapsed_s": float(p.elapsed_s),
            } for p in points],
            optima=[{
                "beta": beta,
                "palette_percent": best.palette_percent,
                "alpha": best.alpha,
                "n_colors": int(best.n_colors),
            } for beta, best in optima],
        ))
    return 0


def _cmd_taper(args: argparse.Namespace) -> int:
    from repro.chemistry import (
        find_z2_symmetries,
        hydrogen_cluster,
        molecular_qubit_operator,
        taper_qubits,
    )

    t0 = telemetry.clock()
    geom = hydrogen_cluster(args.atoms, args.dim, args.basis)
    qop = molecular_qubit_operator(geom)
    n = geom.n_spin_orbitals
    gens = find_z2_symmetries(qop, n)
    print(f"{geom.name}: {n} qubits, {qop.n_terms} terms, {len(gens)} Z2 symmetries")
    for g in gens:
        term = next(iter(g.terms))
        print("  " + (" ".join(f"{p}{q}" for q, p in term) or "I"))
    try:
        result = taper_qubits(qop, n, generators=gens)
    except ValueError as exc:
        print(f"tapering not applicable: {exc}", file=sys.stderr)
        return 1
    print(
        f"tapered to {result.n_qubits_after} qubits "
        f"(removed {result.removed_qubits}), {result.operator.n_terms} terms"
    )
    if args.metrics_json:
        _write_metrics_json(args.metrics_json, _metrics_payload(
            "taper",
            elapsed_s=telemetry.clock() - t0,
            molecule=geom.name,
            n_qubits_before=n,
            n_qubits_after=result.n_qubits_after,
            n_symmetries=len(gens),
            n_terms=result.operator.n_terms,
        ))
    return 0


def _add_observability_flags(p: argparse.ArgumentParser) -> None:
    """The three flags every subcommand shares (one schema each)."""
    p.add_argument(
        "--metrics-json", default=None, dest="metrics_json", metavar="PATH",
        help="dump a uniform run-summary JSON document to PATH (same "
        "top-level keys on every subcommand — command / algorithm / "
        "elapsed_s / n_colors / iterations / phase_times, null where "
        "not applicable — plus command-specific extras; for 'color' "
        "with picasso this includes the per-iteration phase buckets)",
    )
    p.add_argument(
        "--trace-json", default=None, dest="trace_json", metavar="PATH",
        help="enable telemetry and write the merged event trace "
        "(dispatcher phase spans, worker strip spans, counters) to "
        "PATH as JSON lines after the command finishes",
    )
    p.add_argument(
        "--metrics-out", default=None, dest="metrics_out", metavar="PATH",
        help="enable telemetry and write a Prometheus-style text "
        "snapshot of the run's counters/gauges/histograms to PATH "
        "after the command finishes",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-picasso",
        description="Picasso: memory-efficient palette-based graph coloring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="dataset census (Table II)")
    p.add_argument("--tier", default="small", choices=["small", "medium", "large"])
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("generate", help="molecule -> Pauli-set file")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--dim", type=int, default=1, choices=[1, 2, 3])
    p.add_argument("--basis", default="sto3g", choices=["sto3g", "631g", "6311g"])
    p.add_argument("--transform", default="jordan_wigner",
                   choices=["jordan_wigner", "bravyi_kitaev"])
    p.add_argument("--output", "-o", required=True)
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("color", help="color a Pauli-set file")
    p.add_argument("input")
    p.add_argument(
        "--algorithm",
        default="picasso",
        choices=[
            "picasso", "greedy-lf", "greedy-sl", "greedy-dlf", "greedy-id",
            "greedy-natural", "greedy-random", "jp", "speculative",
        ],
    )
    p.add_argument("--preset", default="default",
                   choices=["default", "normal", "aggressive"])
    p.add_argument("--palette-percent", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for conflict-graph construction "
        "(default 1 = serial; parallel builds are bit-identical)",
    )
    p.add_argument(
        "--executor", default=None,
        choices=["auto", "serial", "pool", "cluster"],
        help="execution backend (default auto: serial for 1 worker, "
        "process pool otherwise, cluster when --hosts is given); pools "
        "and cluster connections persist across iterations; 'cluster' "
        "without --hosts reads the REPRO_HOSTS environment variable",
    )
    p.add_argument(
        "--pin", action="store_true",
        help="pin each pool worker to one core (sched_setaffinity; "
        "no-op where unsupported)",
    )
    p.add_argument(
        "--hosts", default=None, metavar="HOST:PORT,...",
        help="shard the conflict sweeps over multi-host "
        "worker agents (python -m repro.distributed.worker on each "
        "host); distributed builds and colorings are bit-identical "
        "to serial per seed",
    )
    from repro.coloring.engine import available_engines

    p.add_argument(
        "--color-engine", default=None, dest="color_engine",
        choices=["auto", *available_engines()],
        help="Algorithm 2 implementation for the conflict coloring "
        "(registry name; default auto resolves to greedy-dynamic; "
        "sets is its Python-set reference; parallel-list colors in "
        "round-synchronous rounds)",
    )
    p.add_argument(
        "--checkpoint-dir", default=None, dest="checkpoint_dir",
        metavar="DIR",
        help="write atomic snapshots of Picasso iteration state into "
        "DIR (every --checkpoint-every iterations); a killed run "
        "restarted with --resume finishes bit-identical to an "
        "uninterrupted one",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=None,
        dest="checkpoint_every", metavar="K",
        help="snapshot cadence in iterations (default 1)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume from the newest valid checkpoint in "
        "--checkpoint-dir (fresh start when none exists)",
    )
    p.add_argument(
        "--failover", default=None, metavar="CHAIN",
        help="supervised backend degradation chain, e.g. 'pool,serial' "
        "(entries: cluster|pool|serial); bounded worker failures are "
        "retried with backoff, then the run fails over down the chain "
        "— recovery never changes the coloring",
    )
    p.add_argument(
        "--max-retries", type=int, default=None, dest="max_retries",
        metavar="N",
        help="bounded-failure retries per backend per sweep before "
        "failing over (default REPRO_MAX_RETRIES=2; setting this "
        "enables supervision even without --failover)",
    )
    p.add_argument("--validate", action="store_true")
    p.add_argument("--output", "-o", default=None, help="write per-vertex colors")
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("sweep", help="(P', alpha) grid sweep with Eq. 7 optima")
    p.add_argument("input")
    p.add_argument("--palette-percents", type=float, nargs="+",
                   default=[2.5, 5.0, 10.0, 15.0])
    p.add_argument("--alphas", type=float, nargs="+", default=[1.0, 2.0, 4.0])
    p.add_argument("--seed", type=int, default=0)
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("taper", help="Z2 symmetries + qubit tapering")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--dim", type=int, default=1, choices=[1, 2, 3])
    p.add_argument("--basis", default="sto3g", choices=["sto3g", "631g", "6311g"])
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_taper)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The exporter flags imply telemetry for the whole process: the
    # dispatcher-side enable also rides every worker install, so pool
    # and cluster deltas fold into the exported snapshot.
    export = args.trace_json or args.metrics_out
    if export:
        telemetry.enable(True)
    rc = args.func(args)
    if export:
        snap = telemetry.snapshot()
        if args.trace_json:
            telemetry.write_trace_jsonl(args.trace_json, snap)
            print(f"trace written to {args.trace_json}")
        if args.metrics_out:
            telemetry.write_prometheus(args.metrics_out, snap)
            print(f"telemetry snapshot written to {args.metrics_out}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
