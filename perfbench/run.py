"""The repo benchmark: Picasso Pauli grouping, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
The seed derives five inputs (``perfbench/workloads.py``).  The
benchmark measures them in whole rounds, one input after another, for
about ``--seconds`` seconds and at least two rounds.  Each measured run
is a fresh process (``perfbench/child.py``), so each peak RSS is that
run's own.  Children get ``PYTHONPATH=src`` and no ``REPRO_*`` variable:
``REPRO_FUSED``, ``REPRO_KERNEL_BACKEND``, ``REPRO_TELEMETRY``,
``REPRO_HOSTS`` and the rest all change the code path.

Every metric is the mean over the five inputs of the median over that
input's runs.  ``--trace 0`` reports the end-to-end metrics:
``color_s`` (wall time of ``Picasso(params, seed).color(pauli_set)``),
``setup_s`` (imports, input generation or Hamiltonian build,
permutation), ``peak_rss_mb`` (high-water RSS of the coloring process
during the call) and ``n_colors``.  ``error_rate`` is failed / attempted
runs.  A run fails when it raises, does not converge, or fails the
output check.  It also fails when it colors differently from the other
runs of its input.  ``error_rate`` is printed by name and carried by
``attempted`` and ``failed`` in the JSON line: the benchmark contract
admits no end-to-end metric that reads 0.

``--trace 1`` alternates traced and untraced rounds.  Traced runs
install the wrappers of ``perfbench/layers.py`` and report per-layer
self times and counts.  ``trace.overhead_pct`` compares traced and
untraced ``color_s``.

Deliberately unmeasured layers (all off by default): ``distributed``,
``resilience``, ``streaming``, ``predict``, the DeviceSim build and
telemetry.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every run was correct,
1 when a run failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import INPUTS_PER_SEED, WORKLOADS  # noqa: E402

#: Every invocation must end within 180 s; start no round past this.
DEADLINE_S = 170.0
MIN_ROUNDS = 2

PER_LAYER_UNITS = {
    "palette.assign_s": "s",
    "tiles.palette_test_s": "s",
    "tiles.palette_word_ops": "ops",
    "tiles.survivor_fraction": "ratio",
    "tiles.survivor_s": "s",
    "oracle.block_s": "s",
    "oracle.gather_s": "s",
    "oracle.edge_yield": "ratio",
    "conflict.build_self_s": "s",
    "conflict.edges_total": "count",
    "conflict.edges_max": "count",
    "conflict.lemma2_ratio": "ratio",
    "csr.assemble_s": "s",
    "csr.arcs": "count",
    "coloring.color_s": "s",
    "coloring.vertices": "count",
    "coloring.uncolored_fraction": "ratio",
    "picasso.iterations": "count",
    "picasso.driver_self_s": "s",
    "parallel.wait_s": "s",
    "parallel.install_s": "s",
    "parallel.tasks": "count",
    "parallel.result_bytes": "bytes",
    "parallel.worker_peak_rss_mb": "MiB",
    "memory.model_peak_mb": "MiB",
    "memory.rss_over_model": "ratio",
    "trace.overhead_pct": "%",
}

#: Span self times of the traced table, in call-tree order.
LAYER_TABLE = [
    ("palette.assign", "palette.assign_s"),
    ("conflict.build (self)", "conflict.build_self_s"),
    ("  tiles.palette_test", "tiles.palette_test_s"),
    ("  tiles.survivor", "tiles.survivor_s"),
    ("  oracle.block", "oracle.block_s"),
    ("  oracle.gather", "oracle.gather_s"),
    ("  csr.assemble", "csr.assemble_s"),
    ("  parallel.install", "parallel.install_s"),
    ("  parallel.wait", "parallel.wait_s"),
    ("coloring.color", "coloring.color_s"),
    ("picasso (driver self)", "picasso.driver_self_s"),
]


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read without running git (None if absent)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest(root: Path) -> str:
    """sha256 over the program's Python sources: identifies the code
    measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_block(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(root),
        "src_sha256": src_digest(root),
    }


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    # One malloc arena: with the default per-thread arenas, the pool's
    # result-handler thread made the dispatcher's peak RSS bimodal
    # (311 or 345 MiB for one input); one arena reads the same every
    # run and did not change color_s.
    env["MALLOC_ARENA_MAX"] = "1"
    return env


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(root: Path, args, index: int, trace: int, timeout: float) -> dict:
    """One Picasso run in a fresh process group; reaps the whole group."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--input", str(index), "--trace", str(trace),
    ]
    proc = subprocess.Popen(
        cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        result = json.loads(out.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        out, err = proc.communicate()
        result = {"ok": False, "error": f"run timed out after {timeout:.0f} s"}
    except (json.JSONDecodeError, IndexError):
        tail = " | ".join(err.strip().splitlines()[-3:])
        result = {"ok": False, "error": f"exit {proc.returncode}: {tail}"}
    finally:
        # Pool workers share the child's group: stop any it left behind.
        kill_group(proc.pid)
    if not result.get("ok"):
        sys.stderr.write(err)
    result.update(input=index, traced=trace)
    return result


def measure(root: Path, args) -> list[dict]:
    """Whole rounds over every input: at least ``MIN_ROUNDS``, then one
    more while it is expected to end within ``--seconds``."""
    t_begin = time.perf_counter()
    runs: list[dict] = []
    rounds = 0
    last_round_s = 0.0
    while True:
        elapsed = time.perf_counter() - t_begin
        if rounds >= MIN_ROUNDS and elapsed + last_round_s > args.seconds:
            break
        if rounds and elapsed + 1.2 * last_round_s > DEADLINE_S:
            break
        t_round = time.perf_counter()
        trace = args.trace if rounds % 2 == 0 else 0
        for index in range(INPUTS_PER_SEED):
            left = DEADLINE_S - (time.perf_counter() - t_begin)
            runs.append(run_child(root, args, index, trace, timeout=max(left, 1.0)))
        rounds += 1
        last_round_s = time.perf_counter() - t_round
    return runs


def mark_inconsistent(runs: list[dict]) -> None:
    """One input, one coloring: runs that disagree with the majority of
    their input's runs fail."""
    shas = defaultdict(Counter)
    for r in runs:
        if r.get("ok"):
            shas[r["input"]][r["colors_sha256"]] += 1
    for r in runs:
        if r.get("ok"):
            reference = shas[r["input"]].most_common(1)[0][0]
            if r["colors_sha256"] != reference:
                r.update(ok=False, error="coloring differs from other runs of its input")


def estimate(runs: list[dict], value) -> float:
    """Mean over inputs of the median over each input's runs."""
    groups = defaultdict(list)
    for r in runs:
        groups[r["input"]].append(value(r))
    return statistics.fmean(statistics.median(v) for v in groups.values())


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"tail percentile needs >= 20 runs, have {n}"
    q = 100.0 * (n - 10) / n
    return f"p{q:.0f} of single runs {sorted(values)[n - 11]:.4f} s"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(good: list[dict]) -> tuple[dict, list[str]]:
    est = {k: estimate(good, lambda r, k=k: r[k]) for k in (
        "color_s", "setup_s", "peak_rss_mb", "n_colors",
        "model_peak_mb", "rss_over_model",
    )}
    metrics = {
        "color_s": metric(est["color_s"], "s"),
        "setup_s": metric(est["setup_s"], "s"),
        "peak_rss_mb": metric(est["peak_rss_mb"], "MiB"),
        "n_colors": metric(est["n_colors"], "groups"),
    }
    per_input = sorted({r["input"]: r["n_colors"] for r in good}.items())
    lines = [
        f"color_s      {est['color_s']:10.4f} s       "
        + tail_percentile([r["color_s"] for r in good]),
        f"setup_s      {est['setup_s']:10.4f} s",
        f"peak_rss_mb  {est['peak_rss_mb']:10.1f} MiB     Table IV model "
        f"{est['model_peak_mb']:.1f} MiB; RSS growth / model "
        f"{est['rss_over_model']:.2f}x",
        f"n_colors     {est['n_colors']:10.1f} groups  per input "
        + ", ".join(f"{k}:{n}" for k, n in per_input),
    ]
    return metrics, lines


def per_layer(good: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for r in good if r["traced"]]
    plain = [r for r in good if not r["traced"]]
    est = {k: estimate(traced, lambda r, k=k: r["layers"][k])
           for k in traced[0]["layers"]}
    traced_s = estimate(traced, lambda r: r["color_s"])
    plain_s = estimate(plain, lambda r: r["color_s"])
    est["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    metrics = {k: metric(est[k], unit) for k, unit in PER_LAYER_UNITS.items()}

    lines = [f"{'span (self time)':24s} {'s':>9s} {'share':>7s}"]
    for label, key in LAYER_TABLE:
        lines.append(f"{label:24s} {est[key]:9.4f} {100 * est[key] / traced_s:6.1f}%")
    driver = est["picasso.driver_self_s"]
    lines += [
        f"traced color_s {traced_s:.4f} s ({len(traced)} runs); layer spans "
        f"cover {100 * (1 - driver / traced_s):.1f}% of it",
        f"untraced color_s {plain_s:.4f} s ({len(plain)} runs); "
        f"trace.overhead_pct {est['trace.overhead_pct']:+.2f}%",
    ]
    if est["parallel.tasks"]:
        lines.append("tiles.* and oracle.* rows sum the pool workers' time")
    lines.append("wrapped: " + ", ".join(traced[0]["wrapped"]))
    lines += [f"{k:28s} {est[k]:.6g} {u}" for k, u in PER_LAYER_UNITS.items()
              if u != "s"]
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    host = host_block(root)
    runs = measure(root, args)
    mark_inconsistent(runs)
    good = [r for r in runs if r.get("ok")]
    failed = len(runs) - len(good)
    for r in runs:
        if not r.get("ok"):
            print(f"failed run (input {r['input']}): {r.get('error')}")

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} runs={len(runs)} inputs={INPUTS_PER_SEED}")
    print(f"workload: {WORKLOADS[args.workload].why}")
    if good:
        print(f"input: {good[0]['n']} strings x {good[0]['n_qubits']} qubits")
        host["numpy"] = good[0]["numpy"]
        host["peak_rss_reset"] = good[0]["peak_reset"]
    print("host: " + json.dumps(host, sort_keys=True))

    metrics: dict = {}
    inputs_done = {r["input"] for r in good}
    traced_ok = {r["traced"] for r in good} == {0, 1}
    if len(inputs_done) == INPUTS_PER_SEED and (traced_ok or not args.trace):
        metrics, lines = per_layer(good) if args.trace else end_to_end(good)
        print("\n".join(lines))
    print(f"error_rate   {failed / len(runs):10.4f}         "
          f"({failed} failed / {len(runs)} attempted)")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
