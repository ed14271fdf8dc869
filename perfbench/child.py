"""One benchmark run of Picasso in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --input K --trace 0|1

``perfbench/run.py`` starts one of these per measured run, with
``PYTHONPATH`` pointing at the checkout's ``src`` and every ``REPRO_*``
variable removed, so the peak RSS read here belongs to this run alone.
Prints one JSON object as its last stdout line.

Timed: the ``Picasso(params, seed).color(pauli_set)`` call.  Not timed:
the output check (every vertex colored; every color class pairwise
anticommuting, through a fresh ``PauliSet.oracle("iooh").anticommute``
over the sum of |class|^2 pairs) and, in traced runs, the exact edge
count behind the Lemma 2 ratio.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.core.analysis import expected_conflict_edges  # noqa: E402
from repro.core.picasso import Picasso  # noqa: E402
from repro.pauli.strings import PauliSet  # noqa: E402

MIB = 1024 * 1024


def reset_peak_rss() -> bool:
    """Restart the VmHWM high-water mark at the current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def class_pairs(colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every unordered same-color vertex pair (sum of |class|^2 / 2)."""
    n = len(colors)
    order = np.argsort(colors, kind="stable")
    sorted_colors = colors[order]
    starts = np.flatnonzero(np.r_[True, sorted_colors[1:] != sorted_colors[:-1]])
    ends = np.r_[starts[1:], n]
    class_end = np.repeat(ends, ends - starts)
    later = class_end - np.arange(n) - 1  # class mates after each position
    p = np.repeat(np.arange(n), later)
    rank = np.arange(len(p)) - np.repeat(np.cumsum(later) - later, later)
    return order[p], order[p + 1 + rank]


def check_output(pauli_set: PauliSet, colors: np.ndarray) -> str | None:
    """``None`` when the grouping is valid, else what is wrong."""
    colors = np.asarray(colors)
    if colors.shape != (pauli_set.n,):
        return f"colors has shape {colors.shape}, expected ({pauli_set.n},)"
    if (colors < 0).any():
        return f"{int((colors < 0).sum())} vertices left uncolored"
    i, j = class_pairs(colors)
    oracle = PauliSet(pauli_set.chars.copy()).oracle("iooh")
    bad = np.flatnonzero(oracle.anticommute(i, j) == 0)
    if len(bad):
        return f"{len(bad)} same-group pairs commute, e.g. ({i[bad[0]]}, {j[bad[0]]})"
    return None


def commuting_pairs(pauli_set: PauliSet, block: int = 1024) -> int:
    """Exact edge count of the colored graph (distinct commuting pairs)."""
    oracle = PauliSet(pauli_set.chars.copy()).oracle("iooh")
    n = pauli_set.n
    anti = 0
    for r0 in range(0, n, block):
        r1 = min(r0 + block, n)
        for c0 in range(r0, n, block):
            blk = oracle.anticommute_block(r0, r1, c0, min(c0 + block, n))
            anti += int(np.count_nonzero(np.triu(blk, 1) if c0 == r0 else blk))
    return n * (n - 1) // 2 - anti


def run(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    pauli_set, params, picasso_rng = workloads.build(workload, args.seed, args.input)
    setup_s = time.perf_counter() - T_START

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    picasso = Picasso(params, seed=picasso_rng)

    peak_reset = reset_peak_rss()
    rss_before = layers.proc_status_mb("VmRSS")
    t0 = time.perf_counter()
    if tracer is None:
        result = picasso.color(pauli_set)
    else:
        result = tracer.wrap("picasso.color", picasso.color)(pauli_set)
    color_s = time.perf_counter() - t0
    peak_rss = layers.proc_status_mb("VmHWM")

    colors = np.asarray(result.colors)
    model_mb = result.peak_bytes / MIB
    out = {
        "ok": True,
        "n": pauli_set.n,
        "n_qubits": pauli_set.n_qubits,
        "setup_s": setup_s,
        "color_s": color_s,
        "peak_rss_mb": peak_rss,
        "peak_reset": peak_reset,
        "n_colors": int(len(np.unique(colors))),
        "colors_sha256": hashlib.sha256(colors.astype(np.int64).tobytes()).hexdigest(),
        "model_peak_mb": model_mb,
        "rss_over_model": (peak_rss - rss_before) / model_mb if model_mb else 0.0,
        "numpy": np.__version__,
    }
    error = check_output(pauli_set, colors)
    if error is not None:
        out.update(ok=False, error=f"output check failed: {error}")
    if tracer is not None:
        layer = layers.layer_metrics(tracer)
        layer["conflict.lemma2_ratio"] = 0.0
        if "assign" in tracer.first and "edges" in tracer.first:
            _, palette, list_size = tracer.first["assign"]
            expected = expected_conflict_edges(
                commuting_pairs(pauli_set), palette, list_size
            )
            layer["conflict.lemma2_ratio"] = tracer.first["edges"] / expected
        layer["memory.model_peak_mb"] = model_mb
        layer["memory.rss_over_model"] = out["rss_over_model"]
        out["layers"] = layer
        out["wrapped"] = tracer.wrapped
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", type=int, required=True,
                        choices=range(workloads.INPUTS_PER_SEED))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        out = run(args)
    except Exception as exc:  # a raising or non-converging run is a failed run
        traceback.print_exc()
        out = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
