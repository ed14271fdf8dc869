"""Per-kernel microbenchmark across the registered kernel backends.

Times the word-level kernel of the kernel-backend contract
(:mod:`repro.device.backends`) in isolation — lowest-set-bit row scans
— and reports **nanoseconds per uint64 word** per available backend, so
the compiled (numba) path is comparable to numpy on a
hardware-independent axis.

Backends are warmed before timing (numba's first call JIT-compiles; the
``cache=True`` kernels then persist to disk) and each kernel is checked
bit-for-bit against the numpy backend before its timing is trusted.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --rows 2048 --words 8
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.device.backends import available_backends, get_backend

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_KERNELS.json"


def _random_words(rng, n, words, density=0.3):
    bits = rng.random((n, words * 64)) < density
    return np.packbits(
        bits, axis=1, bitorder="little"
    ).view(np.uint64).reshape(n, words)


def _time_best(fn, repeats):
    """Best-of-``repeats`` wall time — the least noise-polluted run."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_backend(name, rows, words, repeats, reference):
    """ns/word of the contract kernel for one backend.

    ``reference`` holds the numpy backend's outputs; every kernel is
    asserted bit-identical against it before the timing is reported.
    """
    backend = get_backend(name)
    rng = np.random.default_rng(0)
    lsb_masks = _random_words(rng, rows * 8, words, density=0.02)

    # The lsb scan reads each of its rows*8 x words matrix once.
    lsb_words = lsb_masks.size

    kernels = {
        "lowest_set_bit_rows": (
            lambda: backend.lowest_set_bit_rows(lsb_masks),
            lsb_words,
        ),
    }
    row = {}
    for kernel, (fn, n_words) in kernels.items():
        got = np.asarray(fn())  # warm (JIT compile / device transfer)
        if reference is not None:
            np.testing.assert_array_equal(
                got.astype(np.uint8), reference[kernel].astype(np.uint8),
                err_msg=f"{name}:{kernel} diverged from numpy",
            )
        best = _time_best(fn, repeats)
        row[kernel] = {
            "best_s": round(best, 6),
            "ns_per_word": round(1e9 * best / n_words, 3),
        }
    outputs = {k: np.asarray(fn()) for k, (fn, _) in kernels.items()}
    return row, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1024,
                        help="the lowest-set-bit matrix has 8x these rows (default 1024)")
    parser.add_argument("--words", type=int, default=4,
                        help="uint64 words per row (default 4 = 256 bits)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help=f"also write the report (default {OUT_PATH})")
    args = parser.parse_args(argv)

    backends = available_backends()
    report = {
        "rows": args.rows,
        "words": args.words,
        "backends": {},
    }
    # numpy first: it is always available and anchors the identity check.
    _, reference = bench_backend(
        "numpy", args.rows, args.words, repeats=1, reference=None
    )
    print(f"{'backend':<8} {'kernel':<26} {'best s':>10} {'ns/word':>9}")
    for name in backends:
        row, _ = bench_backend(
            name, args.rows, args.words, args.repeats, reference
        )
        report["backends"][name] = row
        for kernel, r in row.items():
            print(
                f"{name:<8} {kernel:<26} {r['best_s']:>10.6f} "
                f"{r['ns_per_word']:>9.3f}"
            )
    numpy_row = report["backends"]["numpy"]
    for name in backends:
        if name == "numpy":
            continue
        speedups = {
            k: round(
                numpy_row[k]["ns_per_word"]
                / max(report["backends"][name][k]["ns_per_word"], 1e-9),
                2,
            )
            for k in numpy_row
        }
        report[f"{name}_speedup"] = speedups
        print(f"{name} speedup vs numpy: {speedups}")

    out_path = pathlib.Path(args.json) if args.json else OUT_PATH
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
