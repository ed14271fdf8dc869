"""CI quick-bench regression gate.

Compares the headline ``total_s`` of a fresh ``--quick`` bench run
(``benchmarks/results/BENCH_PR<newest>.quick.json``) against the
newest committed trajectory file (``BENCH_PR*.json`` at the repo root)
and fails when any shared row slowed down by more than the threshold
(default 25%, override via ``REPRO_BENCH_REGRESSION_PCT`` or
``--threshold-pct``).

Artifact numbering is derived, never hardcoded: the PR sequence has
gaps (a lint-only PR ships no trajectory file — there is no
``BENCH_PR8.json``), so both tools resolve names against the highest
``BENCH_PR<k>.json`` actually present — quick artifacts are named for
the newest committed trajectory and a full run writes ``<newest+1>``.

Only cases and rows present in *both* reports are compared — a quick
run carries the ``small`` case only, so the gate measures dispatch and
per-iteration overhead drift, not 10k-headline throughput.  A row
that older trajectory files carry and a fresh run no longer writes
(``tiled_numba``, from when a compiled kernel backend existed) drops
out of the gate through the same shared-row rule.  Cross-machine noise is expected; the threshold is deliberately loose
and a genuinely intended slowdown (e.g. a correctness fix) is waivable
by putting ``[bench-waiver]`` in the commit message.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py --quick
    python benchmarks/check_regression.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Commit-message tag that turns a failing gate into a warning.
WAIVER_TAG = "[bench-waiver]"


def newest_committed_bench(
    root: pathlib.Path = REPO_ROOT,
) -> pathlib.Path | None:
    """Highest-numbered ``BENCH_PR<k>.json`` at the repo root.

    Gap-tolerant by construction: the trajectory is whatever files
    exist, not a contiguous range (lint-only PRs ship none).
    """
    best, best_k = None, -1
    for p in pathlib.Path(root).glob("BENCH_PR*.json"):
        m = re.fullmatch(r"BENCH_PR(\d+)\.json", p.name)
        if m and int(m.group(1)) > best_k:
            best, best_k = p, int(m.group(1))
    return best


def newest_pr_number(root: pathlib.Path = REPO_ROOT) -> int:
    """The ``k`` of the newest committed trajectory file (0 when none)."""
    best = newest_committed_bench(root)
    if best is None:
        return 0
    return int(re.fullmatch(r"BENCH_PR(\d+)\.json", best.name).group(1))


def next_pr_number(root: pathlib.Path = REPO_ROOT) -> int:
    """The number a full bench run writes under (newest committed + 1)."""
    return newest_pr_number(root) + 1


def quick_report_path(root: pathlib.Path = REPO_ROOT) -> pathlib.Path:
    """Where ``run_bench.py --quick`` writes: named for the newest
    committed trajectory (the baseline it is gated against), under the
    ignored results directory so CI can never land it in the tree."""
    k = newest_pr_number(root)
    return (
        pathlib.Path(root) / "benchmarks" / "results"
        / f"BENCH_PR{k}.quick.json"
    )


def head_commit_message() -> str:
    try:
        return subprocess.run(
            ["git", "log", "-1", "--format=%B"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout
    except Exception:
        return ""


def _total_rows(case: dict) -> dict[str, float]:
    """``row_name -> total_s`` for every config row of one case."""
    return {
        k: v["total_s"]
        for k, v in case.items()
        if isinstance(v, dict) and "total_s" in v
    }


def compare(new: dict, base: dict, threshold_pct: float) -> list[str]:
    """Rows slower than ``threshold_pct`` vs the baseline, as messages."""
    base_cases = {c["name"]: c for c in base.get("cases", [])}
    regressions = []
    compared = 0
    for case in new.get("cases", []):
        ref = base_cases.get(case["name"])
        if ref is None:
            continue
        ref_rows = _total_rows(ref)
        for row, total in _total_rows(case).items():
            ref_total = ref_rows.get(row)
            if ref_total is None or ref_total <= 0:
                continue
            compared += 1
            pct = 100.0 * (total - ref_total) / ref_total
            line = (
                f"{case['name']}/{row}: {ref_total:.3f}s -> {total:.3f}s "
                f"({pct:+.1f}%)"
            )
            if pct > threshold_pct:
                regressions.append(line)
            else:
                print(f"ok   {line}")
    if compared == 0:
        print("warning: no shared case/row between reports; nothing gated")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--new", default=None, metavar="PATH",
        help="fresh quick-bench report (default the --quick output "
        "path, named for the newest committed BENCH_PR*.json)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed trajectory file to gate against (default the "
        "highest-numbered BENCH_PR*.json at the repo root)",
    )
    parser.add_argument(
        "--threshold-pct", type=float,
        default=float(os.environ.get("REPRO_BENCH_REGRESSION_PCT", "25")),
        help="allowed slowdown per row (default 25, or "
        "REPRO_BENCH_REGRESSION_PCT)",
    )
    parser.add_argument(
        "--commit-message", default=None,
        help=f"commit message to scan for {WAIVER_TAG} (default: git "
        "log -1)",
    )
    args = parser.parse_args(argv)

    baseline = (
        pathlib.Path(args.baseline) if args.baseline
        else newest_committed_bench()
    )
    if baseline is None or not baseline.exists():
        print("warning: no committed BENCH_PR*.json baseline; skipping gate")
        return 0
    new_path = (
        pathlib.Path(args.new) if args.new else quick_report_path()
    )
    if not new_path.exists():
        print(f"error: quick report {new_path} not found — run "
              "benchmarks/run_bench.py --quick first", file=sys.stderr)
        return 2

    new = json.loads(new_path.read_text())
    base = json.loads(baseline.read_text())
    print(f"gating {new_path.name} against {baseline.name} "
          f"(threshold +{args.threshold_pct:.0f}%)")
    regressions = compare(new, base, args.threshold_pct)
    if not regressions:
        print("no regressions")
        return 0
    message = (
        args.commit_message if args.commit_message is not None
        else head_commit_message()
    )
    for line in regressions:
        print(f"SLOW {line}", file=sys.stderr)
    if WAIVER_TAG in message:
        print(f"waived: commit message carries {WAIVER_TAG}")
        return 0
    print(
        f"error: {len(regressions)} row(s) regressed beyond "
        f"{args.threshold_pct:.0f}%; waive with {WAIVER_TAG} in the "
        "commit message if intended",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
