"""``python -m repro bench`` — run the benchmark suite, gate regressions."""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from .harness import (
    baseline_from_results,
    calibrate,
    check_results,
    run_workload,
    write_result,
)
from .workloads import WORKLOADS

__all__ = ["add_bench_parser", "cmd_bench"]


def add_bench_parser(sub) -> None:
    p = sub.add_parser(
        "bench",
        help="run the fixed-seed benchmark suite and write BENCH_<name>.json",
    )
    p.add_argument(
        "workloads",
        nargs="*",
        metavar="workload",
        help=f"subset to run (default: all of {', '.join(sorted(WORKLOADS))})",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads and fewer repetitions (CI smoke mode)",
    )
    p.add_argument(
        "--repeats", type=int, default=None, help="override repetition count"
    )
    p.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for BENCH_<name>.json artifacts (default: a fresh "
        "scratch directory, printed; --out . regenerates the committed files)",
    )
    p.add_argument(
        "--check",
        type=Path,
        metavar="BASELINE",
        default=None,
        help="fail (exit 1) on >20%% normalized regression vs this baseline",
    )
    p.add_argument(
        "--write-baseline",
        type=Path,
        metavar="PATH",
        default=None,
        help="also write a baseline document for future --check runs",
    )


def cmd_bench(args) -> int:
    names = args.workloads or sorted(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(
            f"unknown workload(s): {', '.join(unknown)} "
            f"(available: {', '.join(sorted(WORKLOADS))})",
            file=sys.stderr,
        )
        return 2
    out = args.out or Path(tempfile.mkdtemp(prefix="repro-bench-"))
    if args.out is None:  # the committed BENCH_*.json are rewritten only on request
        print(f"writing BENCH_<name>.json to {out}")
    calibration = calibrate()
    print(f"calibration: {calibration:,.0f} loop iters/sec")
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], quick=args.quick, repeats=args.repeats)
        results.append(result)
        path = write_result(result, out, calibration, args.quick)
        print(
            f"{name:>12}: {result['ops_per_sec']:>14,.0f} {result['unit']}/s  "
            f"p50 {result['p50_op_ns']:>8,.0f} ns/op  "
            f"p95 {result['p95_op_ns']:>8,.0f} ns/op  -> {path}"
        )
    if args.write_baseline is not None:
        existing = None
        if args.write_baseline.exists():
            existing = json.loads(args.write_baseline.read_text())
        doc = baseline_from_results(results, calibration, args.quick, existing)
        args.write_baseline.parent.mkdir(parents=True, exist_ok=True)
        args.write_baseline.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        mode = "quick" if args.quick else "full"
        print(f"{mode} baseline written to {args.write_baseline}")
    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        try:
            failures = check_results(results, calibration, baseline, args.quick)
        except ValueError as exc:
            print(f"bench --check: {exc}", file=sys.stderr)
            return 2
        if failures:
            for f in failures:
                print(f"REGRESSION {f}", file=sys.stderr)
            return 1
        print(f"regression gate passed against {args.check}")
    return 0
