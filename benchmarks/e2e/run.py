#!/usr/bin/env python3
"""The whole-scenario benchmark: one command, two front ends.

Suite (what a developer runs; see README.md)::

    python benchmarks/e2e/run.py [--seed N] [--workloads a,b] [--repeats N]
                                 [--no-trace] [--out DIR] [--selfcheck]

Driver protocol (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Exit code 0 means every output check held (and, with ``--selfcheck``,
that two sets of runs agreed within the bounds); 1 means one did not;
2 is a usage error; 3 means the program under test is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def build_parser() -> argparse.ArgumentParser:
    from e2ebench.spec import DEFAULT_REPEATS, DEFAULT_SEED, MIN_REPEATS, WORKLOAD_NAMES

    p = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload inputs and Simulator(seed=...) derive from it")
    suite = p.add_argument_group("suite")
    suite.add_argument("--workloads", default=",".join(WORKLOAD_NAMES),
                       help="comma-separated subset of: %(default)s")
    suite.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                       help=f"fresh-interpreter repeats per workload (>= {MIN_REPEATS})")
    suite.add_argument("--no-trace", action="store_true", help="skip the traced pass")
    suite.add_argument("--out", default=os.path.join(HERE, "out"),
                       help="directory for summary.json and the Chrome traces")
    suite.add_argument("--selfcheck", action="store_true",
                       help="run two full sets and fail unless they agree within the bounds")
    driver = p.add_argument_group("driver protocol")
    driver.add_argument("--workload", choices=WORKLOAD_NAMES)
    driver.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed regions of one invocation add up to")
    driver.add_argument("--trace", type=int, choices=(0, 1), default=0)
    child = p.add_argument_group("internal: one repeat in this interpreter")
    child.add_argument("--child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    child.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    child.add_argument("--trace-file", help=argparse.SUPPRESS)
    child.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 3
    sys.path.insert(0, SRC)

    if args.child:
        from e2ebench.child import run_once

        record = run_once(args.child, args.seed, args.spawned_at,
                          traced=args.traced, trace_path=args.trace_file)
        print(json.dumps(record))
        return 0

    from e2ebench import suite
    from e2ebench.spec import MIN_REPEATS, WORKLOAD_NAMES

    try:
        if args.workload:
            result = suite.driver_run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.out)
            print(json.dumps(result))
            return 0 if result["correct"] else 1

        names = [n for n in args.workloads.split(",") if n]
        unknown = [n for n in names if n not in WORKLOAD_NAMES]
        if unknown or not names:
            print(f"run.py: unknown workloads {unknown}; choose from {WORKLOAD_NAMES}",
                  file=sys.stderr)
            return 2
        if args.repeats < MIN_REPEATS:
            print(f"run.py: --repeats must be at least {MIN_REPEATS}", file=sys.stderr)
            return 2
        os.makedirs(args.out, exist_ok=True)
        sets = []
        for i in range(2 if args.selfcheck else 1):
            out_dir = os.path.join(args.out, f"set{i + 1}") if args.selfcheck else args.out
            os.makedirs(out_dir, exist_ok=True)
            print(f"benchmarks/e2e: seed {args.seed}, {args.repeats} repeats of {names}"
                  + (f" (set {i + 1} of 2)" if args.selfcheck else ""))
            summary = suite.run_suite(args.seed, names, args.repeats,
                                      not args.no_trace, out_dir)
            suite.print_suite(summary)
            with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=1)
                fh.write("\n")
            sets.append(summary)
        ok = all(s["correct"] for s in sets)
        if args.selfcheck:
            ok &= suite.selfcheck(sets[0], sets[1])
        else:
            brief = {k: v for k, v in sets[0].items() if k not in ("workloads", "claim")}
            print(json.dumps({**brief, "medians": _medians(sets[0]), "claim": None}))
        return 0 if ok else 1
    except suite.BenchmarkFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


def _medians(summary: dict) -> dict:
    return {
        name: {m: (v["median"] if v else None) for m, v in res["metrics"].items()}
        for name, res in summary["workloads"].items()
    }


if __name__ == "__main__":
    sys.exit(main())
