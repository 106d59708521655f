"""Command-line launcher: ``python -m repro <command>``.

Runs one of the packaged demonstration scenarios without needing the
examples directory — handy after a plain ``pip install`` — plus the
observability report (``metrics``), the correctness tooling (``lint``,
``sanitize``, ``modelcheck``; see :mod:`repro.analysis`), the benchmark
harness (``bench``), the span-trace explorer (``trace``), and the live
control plane (``serve``; see :mod:`repro.control`).

Every subcommand carries a single-line help string (audited by
``tests/test_cli.py``) so ``python -m repro --help`` reads as a table.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.scenarios import SCENARIOS, layout_count
from repro.topology import LayoutError


def _scenario_quickstart() -> None:
    from repro import ClusterConfig, RainCluster, Simulator
    from repro.codes import BCode

    sim = Simulator(seed=7)
    cluster = RainCluster(sim, ClusterConfig(nodes=6))
    sim.run(until=2.0)
    print(f"membership converged: {cluster.member(0).membership}")
    store = cluster.store_on(0, BCode(6))
    payload = b"no single point of failure " * 64
    sim.run_process(store.store("demo", payload), until=sim.now + 10)
    cluster.crash(4)
    cluster.crash(5)
    cluster.faults.fail(cluster.switches[0])
    print("killed node4, node5, and a switch plane")
    out = sim.run_process(store.retrieve("demo"), until=sim.now + 30)
    assert out == payload
    print(f"recovered {len(out)} bytes intact — RAIN works")


def _scenario_codes() -> None:
    from repro.codes import BCode, EvenOdd, ReedSolomon, XCode, verify_mds

    print(f"{'code':>14} {'MDS':>5} {'overhead':>9} {'enc XOR/piece':>14} {'update':>7}")
    for code in (BCode(6), BCode(10), XCode(5), XCode(7), EvenOdd(5)):
        mds = verify_mds(code, data_len=64)
        per = code.encoding_xors / code.data_pieces
        upd = max(code.update_cost(i) for i in range(code.data_pieces))
        print(f"{code.name:>14} {str(mds):>5} {code.storage_overhead:>9.2f} {per:>14.2f} {upd:>7}")
    rs = ReedSolomon(6, 4)
    print(f"{rs.name:>14} {str(verify_mds(rs, 64)):>5} {rs.storage_overhead:>9.2f} "
          f"{'(GF mults)':>14} {'n/a':>7}")


def _scenario_topology() -> None:
    from repro.topology import diameter_ring, naive_ring, worst_case

    print("worst-case node loss under switch faults (exhaustive):")
    print(f"{'construction':>12} {'n':>4} {'faults':>7} {'lost':>5} {'touched':>8}")
    for n in (10, 20):
        for name, topo in (("naive", naive_ring(n)), ("diameter", diameter_ring(n))):
            for k in (2, 3):
                wc = worst_case(topo, k, kinds=("switch",))
                print(f"{name:>12} {n:>4} {k:>7} {wc.max_lost:>5} {wc.max_touched:>8}")


DEMOS = {
    "quickstart": _scenario_quickstart,
    "codes": _scenario_codes,
    "topology": _scenario_topology,
}


def _run_metrics(
    scenario: str, seed: int, as_json: bool, shards: int = 1, workers: int = 1
) -> int:
    cluster = SCENARIOS[scenario].run(seed, shards=shards, workers=workers)
    report = cluster.metrics(scenario=scenario, seed=seed)
    print(report.to_json() if as_json else report.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` argument parser (exposed separately
    so tests can audit subcommand help strings without running anything)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RAIN reproduction demo scenarios and tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in sorted(DEMOS):
        sub.add_parser(name, help=f"run the {name} demo")
    metrics_p = sub.add_parser(
        "metrics", help="run a scenario and print its cluster observability report"
    )
    metrics_p.add_argument(
        "scenario",
        nargs="?",
        default="testbed",
        choices=sorted(SCENARIOS),
        help="workload to run (default: the Fig. 1 testbed)",
    )
    metrics_p.add_argument("--seed", type=int, default=7, help="simulation seed")
    metrics_p.add_argument(
        "--json", action="store_true", help="emit canonical JSON instead of text"
    )
    metrics_p.add_argument(
        "--shards",
        type=layout_count,
        default=os.environ.get("REPRO_SHARDS", "1"),
        help="shard-kernel count "
        "(default: $REPRO_SHARDS or 1; output is identical for any value)",
    )
    metrics_p.add_argument(
        "--workers",
        type=layout_count,
        default=1,
        help="worker processes (1 = in-process stepping, the determinism "
        "reference)",
    )
    from repro.analysis.cli import (
        add_lint_parser,
        add_modelcheck_parser,
        add_sanitize_parser,
    )
    from repro.bench.cli import add_bench_parser
    from repro.control.server import add_serve_parser
    from repro.obs.trace_cli import add_trace_parser

    add_lint_parser(sub)
    add_sanitize_parser(sub)
    add_modelcheck_parser(sub)
    add_bench_parser(sub)
    add_trace_parser(sub)
    add_serve_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: dispatch on the subcommand.

    Unknown subcommands exit non-zero with a usage message (argparse
    prints usage to stderr and exits with status 2); so does a shard
    count the scenario's topology cannot be cut into.
    """
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except LayoutError as exc:
        print(f"python -m repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "metrics":
        return _run_metrics(
            args.scenario, args.seed, args.json, shards=args.shards, workers=args.workers
        )
    if args.command == "lint":
        from repro.analysis.cli import cmd_lint

        return cmd_lint(args)
    if args.command == "sanitize":
        from repro.analysis.cli import cmd_sanitize

        return cmd_sanitize(args)
    if args.command == "modelcheck":
        from repro.analysis.cli import cmd_modelcheck

        return cmd_modelcheck(args)
    if args.command == "bench":
        from repro.bench.cli import cmd_bench

        return cmd_bench(args)
    if args.command == "trace":
        from repro.obs.trace_cli import cmd_trace

        return cmd_trace(args)
    if args.command == "serve":
        from repro.control.server import cmd_serve

        return cmd_serve(args)
    DEMOS[args.command]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
