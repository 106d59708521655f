"""CLI entry points for the analysis engines.

Wired into ``python -m repro`` by :mod:`repro.__main__`:

- ``python -m repro lint [paths...] [--format=text|json]`` — run
  rainlint; exit 0 iff the tree is clean.  ``--strict`` adds the
  whole-program rules RL009–RL013 (:mod:`repro.analysis.program`).
- ``python -m repro sanitize <scenario> [--shards N]`` — run an
  entry of :data:`repro.scenarios.SCENARIOS` under the happens-before
  sanitizer (:mod:`repro.analysis.hb`) and report HB001–HB003
  violations; exit 0 iff the run is clean.
- ``python -m repro modelcheck [--quick] [--json] [--slack N ...]`` —
  exhaustively verify the consistent-history pair machine (token
  conservation, bounded slack, stability, the Fig. 7 reachable set) and
  the 3-node membership ring under every single-fault schedule; exit 0
  iff every property holds.
"""

from __future__ import annotations

import argparse

from ..scenarios import SCENARIOS, layout_count
from .chm_model import pair_report
from .linter import lint_paths
from .ring_model import ring_report

__all__ = [
    "add_lint_parser",
    "add_modelcheck_parser",
    "add_sanitize_parser",
    "cmd_lint",
    "cmd_modelcheck",
    "cmd_sanitize",
]

#: the library plus every program that calls it (RL013 counts their uses)
_DEFAULT_LINT_PATHS = ("src", "benchmarks", "examples")


def add_lint_parser(sub: argparse._SubParsersAction) -> argparse.ArgumentParser:
    p = sub.add_parser(
        "lint",
        help="run the rainlint determinism rules (--strict adds RL009-RL013)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=list(_DEFAULT_LINT_PATHS),
        help="files or directories to walk (default: src benchmarks examples)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="also run the whole-program rules RL009-RL013",
    )
    return p


def add_sanitize_parser(sub: argparse._SubParsersAction) -> argparse.ArgumentParser:
    p = sub.add_parser(
        "sanitize",
        help="run a scenario under the happens-before sanitizer "
        "(rules HB001-HB003)",
    )
    p.add_argument(
        "scenario",
        choices=sorted(SCENARIOS),
        help="scenario to drive under the monitor",
    )
    p.add_argument("--seed", type=int, default=7, help="simulation seed")
    p.add_argument(
        "--shards",
        type=layout_count,
        default=4,
        help="shard-kernel count (default: 4; 1 is the reference: one "
        "kernel, nothing to exchange)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    return p


def add_modelcheck_parser(sub: argparse._SubParsersAction) -> argparse.ArgumentParser:
    p = sub.add_parser(
        "modelcheck",
        help="exhaustively verify the link protocol and membership ring",
    )
    p.add_argument(
        "--slack",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help="slack values to explore (repeatable; default: 2 3)",
    )
    p.add_argument(
        "--depth",
        type=int,
        default=None,
        help="BFS depth cap for the pair machine (default: run to fixpoint)",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="smaller fault-schedule grid and aggressive detection only (CI)",
    )
    p.add_argument(
        "--skip-ring",
        action="store_true",
        help="only check the consistent-history pair machine",
    )
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    return p


def cmd_lint(args: argparse.Namespace) -> int:
    report = lint_paths(args.paths, strict=getattr(args, "strict", False))
    print(report.to_json() if args.format == "json" else report.render())
    return 0 if report.ok else 1


def cmd_sanitize(args: argparse.Namespace) -> int:
    from .hb import install_sanitizer

    scenario = SCENARIOS[args.scenario]
    cluster = scenario.build(args.seed, args.shards)
    monitor = install_sanitizer(cluster.sharded)
    cluster.run(scenario.horizon)
    monitor.check_gauges([k.obs.metrics.snapshot() for k in cluster.sharded.kernels])
    report = monitor.report()
    report.stats["scenario"] = args.scenario
    report.stats["seed"] = args.seed
    print(report.to_json() if args.format == "json" else report.render())
    return 0 if report.ok else 1


def cmd_modelcheck(args: argparse.Namespace) -> int:
    slacks = tuple(args.slack) if args.slack else (2, 3)
    report = pair_report(slacks=slacks, max_depth=args.depth)
    if not args.skip_ring:
        detections = ("aggressive",) if args.quick else ("aggressive", "conservative")
        ring = ring_report(n=3, detections=detections, quick=args.quick)
        for f in ring.findings:
            report.add(f)
        report.stats.update(ring.stats)
        report.finalize()
    print(report.to_json() if args.json else report.render())
    return 0 if report.ok else 1
