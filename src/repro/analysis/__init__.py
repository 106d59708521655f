"""Static analysis and model checking for the reproduction.

Two engines keep the codebase honest about the properties the paper
proves and the determinism the simulation promises:

- :mod:`repro.analysis.linter` (**rainlint**) — per-file AST rules
  RL001–RL007 for simulation determinism (no wall clock, no global RNG,
  no memory addresses in traces, no unordered iteration feeding events,
  no mutable defaults, no swallowed triggers, no hot-path metric
  lookups), with ``# rainlint: disable=...`` pragmas;
- :mod:`repro.analysis.program` (**RainSan, static head**) — a
  whole-program import/call graph making rainlint interprocedural
  under ``lint --strict``: RL009–RL013 track wall-clock reachability
  from handlers, dropped ctx/span on handoff paths, unordered data
  escaping into serialization, reaching, aliasing or shipping another
  object's kernel, and library code that nothing calls;
- :mod:`repro.analysis.hb` (**RainSan, dynamic head**) — a vector-clock
  happens-before sanitizer for the sharded DES (``python -m repro
  sanitize``, or ``REPRO_SANITIZE=1``): HB001–HB003 catch events below
  the lookahead horizon, cross-shard accesses with no happens-before
  edge, and diverged replicated gauges;
- :mod:`repro.analysis.chm_model` and :mod:`repro.analysis.ring_model`
  (**modelcheck**) — exhaustive exploration of the consistent-history
  pair machine (Figs. 7–8: token conservation, bounded slack,
  stability) and of a 3-node membership ring under every single-fault
  schedule (Sec. 3 guarantees).

All emit :class:`repro.analysis.findings.AnalysisReport` — the same
deterministic, canonically-serialized shape as ``repro.obs`` cluster
reports — and back the ``python -m repro lint`` / ``sanitize`` /
``modelcheck`` CLI.
"""

from .chm_model import (
    FIG7_STATES,
    PairCheckResult,
    PairState,
    check_fig7,
    explore_pair,
    pair_report,
)
from .findings import AnalysisReport, Finding
from .hb import HbMonitor, install_sanitizer, sanitize_enabled
from .linter import iter_python_files, lint_paths, lint_source
from .pragmas import Pragmas, parse_pragmas
from .program import ProgramIndex, build_program_index, lint_program
from .ring_model import (
    FaultSchedule,
    RingRunResult,
    enumerate_single_fault_schedules,
    ring_report,
    run_schedule,
)
from .rules import HB_RULES, PROGRAM_RULES, RULES, Rule, rule

__all__ = [
    "AnalysisReport",
    "Finding",
    "Rule",
    "RULES",
    "PROGRAM_RULES",
    "HB_RULES",
    "rule",
    "Pragmas",
    "parse_pragmas",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "ProgramIndex",
    "build_program_index",
    "lint_program",
    "HbMonitor",
    "install_sanitizer",
    "sanitize_enabled",
    "PairState",
    "PairCheckResult",
    "explore_pair",
    "check_fig7",
    "pair_report",
    "FIG7_STATES",
    "FaultSchedule",
    "RingRunResult",
    "enumerate_single_fault_schedules",
    "run_schedule",
    "ring_report",
]
