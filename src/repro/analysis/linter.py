"""rainlint — AST lint rules for simulation determinism and protocol hygiene.

Generic linters check style; these rules check the *contract* this
reproduction lives by: every run replays bit-identically from one master
seed, and protocol handlers never silently diverge.  Detection is
deliberately static and conservative — a rule fires only on patterns it
can see locally in the AST — and every finding can be suppressed with a
justified ``# rainlint: disable=RLxxx`` pragma (:mod:`.pragmas`).

Rules
-----

- **RL001** — wall-clock reads (``time.time``/``time.monotonic``/
  ``datetime.now``...) anywhere in simulation code.  Simulated
  components must read ``sim.now``.
- **RL002** — global or unseeded RNG: any use of the stdlib ``random``
  module, numpy's global-state ``np.random.*`` functions, or
  ``default_rng()`` with no seed.  Randomness routes through
  :mod:`repro.sim.rng` named streams (or an explicitly-seeded local
  generator in offline analysis code).
- **RL003** — ``id()``/``hash()`` inside user-visible strings
  (f-strings, ``%``/``.format`` templates, ``str()``/``repr()`` calls)
  or ordering keys (``sorted``/``min``/``max``/``.sort`` keys): memory
  addresses and salted string hashes differ per process and poison
  traces (this rule's seed finding was
  ``ConsistentHistoryMachine.__repr__`` falling back to ``id(self)``).
- **RL004** — ``for`` loops that iterate a bare ``set`` (literal,
  ``set()`` call, or a local/module/``self.`` name assigned from one) or
  a ``dict.values()`` view while the loop body performs effects that
  reach the event queue or an ordered record (sends, emits, publishes,
  schedules, appends...).  Set iteration order depends on hash seeding;
  wrap in ``sorted(...)``.
- **RL005** — mutable default arguments (the classic shared-state
  footgun; also breaks replay when the leak depends on call order).
- **RL006** — bare ``except:`` inside ``on_*``/``_on_*`` event-handler
  methods: a swallowed trigger is silent protocol divergence.
- **RL007** — per-event metric lookups inside hot paths (``on_*``/
  ``_on_*`` handlers and generator process bodies): a chained
  ``.labels(...).inc()``-style call, or a ``*.metrics.counter()``/
  ``gauge()``/``histogram()`` registry lookup, repeated per packet or
  per event.  Bind the series once, at init or on first observation,
  and update the bound series; a lazily-bound series (``.labels()``
  assigned onto ``self`` or into a dict on first miss) is fine and not
  flagged.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .findings import AnalysisReport, Finding
from .pragmas import Pragmas, parse_pragmas
from .rules import PARSE_RULE, RULES

__all__ = ["lint_source", "lint_paths", "iter_python_files"]


def _dotted(node: ast.AST) -> Optional[str]:
    """Dotted name of a Name/Attribute chain, or None if not a pure chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# -- RL001: wall clock -------------------------------------------------------

_WALL_CLOCK_EXACT = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
}
#: (penultimate, last) attribute pairs: catches datetime.now(),
#: datetime.datetime.now(), datetime.date.today(), ...
_WALL_CLOCK_TAILS = {
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}
#: names that, imported from ``time``, are wall-clock reads
_WALL_CLOCK_IMPORTS = {"time", "time_ns", "monotonic", "monotonic_ns"}

# -- RL002: global / unseeded RNG -------------------------------------------

#: np.random attributes that do NOT touch the global generator
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

# -- RL004: unordered iteration ---------------------------------------------

#: method names whose call inside the loop body means iteration order
#: escapes into an ordered artifact (events, queues, lists, the wire)
_EFFECT_METHODS = {
    "append",
    "appendleft",
    "call_at",
    "call_in",
    "emit",
    "_emit",
    "extend",
    "fail",
    "inc",
    "insert",
    "insert_after",
    "interrupt",
    "observe",
    "process",
    "publish",
    "push",
    "put",
    "put_nowait",
    "schedule",
    "send",
    "_send",
    "succeed",
    "timeout",
    "write",
    "writelines",
}
_EFFECT_NAMES = {"print"}

# -- RL007: per-event metric lookups ----------------------------------------

#: registry factory methods whose call inside a hot path means a family
#: lookup (name hash + label sort) per event
_METRIC_FACTORIES = {"counter", "gauge", "histogram"}
#: attribute chain tails identifying a metrics registry receiver
_METRIC_REGISTRIES = {"metrics", "registry"}

def _is_generator_fn(node: ast.AST) -> bool:
    """Whether a function has a yield of its own (nested defs excluded)."""
    stack = list(getattr(node, "body", []))
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(sub))
    return False


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _contains_id_hash(node: ast.AST) -> Optional[ast.Call]:
    """First id()/hash() call in the subtree, if any (deterministic walk)."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id in ("id", "hash")
        ):
            return sub
    return None


def _body_has_effects(body: Sequence[ast.stmt]) -> bool:
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(sub, ast.Call):
                if isinstance(sub.func, ast.Attribute) and sub.func.attr in _EFFECT_METHODS:
                    return True
                if isinstance(sub.func, ast.Name) and sub.func.id in _EFFECT_NAMES:
                    return True
    return False


class _FileChecker(ast.NodeVisitor):
    """Run every rule over one parsed file."""

    def __init__(self, path_label: str, tree: ast.Module, pragmas: Pragmas):
        self.path = path_label
        self.pragmas = pragmas
        self.findings: list[Finding] = []
        #: rule id -> pragma-suppression count (suppressions are
        #: reported, not silently discarded)
        self.suppressed: dict[str, int] = {}
        #: names assigned a set at module scope
        self._module_sets: set[str] = set()
        #: attribute names assigned a set via ``self.X = ...`` anywhere
        self._self_sets: set[str] = set()
        #: stack of per-function local set-valued names
        self._local_sets: list[set[str]] = []
        #: stack of "is the enclosing function a hot path" flags (RL007)
        self._hot_stack: list[bool] = []
        self._prescan(tree)

    # -- bookkeeping -------------------------------------------------------

    def _prescan(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and _is_set_expr(stmt.value):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        self._module_sets.add(tgt.id)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for tgt in node.targets:
                    if (
                        isinstance(tgt, ast.Attribute)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                    ):
                        self._self_sets.add(tgt.attr)

    def _flag(self, node: ast.AST, rule_id: str, detail: str = "") -> None:
        rule = RULES[rule_id]
        line = getattr(node, "lineno", 0)
        if self.pragmas.suppresses(rule_id, line):
            self.suppressed[rule_id] = self.suppressed.get(rule_id, 0) + 1
            return
        message = rule.title + (f": {detail}" if detail else "")
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                rule=rule_id,
                message=message,
                hint=rule.hint,
            )
        )

    # -- imports (RL001, RL002) -------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._flag(node, "RL002", "stdlib random module imported")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._flag(node, "RL002", "stdlib random module imported")
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_IMPORTS:
                    self._flag(node, "RL001", f"from time import {alias.name}")
        self.generic_visit(node)

    # -- calls (RL001, RL002, RL003) --------------------------------------

    def _check_wall_clock(self, node: ast.Call, dotted: Optional[str]) -> None:
        if dotted is None:
            return
        parts = dotted.split(".")
        if dotted in _WALL_CLOCK_EXACT:
            self._flag(node, "RL001", f"{dotted}()")
        elif len(parts) >= 2 and (parts[-2], parts[-1]) in _WALL_CLOCK_TAILS:
            self._flag(node, "RL001", f"{dotted}()")

    def _check_rng(self, node: ast.Call, dotted: Optional[str]) -> None:
        if dotted is not None:
            parts = dotted.split(".")
            if (
                len(parts) >= 3
                and parts[-2] == "random"
                and parts[0] in ("np", "numpy")
                and parts[-1] not in _NP_RANDOM_OK
            ):
                self._flag(node, "RL002", f"global-state {dotted}()")
            if parts[0] == "random" and len(parts) == 2:
                self._flag(node, "RL002", f"global-state {dotted}()")
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        if name == "default_rng" and not node.args and not node.keywords:
            self._flag(node, "RL002", "default_rng() without an explicit seed")

    def _check_id_hash_context(self, node: ast.Call) -> None:
        """RL003 ordering-key contexts rooted at a call node."""
        fn = node.func
        exprs: list[ast.AST] = []
        where = "ordering key"
        if isinstance(fn, ast.Name) and fn.id in ("sorted", "min", "max"):
            exprs = [kw.value for kw in node.keywords if kw.arg == "key"]
        elif isinstance(fn, ast.Attribute) and fn.attr == "sort":
            exprs = [kw.value for kw in node.keywords if kw.arg == "key"]
        elif isinstance(fn, ast.Name) and fn.id in ("str", "repr"):
            exprs, where = list(node.args), "string"
        elif isinstance(fn, ast.Attribute) and fn.attr == "format":
            exprs = list(node.args) + [kw.value for kw in node.keywords]
            where = "string"
        for expr in exprs:
            if isinstance(expr, ast.Name) and expr.id in ("id", "hash"):
                self._flag(expr, "RL003", f"{expr.id} used as {where}")
                continue
            hit = _contains_id_hash(expr)
            if hit is not None:
                self._flag(hit, "RL003", f"{hit.func.id}() used in {where}")

    def _check_hot_metrics(self, node: ast.Call, dotted: Optional[str]) -> None:
        """RL007: per-event metric lookups inside hot paths.

        Flags chained ``.labels(...).inc()``-style calls (the label
        lookup is re-done per event) and registry factory calls
        (``*.metrics.counter(...)`` etc.).  A bare ``.labels(...)``
        whose result is assigned — the lazily-bound cache pattern — is
        deliberately not flagged.
        """
        if not (self._hot_stack and self._hot_stack[-1]):
            return
        fn = node.func
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Call):
            inner = fn.value
            if isinstance(inner.func, ast.Attribute) and inner.func.attr == "labels":
                self._flag(inner, "RL007", f".labels(...).{fn.attr}() per event")
                return
        if dotted is not None:
            parts = dotted.split(".")
            if (
                len(parts) >= 2
                and parts[-1] in _METRIC_FACTORIES
                and parts[-2] in _METRIC_REGISTRIES
            ):
                self._flag(node, "RL007", f"{dotted}() lookup per event")

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        self._check_wall_clock(node, dotted)
        self._check_rng(node, dotted)
        self._check_id_hash_context(node)
        self._check_hot_metrics(node, dotted)
        self.generic_visit(node)

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        hit = _contains_id_hash(node)
        if hit is not None:
            self._flag(hit, "RL003", f"{hit.func.id}() interpolated into an f-string")
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            isinstance(node.op, ast.Mod)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)
        ):
            hit = _contains_id_hash(node.right)
            if hit is not None:
                self._flag(hit, "RL003", f"{hit.func.id}() in %-format arguments")
        self.generic_visit(node)

    # -- loops (RL004) -----------------------------------------------------

    def _is_bare_set_iter(self, it: ast.AST) -> bool:
        if _is_set_expr(it):
            return True
        if isinstance(it, ast.Name):
            locals_ = self._local_sets[-1] if self._local_sets else set()
            return it.id in locals_ or it.id in self._module_sets
        if (
            isinstance(it, ast.Attribute)
            and isinstance(it.value, ast.Name)
            and it.value.id == "self"
        ):
            return it.attr in self._self_sets
        return False

    def visit_For(self, node: ast.For) -> None:
        it = node.iter
        unordered = None
        if self._is_bare_set_iter(it):
            unordered = "set"
        elif (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr == "values"
            and not it.args
        ):
            unordered = "dict.values()"
        if unordered and _body_has_effects(node.body):
            self._flag(node, "RL004", f"loop over bare {unordered} with effectful body")
        self.generic_visit(node)

    # -- functions (RL004 locals, RL005, RL006) ---------------------------

    def _visit_function(self, node) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                self._flag(default, "RL005", f"in {node.name}()")
        if node.name.startswith(("on_", "_on_")):
            for sub in ast.walk(node):
                if isinstance(sub, ast.ExceptHandler) and sub.type is None:
                    self._flag(sub, "RL006", f"in handler {node.name}()")
        local_sets = {
            tgt.id
            for stmt in ast.walk(node)
            if isinstance(stmt, ast.Assign) and _is_set_expr(stmt.value)
            for tgt in stmt.targets
            if isinstance(tgt, ast.Name)
        }
        self._local_sets.append(local_sets)
        self._hot_stack.append(
            node.name.startswith(("on_", "_on_")) or _is_generator_fn(node)
        )
        self.generic_visit(node)
        self._hot_stack.pop()
        self._local_sets.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)


# -- runners -----------------------------------------------------------------


def lint_source(
    source: str, path_label: str = "<string>"
) -> tuple[list[Finding], dict[str, int]]:
    """Lint one source text: findings in canonical order, plus per-rule
    pragma-suppression counts."""
    pragmas = parse_pragmas(source)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        parse_finding = Finding(
            path=path_label,
            line=exc.lineno or 0,
            col=(exc.offset or 1) - 1,
            rule=PARSE_RULE.id,
            message=f"{PARSE_RULE.title}: {exc.msg}",
            hint=PARSE_RULE.hint,
        )
        return [parse_finding], {}
    checker = _FileChecker(path_label, tree, pragmas)
    checker.visit(tree)
    return sorted(set(checker.findings)), checker.suppressed


def iter_python_files(paths: Iterable[Union[str, Path]]) -> list[Path]:
    """Expand files/directories into a deterministic, sorted file list."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.update(sub for sub in p.rglob("*.py"))
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out, key=lambda p: p.as_posix())


def lint_paths(
    paths: Iterable[Union[str, Path]], strict: bool = False
) -> AnalysisReport:
    """Lint every ``.py`` under ``paths``; deterministic order and output.

    ``strict=True`` additionally builds the whole-program index
    (:mod:`repro.analysis.program`) and runs the interprocedural rules
    RL009–RL013 over it, merging their findings and suppressions into
    the same report.
    """
    report = AnalysisReport(kind="lint")
    files = iter_python_files(paths)
    for p in files:
        findings, skipped = lint_source(p.read_text(encoding="utf-8"), p.as_posix())
        for finding in findings:
            report.add(finding)
        for rule_id, n in skipped.items():
            report.count_suppressed(rule_id, n)
    if strict:
        from .program import lint_program

        program_findings, program_suppressed = lint_program(paths)
        for finding in program_findings:
            report.add(finding)
        for rule_id, n in program_suppressed.items():
            report.count_suppressed(rule_id, n)
        report.stats["strict"] = True
    report.stats["files"] = len(files)
    report.stats["suppressed"] = sum(report.suppressed.values())
    report.stats["rules"] = len(RULES)
    return report.finalize()
