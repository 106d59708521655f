"""Whole-program dataflow analysis for rainlint (the RainSan static head).

The per-file rules in :mod:`repro.analysis.linter` only see one AST at a
time, so a determinism bug split across a call boundary — a handler that
reaches ``time.time()`` three helpers deep, a shard-handoff serializer
that quietly drops the causal context a *different* module attached — is
invisible to them.  This module builds a :class:`ProgramIndex` over a
whole source tree:

- a **module table** with import resolution (absolute and relative), so
  a name used in one file is traced to the file that defines it;
- a **class table** with base-class links, constructor/field signatures,
  and light attribute-type inference from ``self.x = ClassName(...)``
  assignments;
- a **function table** keyed by qualified name
  (``repro.net.shard.ShardedNetwork._forward``) carrying per-function
  syntactic facts (reads wall clock, draws global RNG, builds an
  unordered-derived return, stages handoffs, ...) and resolved call
  edges.

The interprocedural rules RL009–RL013 run over the index; they are
wired into ``python -m repro lint --strict`` and honour the same
``# rainlint: disable=`` pragmas as the per-file rules (a program
finding is anchored to a concrete file/line, and that file's pragmas
apply to it).

Resolution is deliberately conservative and name-based — no execution,
no type checker: ``self.method()`` resolves through the enclosing
class's MRO within the index, ``self.attr.method()`` through inferred
attribute types, imported names through the import table, and anything
else by unique method name across the program.  Unresolvable calls are
simply not edges; the rules are therefore under-approximate (no finding
is fabricated from a call that cannot be traced) but catch every chain
the index can see.  RL013 leans the same way from the other side: a
reference it cannot resolve counts as a use of every def so named.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from .findings import Finding
from .linter import iter_python_files
from .pragmas import Pragmas, parse_pragmas
from .rules import RULES

__all__ = [
    "ProgramIndex",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "build_program_index",
    "lint_program",
]


# -- shared pattern tables ----------------------------------------------------

#: external callables that read the wall clock (RL009 sinks)
_WALL_CLOCK_SINKS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}

#: simulator attributes that read the clock, touch the event queue or
#: RNG, or schedule work — the state that is per-shard under sharding
_SIM_SENSITIVE = {
    "now",
    "rng",
    "obs",
    "_now",
    "_times",
    "_buckets",
    "_schedule_call",
    "call_in",
    "call_at",
    "timeout",
    "process",
    "event",
    "any_of",
    "all_of",
    "run",
    "step",
    "peek",
}

#: method names that mutate their receiver in place (RL012)
_MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popleft",
    "remove",
    "setdefault",
    "update",
}

#: scheduling entry points whose callable argument becomes a kernel
#: event callback (RL009 sources alongside on_* handlers)
_SCHEDULE_METHODS = {"call_in", "call_at", "schedule_keyed", "process"}

#: np.random attributes that do NOT touch the global generator (RL002's
#: allowlist, mirrored so RL009 agrees with the per-file rule)
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

#: class names whose construction marks a function as being on the
#: cross-shard handoff serialization path (RL010)
_HANDOFF_CLASS_NAMES = {"Handoff"}

#: constructor/field names that carry causal context across a handoff
_CTX_FIELDS = {"ctx", "span", "span_id"}

#: the package whose defs RL013 checks; every other linted file
#: (benchmarks, examples, scripts) is a caller, never a finding
_LIBRARY = "repro"


def _dotted(node: ast.AST) -> Optional[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _module_name_for(path: Path) -> str:
    """Dotted module name by walking up through ``__init__.py`` packages.

    ``src/repro/net/shard.py`` -> ``repro.net.shard``; a standalone file
    in a non-package directory is just its stem.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _module_names(files: list[Path]) -> list[str]:
    """One module name per file; files that would share a name (two
    ``conftest.py`` in non-package directories) are each named by their
    whole path instead, so neither shadows the other in the index."""
    names = [_module_name_for(p) for p in files]
    counts: dict[str, int] = {}
    for name in names:
        counts[name] = counts.get(name, 0) + 1
    return [
        ".".join(part for part in p.with_suffix("").parts if part != "/")
        if counts[name] > 1
        else name
        for p, name in zip(files, names)
    ]


# -- index records ------------------------------------------------------------


@dataclass
class CallSite:
    """One syntactic call inside a function body."""

    raw: str  # dotted receiver text as written ("self.transport.send")
    line: int
    col: int
    node: ast.Call


@dataclass
class FunctionInfo:
    """One function or method, with its facts and call edges."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]  # owning class qualname, or None
    path: str
    line: int
    node: ast.AST
    calls: list[CallSite] = field(default_factory=list)
    #: resolved callee qualnames (function-table keys)
    edges: list[str] = field(default_factory=list)
    #: external dotted sinks this function calls directly (time.time, ...)
    wall_clock: Optional[CallSite] = None
    global_rng: Optional[CallSite] = None
    is_handler: bool = False  # on_*/_on_* naming convention
    is_callback: bool = False  # passed to call_in/call_at/... somewhere
    #: (line, col, description) of returns derived from unordered iteration
    unordered_returns: list[tuple[int, int, str]] = field(default_factory=list)
    #: whether the return value is (transitively) unordered-derived
    returns_unordered: bool = False
    #: calls whose return value is immediately returned (for propagation)
    return_calls: list[CallSite] = field(default_factory=list)
    on_handoff_path: bool = False


@dataclass
class ClassInfo:
    """One class: bases, methods, constructor surface, attribute types."""

    qualname: str
    module: str
    name: str
    path: str
    line: int
    bases: list[str] = field(default_factory=list)  # raw dotted base names
    methods: dict[str, str] = field(default_factory=dict)  # name -> fn qualname
    #: constructor keyword surface: __init__ params plus class-level
    #: annotated fields (covers dataclasses)
    ctor_fields: set[str] = field(default_factory=set)
    #: attribute name -> class qualname inferred from ``self.x = C(...)``
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attribute names assigned from ``*.sim`` chains or kernel ctors
    kernel_attrs: set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """One source file: imports and top-level definitions."""

    name: str
    path: str
    tree: ast.Module
    pragmas: Pragmas
    #: local alias -> absolute dotted target ("np" -> "numpy",
    #: "Handoff" -> "repro.sim.shard.Handoff")
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, str] = field(default_factory=dict)  # name -> qualname
    classes: dict[str, str] = field(default_factory=dict)  # name -> qualname


class ProgramIndex:
    """The whole-program symbol, class, and call-graph index."""

    def __init__(self) -> None:
        #: module name -> module, one per parsed file, in file order
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: method name -> qualnames of every function so named (fallback
        #: resolution when the receiver type is unknown)
        self.by_method: dict[str, list[str]] = {}
        #: attribute names bound to a kernel anywhere in the program
        self.kernel_attr_names: set[str] = {"sim"}

    # -- symbol resolution --------------------------------------------------

    def resolve_name(self, module: ModuleInfo, raw: str) -> Optional[str]:
        """Absolute dotted name for ``raw`` as written in ``module``."""
        head, _, rest = raw.partition(".")
        target = module.imports.get(head)
        if target is not None:
            return f"{target}.{rest}" if rest else target
        if head in module.functions and not rest:
            return module.functions[head]
        if head in module.classes:
            base = module.classes[head]
            return f"{base}.{rest}" if rest else base
        return None

    def resolve_class(self, module: ModuleInfo, raw: str) -> Optional[ClassInfo]:
        """ClassInfo for a raw class reference, if it is in the program."""
        absname = self.resolve_name(module, raw)
        if absname is not None and absname in self.classes:
            return self.classes[absname]
        # a bare name that *is* a known class name anywhere, uniquely
        if "." not in raw:
            candidates = [c for c in self.classes.values() if c.name == raw]
            if len(candidates) == 1:
                return candidates[0]
        return None

    def mro_lookup(self, cls: ClassInfo, method: str) -> Optional[str]:
        """Resolve ``self.method()`` through the class and its bases."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            cur = stack.pop(0)
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            if method in cur.methods:
                return cur.methods[method]
            module = self.modules.get(cur.module)
            if module is None:
                continue
            for raw_base in cur.bases:
                base = self.resolve_class(module, raw_base)
                if base is not None:
                    stack.append(base)
        return None

    def lookup(
        self, absname: str, _seen: frozenset = frozenset()
    ) -> Optional[tuple[Optional[ClassInfo], str]]:
        """``(receiver class, def qualname)`` an absolute name lands on.

        Follows package re-exports (``repro.rudp.X`` -> the module that
        defines ``X``) and base classes (``Cls.method``); the receiver
        is the class a method was looked up on, ``None`` for a function
        or class.
        """
        parts = absname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:cut]))
            if module is not None:
                break
        else:
            return None
        head, rest = parts[cut], parts[cut + 1 :]
        if head in module.imports and absname not in _seen:
            target = ".".join([module.imports[head], *rest])
            return self.lookup(target, _seen | {absname})
        if head in module.functions and not rest:
            return None, module.functions[head]
        if head in module.classes:
            cls = self.classes[module.classes[head]]
            if not rest:
                return None, cls.qualname
            target = self.mro_lookup(cls, rest[0]) if len(rest) == 1 else None
            if target is not None:
                return cls, target
        return None

    def ancestors(self, cls: ClassInfo) -> tuple[set[str], bool]:
        """Qualnames of ``cls`` and its in-program bases, and whether any
        base lies outside the program (``ast.NodeVisitor``, ``Exception``)."""
        seen: set[str] = set()
        outside = False
        stack = [cls]
        while stack:
            cur = stack.pop()
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            module = self.modules[cur.module]
            for raw_base in cur.bases:
                base = self.resolve_class(module, raw_base)
                if base is not None:
                    stack.append(base)
                elif raw_base != "object":
                    outside = True
        return seen, outside

    def attr_type(self, cls: ClassInfo, attr: str) -> Optional[ClassInfo]:
        """Inferred class of ``self.<attr>`` for methods of ``cls``."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            cur = stack.pop(0)
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            target = cur.attr_types.get(attr)
            if target is not None:
                return self.classes.get(target)
            module = self.modules.get(cur.module)
            if module is None:
                continue
            for raw_base in cur.bases:
                base = self.resolve_class(module, raw_base)
                if base is not None:
                    stack.append(base)
        return None


# -- collection ---------------------------------------------------------------


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _FunctionCollector(ast.NodeVisitor):
    """Harvest one function body: call sites, sinks, unordered returns."""

    def __init__(self, info: FunctionInfo, self_sets: set[str]):
        self.info = info
        #: attribute names assigned a set via ``self.X = ...`` in the class
        self._self_sets = self_sets
        self._local_sets: set[str] = set()
        self._depth = 0

    def collect(self) -> None:
        node = self.info.node
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and _is_set_expr(stmt.value):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        self._local_sets.add(tgt.id)
        for stmt in getattr(node, "body", []):
            self.visit(stmt)

    # nested defs get their own FunctionInfo; do not descend
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def _unordered_source(self, it: ast.AST) -> Optional[str]:
        """Description of ``it`` if iterating it is hash-order dependent."""
        if _is_set_expr(it):
            return "set"
        if isinstance(it, ast.Name) and it.id in self._local_sets:
            return f"set {it.id!r}"
        if (
            isinstance(it, ast.Attribute)
            and isinstance(it.value, ast.Name)
            and it.value.id == "self"
            and it.attr in self._self_sets
        ):
            return f"set self.{it.attr}"
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr == "values"
            and not it.args
        ):
            return "dict.values()"
        return None

    def _unordered_expr(self, expr: ast.AST) -> Optional[str]:
        """Whether ``expr`` *builds its value* from unordered iteration."""
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in expr.generators:
                desc = self._unordered_source(gen.iter)
                if desc is not None:
                    return f"comprehension over {desc}"
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("list", "tuple")
            and expr.args
        ):
            desc = self._unordered_source(expr.args[0])
            if desc is not None:
                return f"{expr.func.id}() over {desc}"
        return None

    def visit_Return(self, node: ast.Return) -> None:
        value = node.value
        if value is not None:
            desc = self._unordered_expr(value)
            if desc is not None:
                self.info.unordered_returns.append(
                    (node.lineno, node.col_offset, desc)
                )
                self.info.returns_unordered = True
            for sub in ast.walk(value):
                if isinstance(sub, ast.Call):
                    raw = _dotted(sub.func)
                    if raw is not None:
                        self.info.return_calls.append(
                            CallSite(raw, sub.lineno, sub.col_offset, sub)
                        )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        raw = _dotted(node.func)
        if raw is not None:
            site = CallSite(raw, node.lineno, node.col_offset, node)
            self.info.calls.append(site)
            tail = raw.split(".")[-1]
            pair = ".".join(raw.split(".")[-2:])
            if raw in _WALL_CLOCK_SINKS or pair in _WALL_CLOCK_SINKS:
                if self.info.wall_clock is None:
                    self.info.wall_clock = site
            parts = raw.split(".")
            if (
                parts[0] == "random"
                and len(parts) == 2
                or (
                    len(parts) >= 3
                    and parts[0] in ("np", "numpy")
                    and parts[-2] == "random"
                    and parts[-1] not in _NP_RANDOM_OK
                )
            ):
                if self.info.global_rng is None:
                    self.info.global_rng = site
            if tail == "default_rng" and not node.args and not node.keywords:
                if self.info.global_rng is None:
                    self.info.global_rng = site
        self.generic_visit(node)


class _UseCollector(ast.NodeVisitor):
    """Every use of a name in one module (RL013).

    A use the index resolves lands in ``resolved`` as ``(receiver class
    qualname or None, def qualname)``; one it cannot resolve, and every
    string constant, lands in ``names`` and keeps each def so named; a
    chain rooted in an outside module (``gc.freeze``) is no use at all.
    Import statements hold no ``Name`` nodes, and ``__all__`` is skipped.
    """

    def __init__(self, index: ProgramIndex, module: ModuleInfo, packages: set[str]):
        self.index = index
        self.module = module
        self.packages = packages
        self.resolved: set[tuple[Optional[str], str]] = set()
        self.names: set[str] = set()
        self._cls: Optional[ClassInfo] = None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer = self._cls
        self._cls = self.index.classes.get(f"{self.module.name}.{node.name}", outer)
        self.generic_visit(node)
        self._cls = outer

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not (isinstance(node.target, ast.Name) and node.target.id == "__all__"):
            self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self.names.add(node.value)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._use(node.id, node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._use(_dotted(node), node.attr)
        self.generic_visit(node)

    def _use(self, raw: Optional[str], tail: str) -> None:
        index = self.index
        parts = raw.split(".") if raw is not None else []
        if parts and parts[0] == "self" and self._cls is not None and len(parts) in (2, 3):
            holder = self._cls if len(parts) == 2 else index.attr_type(self._cls, parts[1])
            target = index.mro_lookup(holder, tail) if holder is not None else None
            if target is not None:
                self.resolved.add((holder.qualname, target))
                return
        elif parts and parts[0] != "self":
            absname = index.resolve_name(self.module, raw)
            if absname is not None:
                if absname.split(".")[0] not in self.packages:
                    return  # an outside module's name, whatever it is called
                hit = index.lookup(absname)
                if hit is not None:
                    self.resolved.add((hit[0] and hit[0].qualname, hit[1]))
                    return
        self.names.add(tail)


def _collect_class(
    module: ModuleInfo, node: ast.ClassDef, index: ProgramIndex
) -> ClassInfo:
    qualname = f"{module.name}.{node.name}"
    cls = ClassInfo(
        qualname=qualname,
        module=module.name,
        name=node.name,
        path=module.path,
        line=node.lineno,
    )
    for base in node.bases:
        raw = _dotted(base)
        if raw is not None:
            cls.bases.append(raw)
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            cls.ctor_fields.add(stmt.target.id)  # dataclass-style field
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fq = f"{qualname}.{stmt.name}"
            cls.methods[stmt.name] = fq
            if stmt.name == "__init__":
                args = stmt.args
                for a in list(args.args)[1:] + list(args.kwonlyargs):
                    cls.ctor_fields.add(a.arg)
    # attribute facts from every method body: types from constructor
    # assignments, kernel-valued names from ``self.x = <chain>.sim``
    for stmt in ast.walk(node):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        tgt = stmt.targets[0]
        if not (
            isinstance(tgt, ast.Attribute)
            and isinstance(tgt.value, ast.Name)
            and tgt.value.id == "self"
        ):
            continue
        value = stmt.value
        if isinstance(value, ast.Call):
            raw = _dotted(value.func)
            if raw is not None:
                cls.attr_types.setdefault(tgt.attr, raw)  # resolved later
                if raw.split(".")[-1] in ("Simulator", "ShardKernel"):
                    cls.kernel_attrs.add(tgt.attr)
        elif isinstance(value, ast.Attribute):
            raw = _dotted(value)
            if raw is not None and raw.split(".")[-1] == "sim":
                cls.kernel_attrs.add(tgt.attr)
        elif isinstance(value, ast.ListComp) and isinstance(value.elt, ast.Call):
            # self.kernels = [ShardKernel(...) for ...] — a *collection*
            # of kernels is kernel-valued too (RL012's pipe-send check
            # must see ``kernels[r]`` as a live kernel reference)
            raw = _dotted(value.elt.func)
            if raw is not None and raw.split(".")[-1] in ("Simulator", "ShardKernel"):
                cls.kernel_attrs.add(tgt.attr)
    return cls


def build_program_index(paths: Iterable[Union[str, Path]]) -> ProgramIndex:
    """Parse every ``.py`` under ``paths`` into one :class:`ProgramIndex`."""
    index = ProgramIndex()
    files = iter_python_files(paths)
    for path, name in zip(files, _module_names(files)):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue  # per-file lint reports RL000; nothing to index
        module = ModuleInfo(
            name=name,
            path=path.as_posix(),
            tree=tree,
            pragmas=parse_pragmas(source),
        )
        # import table (a package's ``__init__`` is inside its package)
        pkg_parts = name.split(".")[: None if path.stem == "__init__" else -1]
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    module.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        module.imports[alias.asname] = alias.name
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.level:
                    base_parts = pkg_parts[: len(pkg_parts) - (stmt.level - 1)]
                    base = ".".join(base_parts + ([stmt.module] if stmt.module else []))
                else:
                    base = stmt.module or ""
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    module.imports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        # definitions
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fq = f"{name}.{stmt.name}"
                module.functions[stmt.name] = fq
                index.functions[fq] = FunctionInfo(
                    qualname=fq,
                    module=name,
                    name=stmt.name,
                    cls=None,
                    path=module.path,
                    line=stmt.lineno,
                    node=stmt,
                    is_handler=stmt.name.startswith(("on_", "_on_")),
                )
            elif isinstance(stmt, ast.ClassDef):
                cls = _collect_class(module, stmt, index)
                module.classes[stmt.name] = cls.qualname
                index.classes[cls.qualname] = cls
                self_sets = {
                    t.attr
                    for s in ast.walk(stmt)
                    if isinstance(s, ast.Assign) and _is_set_expr(s.value)
                    for t in s.targets
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                }
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fq = cls.methods[sub.name]
                        index.functions[fq] = FunctionInfo(
                            qualname=fq,
                            module=name,
                            name=sub.name,
                            cls=cls.qualname,
                            path=module.path,
                            line=sub.lineno,
                            node=sub,
                            is_handler=sub.name.startswith(("on_", "_on_")),
                        )
                        setattr(index.functions[fq], "_self_sets", self_sets)
        index.modules[name] = module
    # harvest function bodies (now that the symbol tables exist);
    # qualname order keeps every derived table canonical
    for info in sorted(index.functions.values(), key=lambda f: f.qualname):
        collector = _FunctionCollector(info, getattr(info, "_self_sets", set()))
        collector.collect()
        index.by_method.setdefault(info.name, []).append(info.qualname)
    for methods in index.by_method.values():
        methods.sort()
    # resolve attr_types raw constructor names -> class qualnames, and
    # pool kernel-valued attribute names program-wide
    for cls in index.classes.values():
        module = index.modules[cls.module]
        resolved: dict[str, str] = {}
        for attr, raw in cls.attr_types.items():
            target = index.resolve_class(module, raw)
            if target is not None:
                resolved[attr] = target.qualname
        cls.attr_types = resolved
        index.kernel_attr_names |= cls.kernel_attrs
    _link_calls(index)
    _mark_callbacks(index)
    _mark_handoff_path(index)
    _propagate_unordered_returns(index)
    return index


def _resolve_call(
    index: ProgramIndex, info: FunctionInfo, site: CallSite
) -> list[str]:
    """Callee qualnames for one call site (possibly empty)."""
    module = index.modules.get(info.module)
    if module is None:
        return []
    raw = site.raw
    parts = raw.split(".")
    # self.method() / self.attr.method()
    if parts[0] == "self" and info.cls is not None:
        cls = index.classes.get(info.cls)
        if cls is None:
            return []
        if len(parts) == 2:
            target = index.mro_lookup(cls, parts[1])
            return [target] if target else []
        if len(parts) == 3:
            holder = index.attr_type(cls, parts[1])
            if holder is not None:
                target = index.mro_lookup(holder, parts[2])
                return [target] if target else []
        # fall through to unique-name resolution on the method tail
    else:
        absname = index.resolve_name(module, raw)
        if absname is not None:
            if absname in index.functions:
                return [absname]
            if absname in index.classes:
                ctor = index.classes[absname].methods.get("__init__")
                return [ctor] if ctor else []
            # imported-module attribute that is a program function/class
            if absname.rsplit(".", 1)[0] in index.modules:
                mod = index.modules[absname.rsplit(".", 1)[0]]
                tail = absname.rsplit(".", 1)[1]
                if tail in mod.functions:
                    return [mod.functions[tail]]
                if tail in mod.classes:
                    ctor = index.classes[mod.classes[tail]].methods.get("__init__")
                    return [ctor] if ctor else []
            return []
        if len(parts) == 1:
            return []  # unknown bare name (builtin, local var)
    # fallback: unique method name across the program
    tail = parts[-1]
    candidates = index.by_method.get(tail, [])
    # methods only — a unique *module-level* function would have resolved
    candidates = [q for q in candidates if index.functions[q].cls is not None]
    if len(candidates) == 1:
        return candidates
    return []


def _link_calls(index: ProgramIndex) -> None:
    for info in sorted(index.functions.values(), key=lambda f: f.qualname):
        seen: set[str] = set()
        for site in info.calls:
            for target in _resolve_call(index, info, site):
                if target not in seen:
                    seen.add(target)
                    info.edges.append(target)


def _mark_callbacks(index: ProgramIndex) -> None:
    """Functions passed (by reference) to scheduling calls are sources."""
    for info in index.functions.values():
        module = index.modules.get(info.module)
        cls = index.classes.get(info.cls) if info.cls else None
        for site in info.calls:
            if site.raw.split(".")[-1] not in _SCHEDULE_METHODS:
                continue
            for arg in site.node.args:
                raw = _dotted(arg)
                if raw is None:
                    if isinstance(arg, ast.Call):  # process(gen(...))
                        raw = _dotted(arg.func)
                    if raw is None:
                        continue
                parts = raw.split(".")
                target: Optional[str] = None
                if parts[0] == "self" and cls is not None and len(parts) == 2:
                    target = index.mro_lookup(cls, parts[1])
                elif module is not None:
                    absname = index.resolve_name(module, raw)
                    if absname in index.functions:
                        target = absname
                if target is not None:
                    index.functions[target].is_callback = True


def _mark_handoff_path(index: ProgramIndex) -> None:
    """Functions that stage handoffs or serve as inject handlers (RL010)."""
    for info in index.functions.values():
        for site in info.calls:
            parts = site.raw.split(".")
            if parts[-1] in _HANDOFF_CLASS_NAMES:
                info.on_handoff_path = True
            if parts[-1] == "append" and len(parts) >= 2 and parts[-2] == "outbox":
                info.on_handoff_path = True
        # ``<kernel>.on_inject = self._handler`` marks the handler
        cls = index.classes.get(info.cls) if info.cls else None
        for stmt in ast.walk(info.node):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            tgt = stmt.targets[0]
            if not (isinstance(tgt, ast.Attribute) and tgt.attr == "on_inject"):
                continue
            raw = _dotted(stmt.value)
            if raw is None:
                continue
            parts = raw.split(".")
            if parts[0] == "self" and cls is not None and len(parts) == 2:
                target = index.mro_lookup(cls, parts[1])
                if target is not None:
                    index.functions[target].on_handoff_path = True


def _propagate_unordered_returns(index: ProgramIndex) -> None:
    """``def f(): return g()`` is unordered-returning if ``g`` is."""
    changed = True
    while changed:
        changed = False
        for info in sorted(index.functions.values(), key=lambda f: f.qualname):
            if info.returns_unordered:
                continue
            for site in info.return_calls:
                for target in _resolve_call(index, info, site):
                    callee = index.functions.get(target)
                    if callee is not None and callee.returns_unordered:
                        info.returns_unordered = True
                        info.unordered_returns.append(
                            (
                                site.line,
                                site.col,
                                f"returns unordered-derived result of "
                                f"{callee.qualname}()",
                            )
                        )
                        changed = True
                        break
                if info.returns_unordered:
                    break


# -- rules --------------------------------------------------------------------


class _ProgramLinter:
    """Run RL009–RL013 over a built index."""

    def __init__(self, index: ProgramIndex):
        self.index = index
        self.findings: list[Finding] = []
        self.suppressed: dict[str, int] = {}

    def _flag(
        self, path: str, line: int, col: int, rule_id: str, detail: str
    ) -> None:
        rule = RULES[rule_id]
        for module in self.index.modules.values():
            if module.path == path and module.pragmas.suppresses(rule_id, line):
                self.suppressed[rule_id] = self.suppressed.get(rule_id, 0) + 1
                return
        self.findings.append(
            Finding(
                path=path,
                line=line,
                col=col,
                rule=rule_id,
                message=f"{rule.title}: {detail}",
                hint=rule.hint,
            )
        )

    # -- RL009 ----------------------------------------------------------

    def check_rl009(self) -> None:
        """Handlers/callbacks transitively reaching wall clock or RNG."""
        index = self.index
        sources = [
            f
            for f in index.functions.values()
            if f.is_handler or f.is_callback
        ]
        for src in sorted(sources, key=lambda f: (f.path, f.line)):
            chain = self._find_sink_chain(src)
            if chain is None:
                continue
            path_names = [f.qualname for f in chain[0]]
            sink_site, kind = chain[1], chain[2]
            self._flag(
                src.path,
                src.line,
                0,
                "RL009",
                f"{src.qualname} reaches {kind} via "
                + " -> ".join(path_names + [f"{sink_site.raw}()"]),
            )

    def _find_sink_chain(
        self, src: FunctionInfo
    ) -> Optional[tuple[list[FunctionInfo], CallSite, str]]:
        """BFS from ``src`` to the nearest wall-clock/RNG sink."""
        index = self.index
        queue: list[tuple[FunctionInfo, list[FunctionInfo]]] = [(src, [src])]
        seen = {src.qualname}
        while queue:
            cur, trail = queue.pop(0)
            if cur.wall_clock is not None:
                return trail, cur.wall_clock, "the wall clock"
            if cur.global_rng is not None:
                return trail, cur.global_rng, "global RNG state"
            for edge in cur.edges:
                if edge in seen:
                    continue
                seen.add(edge)
                callee = index.functions.get(edge)
                if callee is not None:
                    queue.append((callee, trail + [callee]))
        return None

    # -- RL010 ----------------------------------------------------------

    def check_rl010(self) -> None:
        """ctx/span-carrying objects rebuilt without ctx on handoff paths."""
        index = self.index
        for info in sorted(
            index.functions.values(), key=lambda f: (f.path, f.line)
        ):
            if not info.on_handoff_path:
                continue
            module = index.modules.get(info.module)
            if module is None:
                continue
            for site in info.calls:
                target = index.resolve_class(module, site.raw)
                if target is None or target.name in _HANDOFF_CLASS_NAMES:
                    continue
                carried = target.ctor_fields & _CTX_FIELDS
                if not carried:
                    continue
                passed = {kw.arg for kw in site.node.keywords if kw.arg}
                if passed & _CTX_FIELDS:
                    continue
                self._flag(
                    info.path,
                    site.line,
                    site.col,
                    "RL010",
                    f"{target.name}(...) rebuilt in {info.qualname} without "
                    f"forwarding {'/'.join(sorted(carried))}",
                )

    # -- RL011 ----------------------------------------------------------

    def check_rl011(self) -> None:
        """Unordered-derived results feeding pickling or trace emission."""
        index = self.index
        flagged: set[tuple[str, int, int]] = set()
        for info in sorted(
            index.functions.values(), key=lambda f: (f.path, f.line)
        ):
            for site in info.calls:
                sink = self._serialization_sink(site)
                if sink is None:
                    continue
                for arg in list(site.node.args) + [
                    kw.value for kw in site.node.keywords
                ]:
                    for sub in ast.walk(arg):
                        if not isinstance(sub, ast.Call):
                            continue
                        raw = _dotted(sub.func)
                        if raw is None:
                            continue
                        inner = CallSite(raw, sub.lineno, sub.col_offset, sub)
                        for target in _resolve_call(index, info, inner):
                            callee = index.functions.get(target)
                            if callee is None or not callee.returns_unordered:
                                continue
                            line, col, desc = callee.unordered_returns[0]
                            key = (callee.path, line, col)
                            if key in flagged:
                                continue
                            flagged.add(key)
                            self._flag(
                                callee.path,
                                line,
                                col,
                                "RL011",
                                f"{desc} in {callee.qualname} feeds "
                                f"{sink} in {info.qualname}",
                            )
        # direct case: the unordered expression is written inline at the sink
        for info in sorted(
            index.functions.values(), key=lambda f: (f.path, f.line)
        ):
            collector = _FunctionCollector(info, getattr(info, "_self_sets", set()))
            for site in info.calls:
                sink = self._serialization_sink(site)
                if sink is None:
                    continue
                for arg in list(site.node.args) + [
                    kw.value for kw in site.node.keywords
                ]:
                    for sub in ast.walk(arg):
                        desc = collector._unordered_expr(sub)
                        if desc is None:
                            continue
                        key = (info.path, sub.lineno, sub.col_offset)
                        if key in flagged:
                            continue
                        flagged.add(key)
                        self._flag(
                            info.path,
                            sub.lineno,
                            sub.col_offset,
                            "RL011",
                            f"{desc} feeds {sink} in {info.qualname}",
                        )

    @staticmethod
    def _serialization_sink(site: CallSite) -> Optional[str]:
        parts = site.raw.split(".")
        if parts[-1] == "dumps" and len(parts) >= 2 and parts[-2] == "pickle":
            return "pickle.dumps"
        if parts[-1] in _HANDOFF_CLASS_NAMES:
            return "a shard Handoff"
        if parts[-1] == "publish":
            return "bus.publish"
        if parts[-1] in ("start", "instant") and any(
            "tracer" in p for p in parts[:-1]
        ):
            return f"tracer.{parts[-1]}"
        return None

    # -- RL012 ----------------------------------------------------------

    def check_rl012(self) -> None:
        """Cross-shard kernel reach through inferred kernel attributes."""
        index = self.index
        kattrs = index.kernel_attr_names
        for info in sorted(
            index.functions.values(), key=lambda f: (f.path, f.line)
        ):
            if info.name == "__init__":
                continue  # the sanctioned once-at-init binding site
            aliases: set[str] = set()
            for stmt in ast.walk(info.node):
                # alias capture: x = <2+ hops>.<kernel attr>
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                ):
                    raw = _dotted(stmt.value)
                    if (
                        raw is not None
                        and raw.split(".")[-1] in kattrs
                        and len(raw.split(".")) >= 3
                    ):
                        aliases.add(stmt.targets[0].id)
                        self._flag(
                            info.path,
                            stmt.lineno,
                            stmt.col_offset,
                            "RL012",
                            f"{stmt.targets[0].id} = {raw} aliases another "
                            f"object's kernel in {info.qualname}",
                        )
                # chained reach through a kernel attribute (the literal
                # ``a.b.sim.now`` included): two or more hops, then a
                # clock/queue/RNG/scheduling attribute
                if isinstance(stmt, ast.Attribute) and stmt.attr in _SIM_SENSITIVE:
                    raw = _dotted(stmt.value)
                    if raw is None:
                        continue
                    parts = raw.split(".")
                    if len(parts) >= 3 and parts[-1] in kattrs:
                        self._flag(
                            info.path,
                            stmt.lineno,
                            stmt.col_offset,
                            "RL012",
                            f"{raw}.{stmt.attr} reaches another shard's "
                            f"kernel in {info.qualname}",
                        )
                # live kernel object shipped through a pipe/socket send:
                # workers must exchange Handoffs, never the
                # kernels themselves (pickling one drags the whole event
                # queue, RNG state, and bound callbacks across the
                # process boundary as a divergent copy)
                if (
                    isinstance(stmt, ast.Call)
                    and isinstance(stmt.func, ast.Attribute)
                    and stmt.func.attr == "send"
                ):
                    for arg in stmt.args:
                        leaf = self._kernel_leaf(arg, kattrs)
                        if leaf is not None:
                            self._flag(
                                info.path,
                                stmt.lineno,
                                stmt.col_offset,
                                "RL012",
                                f"{_dotted(stmt.func) or 'send'}(...) ships "
                                f"live kernel object {leaf} over a pipe in "
                                f"{info.qualname}; send Handoff blobs, not "
                                f"kernels",
                            )
                            break
                # mutation through a kernel chain: a.b.<kattr>.x.append(...)
                if isinstance(stmt, ast.Call) and isinstance(
                    stmt.func, ast.Attribute
                ):
                    if stmt.func.attr in _MUTATING_METHODS:
                        raw = _dotted(stmt.func.value)
                        if raw is None:
                            continue
                        parts = raw.split(".")
                        for i, part in enumerate(parts):
                            if part in kattrs and i >= 2:
                                self._flag(
                                    info.path,
                                    stmt.lineno,
                                    stmt.col_offset,
                                    "RL012",
                                    f"{raw}.{stmt.func.attr}(...) mutates "
                                    f"another shard's kernel state in "
                                    f"{info.qualname}",
                                )
                                break

    @staticmethod
    def _kernel_leaf(arg: ast.AST, kattrs: set) -> Optional[str]:
        """Dotted text of a direct kernel reference inside a send arg.

        Recurses through *container* displays only (tuples, lists,
        sets, dict values, starred) — a kernel passed into a nested
        call is that call's business, not the send's, since the value
        shipped is the call's result.
        """
        if isinstance(arg, (ast.Tuple, ast.List, ast.Set)):
            for elt in arg.elts:
                leaf = _ProgramLinter._kernel_leaf(elt, kattrs)
                if leaf is not None:
                    return leaf
            return None
        if isinstance(arg, ast.Dict):
            for value in arg.values:
                if value is None:
                    continue
                leaf = _ProgramLinter._kernel_leaf(value, kattrs)
                if leaf is not None:
                    return leaf
            return None
        if isinstance(arg, ast.Starred):
            return _ProgramLinter._kernel_leaf(arg.value, kattrs)
        if isinstance(arg, ast.Subscript):  # kernels[r], self.kernels[d]
            return _ProgramLinter._kernel_leaf(arg.value, kattrs)
        if isinstance(arg, ast.Name) and arg.id in kattrs:
            return arg.id
        if isinstance(arg, ast.Attribute) and arg.attr in kattrs:
            return _dotted(arg) or arg.attr
        return None

    # -- RL013 ----------------------------------------------------------

    def check_rl013(self) -> None:
        """Library defs, methods and classes that nothing linted uses."""
        index = self.index
        packages = {name.split(".")[0] for name in index.modules}
        used: set[str] = set()
        names: set[str] = set()
        receivers: dict[str, set[str]] = {}  # class -> method names used on it
        modules = sorted(index.modules.values(), key=lambda m: m.path)
        for module in modules:
            uses = _UseCollector(index, module, packages)
            uses.visit(module.tree)
            names |= uses.names
            for receiver, target in uses.resolved:
                used.add(target)
                if receiver is not None:
                    receivers.setdefault(receiver, set()).add(target.rsplit(".", 1)[1])
        candidates: list[tuple[str, int, str]] = []  # (path, line, qualname)
        for module in modules:
            if module.name != _LIBRARY and not module.name.startswith(_LIBRARY + "."):
                continue
            for qualname in sorted(module.functions.values()):
                candidates.append((module.path, index.functions[qualname].line, qualname))
            for qualname in sorted(module.classes.values()):
                cls = index.classes[qualname]
                candidates.append((module.path, cls.line, qualname))
                lineage, framework = index.ancestors(cls)
                if framework:
                    continue  # its methods are dispatched from outside
                # a method used on any base is used on this override too
                inherited = set().union(*(receivers.get(q, ()) for q in lineage))
                for name, fq in sorted(cls.methods.items()):
                    if name not in inherited:
                        candidates.append((module.path, index.functions[fq].line, fq))
        for path, line, qualname in sorted(candidates):
            name = qualname.rsplit(".", 1)[1]
            if qualname in used or name in names:
                continue
            if name.startswith("__") and name.endswith("__"):
                continue
            self._flag(path, line, 0, "RL013", f"{qualname} has no caller")

    def run(self) -> tuple[list[Finding], dict[str, int]]:
        self.check_rl009()
        self.check_rl010()
        self.check_rl011()
        self.check_rl012()
        self.check_rl013()
        return sorted(set(self.findings)), self.suppressed


def lint_program(
    paths: Iterable[Union[str, Path]],
    index: Optional[ProgramIndex] = None,
) -> tuple[list[Finding], dict[str, int]]:
    """Run the interprocedural rules; returns (findings, suppressed-per-rule).

    ``index`` may be passed to reuse a pre-built :class:`ProgramIndex`
    (the CLI builds one index and shares it between rules and stats).
    """
    if index is None:
        index = build_program_index(paths)
    return _ProgramLinter(index).run()
