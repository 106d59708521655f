"""RainSan's static head: whole-program rules RL009–RL013.

Each RL009–RL012 fixture is invisible to the per-file pass (that is the
point — the defect only exists across function boundaries) and must
yield exactly one finding from ``lint_program``, anchored where the fix
goes.  RL013's fixture is a small program (``rl013/``): a library
package, its entry point and a test-side caller.  The suite also covers
the index itself, pragma suppression of interprocedural findings, the
``--strict`` merge into ``lint_paths``, and the strict-clean shipped
tree the CI gate runs (linted once per session by ``linted_tree``).
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis import (
    build_program_index,
    lint_paths,
    lint_program,
)

FIXTURES = Path(__file__).parent / "fixtures" / "rainlint" / "program"

#: fixture stem -> (rule, anchored line)
SEEDED = {
    "rl009_handler_wall_clock": ("RL009", 12),
    "rl010_ctx_dropped": ("RL010", 33),
    "rl011_unordered_pickle": ("RL011", 19),
    "rl012_cross_sim": ("RL012", 19),
    "rl012_peer_kernel_alias": ("RL012", 22),
    "rl012_pipe_send": ("RL012", 25),
}


# -- the seeded fixtures ----------------------------------------------------


@pytest.mark.parametrize("stem", sorted(SEEDED))
def test_fixture_yields_exactly_one_program_finding(stem):
    rule, line = SEEDED[stem]
    path = FIXTURES / f"{stem}.py"
    findings, _ = lint_program([path])
    assert [f.rule for f in findings] == [rule]
    assert findings[0].line == line
    assert findings[0].path == path.as_posix()


@pytest.mark.parametrize("stem", sorted(SEEDED))
def test_fixture_is_invisible_to_the_per_file_pass(stem):
    """The defect must genuinely require the interprocedural pass."""
    assert lint_paths([FIXTURES / f"{stem}.py"]).findings == []


# -- RL012's literal-``.sim`` reach (the per-file RL008 it absorbed) --------

_SIM_REACH_CASES = {
    "two_hop_clock_read": ("def f(self):\n    return self.transport.sim.now\n", 1),
    "two_hop_obs_chain": (
        "def f(self):\n    self.transport.sim.obs.bus.publish('x')\n",
        1,
    ),
    "two_hop_scheduling": ("def f(a):\n    a.owner.sim.call_in(1.0, a.tick)\n", 1),
    "one_finding_per_chain": (
        "def f(self):\n    self.transport.sim.obs.tracer.start('x')\n",
        1,
    ),
    "own_bound_kernel": ("def f(self):\n    return self.sim.now\n", 0),
    "bare_sim": ("def f(sim):\n    sim.call_in(1.0, f)\n", 0),
    # binding a peer's kernel once at init is the sanctioned fix
    "single_hop_handle_grab": (
        "class C:\n    def __init__(self, host):\n        self.sim = host.sim\n",
        0,
    ),
    "non_sensitive_attribute": (
        "def f(self):\n    return self.transport.sim.lookahead\n",
        0,
    ),
}


@pytest.mark.parametrize("case", sorted(_SIM_REACH_CASES))
def test_rl012_literal_sim_reach(tmp_path, case):
    source, expected = _SIM_REACH_CASES[case]
    target = tmp_path / f"{case}.py"
    target.write_text(source, encoding="utf-8")
    findings, _ = lint_program([target])
    assert [f.rule for f in findings] == ["RL012"] * expected


def test_program_dir_yields_every_program_rule_in_canonical_order():
    findings, suppressed = lint_program([FIXTURES])
    assert [f.rule for f in findings] == [
        "RL009",
        "RL010",
        "RL011",
        "RL012",
        "RL012",
        "RL012",
        "RL013",
        "RL009",  # shadowed/a/conftest.py
    ]
    # findings sort by (path, line, rule, ...)
    keys = [(f.path, f.line, f.rule) for f in findings]
    assert keys == sorted(keys)
    # the one program pragma in the fixtures is RL013's (the rl009
    # fixture's RL001 pragma belongs to the per-file pass)
    assert suppressed == {"RL013": 1}


def test_two_files_with_one_module_name_are_both_analysed():
    # shadowed/a and shadowed/b each hold a conftest.py (no package), so
    # both map to the module name "conftest" and define the same class.
    # Keyed by name alone, b replaced a and a's RL009 chain went unseen.
    shadowed = FIXTURES / "shadowed"
    findings, _ = lint_program([shadowed])
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("RL009", (shadowed / "a" / "conftest.py").as_posix(), 13)
    ]
    index = build_program_index([shadowed])
    assert sorted(m.path for m in index.modules.values()) == [
        (shadowed / d / "conftest.py").as_posix() for d in "ab"
    ]


# -- the index itself -------------------------------------------------------


def test_index_over_fixture_resolves_symbols():
    index = build_program_index([FIXTURES])
    mod = "rl009_handler_wall_clock"
    assert f"{mod}.HeartbeatNode" in index.classes
    handler = index.functions[f"{mod}.HeartbeatNode.on_heartbeat"]
    assert handler.is_handler
    # the call edges resolve through both helpers to the sink
    assert f"{mod}.HeartbeatNode._stamp" in handler.edges
    stamp = index.functions[f"{mod}.HeartbeatNode._stamp"]
    assert f"{mod}.HeartbeatNode._read_clock" in stamp.edges
    clock = index.functions[f"{mod}.HeartbeatNode._read_clock"]
    assert clock.wall_clock  # the sink fact lives on the leaf


def test_index_infers_kernel_valued_attributes():
    index = build_program_index([FIXTURES / "rl012_peer_kernel_alias.py"])
    member = index.classes["rl012_peer_kernel_alias.Member"]
    # self.kernel = host.sim marks "kernel" as kernel-valued
    assert "kernel" in member.kernel_attrs
    assert "kernel" in index.kernel_attr_names


def test_index_over_real_tree_is_substantial(linted_tree):
    index = linted_tree.index
    assert "repro.sim.shard" in index.modules
    assert "repro.sim.shard.ShardKernel" in index.classes
    assert "repro.sim.shard.ShardKernel._insert" in index.functions
    assert len(index.functions) > 500
    # MRO lookup follows base classes: ShardKernel inherits run_process
    kernel = index.classes["repro.sim.shard.ShardKernel"]
    target = index.mro_lookup(kernel, "run_process")
    assert target == "repro.sim.core.Simulator.run_process"


def test_index_reuse_matches_fresh_build():
    index = build_program_index([FIXTURES])
    fresh, _ = lint_program([FIXTURES])
    reused, _ = lint_program([FIXTURES], index=index)
    assert [(f.path, f.line, f.rule) for f in fresh] == [
        (f.path, f.line, f.rule) for f in reused
    ]


# -- pragmas suppress program findings too ----------------------------------


def test_pragma_on_anchor_line_suppresses_program_finding(tmp_path):
    src = (FIXTURES / "rl009_handler_wall_clock.py").read_text(encoding="utf-8")
    patched = src.replace(
        "def on_heartbeat(self, msg):",
        "def on_heartbeat(self, msg):  # rainlint: disable=RL009 -- test",
    )
    assert patched != src
    target = tmp_path / "suppressed_rl009.py"
    target.write_text(patched, encoding="utf-8")
    findings, suppressed = lint_program([target])
    assert findings == []
    assert suppressed.get("RL009") == 1


# -- --strict merges into lint_paths ----------------------------------------


def test_lint_paths_strict_merges_program_findings():
    plain = lint_paths([FIXTURES])
    strict = lint_paths([FIXTURES], strict=True)
    assert plain.findings == []  # per-file pass sees nothing
    assert "strict" not in plain.stats
    assert strict.stats["strict"] is True
    assert [f.rule for f in strict.findings] == [
        "RL009",
        "RL010",
        "RL011",
        "RL012",
        "RL012",
        "RL012",
        "RL013",
        "RL009",  # shadowed/a/conftest.py
    ]
    # suppression counts merge per rule (the hidden RL001 sink pragma)
    assert strict.suppressed.get("RL001", 0) >= 1
    assert strict.stats["suppressed"] == sum(strict.suppressed.values())


def test_clean_tree_is_strict_clean(linted_tree):
    """The shipped tree carries zero interprocedural findings."""
    findings, _ = lint_program(linted_tree.paths, index=linted_tree.index)
    assert findings == []


def test_committed_baseline_is_empty_and_tree_gates_clean(linted_tree):
    """The acceptance bar: `lint --strict` exits 0 on the shipped tree with
    no suppression baseline at all — pragmas are the only suppression, so
    nothing beyond them is accepted."""
    assert not (Path(__file__).parent.parent / "RAINLINT_BASELINE.json").exists()
    assert linted_tree.code == 0, linted_tree.output


# -- RL013: no caller ---------------------------------------------------------

RL013 = FIXTURES / "rl013"

#: the fixture program without its test-side caller
RL013_PROGRAM = [RL013 / "repro", RL013 / "main.py"]


def test_rl013_reports_a_def_only_tests_call_and_one_only_reexported():
    findings, suppressed = lint_program(RL013_PROGRAM)
    assert [(f.rule, f.line, f.message.split(": ")[-1]) for f in findings] == [
        ("RL013", 37, "repro.api.only_reexported has no caller"),
        ("RL013", 41, "repro.api.only_tests_call has no caller"),
    ]
    # silent: the getattr string, the outside base's visit_Call override,
    # and the pragma (counted as a suppression)
    assert suppressed == {"RL013": 1}


def test_rl013_counts_callers_in_every_linted_path():
    findings, _ = lint_program([RL013])  # tests/helpers.py linted too
    assert [f.message.split(": ")[-1] for f in findings] == [
        "repro.api.only_reexported has no caller"
    ]


def test_rl013_without_its_pragma_the_kept_def_fires(tmp_path):
    program = tmp_path / "rl013"
    shutil.copytree(RL013, program)
    api = program / "repro" / "api.py"
    src = api.read_text(encoding="utf-8")
    patched = src.replace(
        "  # rainlint: disable=RL013 -- fixture: a pragma with a reason keeps a name", ""
    )
    assert patched != src
    api.write_text(patched, encoding="utf-8")
    findings, suppressed = lint_program([program / "repro", program / "main.py"])
    assert "repro.api.kept has no caller" in [f.message.split(": ")[-1] for f in findings]
    assert suppressed == {}


def test_rl013_an_outside_module_name_is_no_use(tmp_path):
    # gc.freeze in a caller does not keep a library def called freeze
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "snap.py").write_text("def freeze():\n    return 1\n", encoding="utf-8")
    (tmp_path / "run.py").write_text("import gc\n\ngc.freeze()\n", encoding="utf-8")
    findings, _ = lint_program([tmp_path])
    assert [f.message.split(": ")[-1] for f in findings] == [
        "repro.snap.freeze has no caller"
    ]
