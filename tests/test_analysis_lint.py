"""Tests for rainlint: per-file rules RL001-RL007, pragmas, runner, CLI.

The interprocedural rules RL009-RL013 (``lint --strict``) are covered
in ``test_analysis_program.py``; here they only appear where the CLI
merges both passes.  The shipped tree is linted once per session, by
the ``linted_tree`` fixture in ``conftest.py``.
"""

from pathlib import Path

from repro.__main__ import main
from repro.analysis import (
    PROGRAM_RULES,
    RULES,
    lint_paths,
    lint_source,
    parse_pragmas,
)

FIXTURES = Path(__file__).parent / "fixtures" / "rainlint"

#: the rules the per-file (non-strict) pass can fire
FILE_RULES = [r for r in RULES if r not in PROGRAM_RULES]

#: fixture file stem -> the one rule it seeds
SEEDED = {
    "rl001_wall_clock": "RL001",
    "rl002_global_rng": "RL002",
    "rl003_id_in_trace": "RL003",
    "rl004_set_iteration": "RL004",
    "rl004_subsystems_report": "RL004",
    "rl005_mutable_default": "RL005",
    "rl006_bare_except": "RL006",
    "rl007_hot_metric_lookup": "RL007",
}

#: expected findings per rule across the fixture tree (RL004 is seeded
#: twice: peer broadcast and the subsystems-into-report pattern)
SEEDED_COUNTS = {rule: list(SEEDED.values()).count(rule) for rule in FILE_RULES}


def rules_of(source: str) -> list[str]:
    return [f.rule for f in lint_source(source)[0]]


class TestFixtures:
    def test_each_fixture_seeds_exactly_its_rule(self):
        report = lint_paths([FIXTURES])
        assert not report.ok
        by_file = {}
        for f in report.findings:
            by_file.setdefault(Path(f.path).stem, []).append(f.rule)
        assert by_file == {stem: [rule] for stem, rule in SEEDED.items()}

    def test_fixture_run_covers_every_rule(self):
        report = lint_paths([FIXTURES])
        assert report.rule_counts() == SEEDED_COUNTS

    def test_suppressed_fixture_counts_pragma_hits(self):
        report = lint_paths([FIXTURES / "suppressed_ok.py"])
        assert report.ok
        assert report.stats["suppressed"] == 3
        # per-rule attribution, not just a total
        assert report.suppressed == {"RL001": 1, "RL004": 1, "RL005": 1}


class TestRL001WallClock:
    def test_time_time_flagged(self):
        assert rules_of("import time\nt = time.time()\n") == ["RL001"]

    def test_datetime_now_flagged(self):
        src = "import datetime\nstamp = datetime.datetime.now()\n"
        assert rules_of(src) == ["RL001"]

    def test_from_time_import_flagged(self):
        assert rules_of("from time import monotonic\n") == ["RL001"]

    def test_perf_counter_allowed_for_benchmarks(self):
        assert rules_of("import time\nt = time.perf_counter()\n") == []

    def test_sim_now_clean(self):
        assert rules_of("def f(sim):\n    return sim.now\n") == []


class TestRL002GlobalRng:
    def test_stdlib_random_import_flagged(self):
        assert rules_of("import random\n") == ["RL002"]

    def test_np_random_global_state_flagged(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert rules_of(src) == ["RL002"]

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(src) == ["RL002"]

    def test_seeded_default_rng_allowed(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert rules_of(src) == []

    def test_generator_annotation_allowed(self):
        src = "import numpy as np\ndef f(rng: np.random.Generator): ...\n"
        assert rules_of(src) == []


class TestRL003IdHash:
    def test_id_in_fstring_flagged(self):
        assert rules_of("def r(self):\n    return f'<{id(self)}>'\n") == ["RL003"]

    def test_hash_in_sort_key_flagged(self):
        assert rules_of("def f(xs):\n    xs.sort(key=lambda x: hash(x))\n") == ["RL003"]

    def test_bare_id_as_sorted_key_flagged(self):
        assert rules_of("def f(xs):\n    return sorted(xs, key=id)\n") == ["RL003"]

    def test_id_in_format_flagged(self):
        assert rules_of("def f(x):\n    return '{}'.format(id(x))\n") == ["RL003"]

    def test_id_as_dict_key_allowed(self):
        # internal identity maps (net.routing, net.link) are legitimate
        assert rules_of("def f(d, x):\n    return d[id(x)]\n") == []


class TestRL004UnorderedIteration:
    def test_self_set_iteration_with_send_flagged(self):
        src = (
            "class B:\n"
            "    def __init__(self):\n"
            "        self.peers = set()\n"
            "    def go(self, tp):\n"
            "        for p in self.peers:\n"
            "            tp.send(p)\n"
        )
        assert rules_of(src) == ["RL004"]

    def test_local_set_iteration_with_append_flagged(self):
        src = (
            "def f(out):\n"
            "    pending = {1, 2}\n"
            "    for p in pending:\n"
            "        out.append(p)\n"
        )
        assert rules_of(src) == ["RL004"]

    def test_dict_values_iteration_with_emit_flagged(self):
        src = "def f(d, bus):\n    for v in d.values():\n        bus.publish(v)\n"
        assert rules_of(src) == ["RL004"]

    def test_sorted_wrapping_is_clean(self):
        src = (
            "def f(out):\n"
            "    pending = {1, 2}\n"
            "    for p in sorted(pending):\n"
            "        out.append(p)\n"
        )
        assert rules_of(src) == []

    def test_order_insensitive_body_is_clean(self):
        src = "def f():\n    seen = set()\n    for p in seen:\n        x = p + 1\n"
        assert rules_of(src) == []


class TestRL005MutableDefault:
    def test_list_default_flagged(self):
        assert rules_of("def f(q=[]):\n    return q\n") == ["RL005"]

    def test_dict_call_default_flagged(self):
        assert rules_of("def f(q=dict()):\n    return q\n") == ["RL005"]

    def test_kwonly_set_default_flagged(self):
        assert rules_of("def f(*, q=set()):\n    return q\n") == ["RL005"]

    def test_none_default_clean(self):
        assert rules_of("def f(q=None):\n    return q or []\n") == []


class TestRL006BareExcept:
    def test_bare_except_in_handler_flagged(self):
        src = (
            "class N:\n"
            "    def on_msg(self, m):\n"
            "        try:\n"
            "            self.apply(m)\n"
            "        except:\n"
            "            pass\n"
        )
        assert rules_of(src) == ["RL006"]

    def test_underscore_handler_also_flagged(self):
        src = (
            "class N:\n"
            "    def _on_token(self, t):\n"
            "        try:\n"
            "            t()\n"
            "        except:\n"
            "            pass\n"
        )
        assert rules_of(src) == ["RL006"]

    def test_typed_except_clean(self):
        src = (
            "class N:\n"
            "    def on_msg(self, m):\n"
            "        try:\n"
            "            self.apply(m)\n"
            "        except KeyError:\n"
            "            pass\n"
        )
        assert rules_of(src) == []

    def test_bare_except_outside_handlers_not_this_rules_business(self):
        src = "def cleanup():\n    try:\n        go()\n    except:\n        pass\n"
        assert rules_of(src) == []

    def test_decorated_handler_still_flagged(self):
        # decorators must not hide a handler from the rule
        src = (
            "def deco(fn):\n"
            "    return fn\n"
            "class N:\n"
            "    @deco\n"
            "    def on_msg(self, m):\n"
            "        try:\n"
            "            self.apply(m)\n"
            "        except:\n"
            "            pass\n"
        )
        assert rules_of(src) == ["RL006"]


class TestRL007HotMetricLookup:
    def test_chained_labels_in_handler_flagged(self):
        src = (
            "class N:\n"
            "    def on_packet(self, pkt):\n"
            "        self._m.labels(nic=pkt.nic).inc()\n"
        )
        assert rules_of(src) == ["RL007"]

    def test_chained_labels_in_generator_flagged(self):
        src = (
            "def proc(self, sim):\n"
            "    while True:\n"
            "        self._m.labels(op='tick').observe(1.0)\n"
            "        yield sim.timeout(1.0)\n"
        )
        assert rules_of(src) == ["RL007"]

    def test_registry_lookup_in_handler_flagged(self):
        src = (
            "class N:\n"
            "    def _on_msg(self, msg):\n"
            "        self.sim.obs.metrics.counter('n.msgs')\n"
        )
        assert rules_of(src) == ["RL007"]

    def test_registry_histogram_in_generator_flagged(self):
        src = (
            "def proc(self, sim):\n"
            "    self.registry.histogram('proc.wait')\n"
            "    yield sim.timeout(1.0)\n"
        )
        assert rules_of(src) == ["RL007"]

    def test_lazy_bound_cache_pattern_clean(self):
        # the sanctioned cache-miss pattern: .labels() assigned, not chained
        src = (
            "class N:\n"
            "    def on_packet(self, pkt):\n"
            "        series = self._cache.get(pkt.nic)\n"
            "        if series is None:\n"
            "            series = self._m.labels(nic=pkt.nic)\n"
            "            self._cache[pkt.nic] = series\n"
            "        series.inc()\n"
        )
        assert rules_of(src) == []

    def test_bound_series_update_clean(self):
        src = (
            "class N:\n"
            "    def on_packet(self, pkt):\n"
            "        self._m_packets.inc()\n"
        )
        assert rules_of(src) == []

    def test_init_time_binding_not_this_rules_business(self):
        src = (
            "class N:\n"
            "    def __init__(self, metrics):\n"
            "        self._m = metrics.counter('n.pkts').labels(nic=0)\n"
        )
        assert rules_of(src) == []

    def test_decorated_handler_still_flagged(self):
        src = (
            "def deco(fn):\n"
            "    return fn\n"
            "class N:\n"
            "    @deco\n"
            "    def on_packet(self, pkt):\n"
            "        self._m.labels(nic=pkt.nic).inc()\n"
        )
        assert rules_of(src) == ["RL007"]

    def test_cold_method_chained_labels_clean(self):
        src = (
            "class N:\n"
            "    def report(self):\n"
            "        self._m.labels(kind='summary').inc()\n"
        )
        assert rules_of(src) == []


class TestPragmas:
    def test_line_pragma_suppresses_only_its_line(self):
        src = (
            "import time\n"
            "a = time.time()  # rainlint: disable=RL001 -- justified\n"
            "b = time.time()\n"
        )
        findings = lint_source(src)[0]
        assert [f.rule for f in findings] == ["RL001"]
        assert findings[0].line == 3

    def test_file_pragma_suppresses_everywhere(self):
        src = (
            "# rainlint: disable-file=RL001\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        assert lint_source(src)[0] == []

    def test_disable_all(self):
        src = "import random  # rainlint: disable=all\n"
        assert lint_source(src)[0] == []

    def test_pragma_parsing_multi_rule(self):
        p = parse_pragmas("x = 1  # rainlint: disable=RL001,RL004\n")
        assert p.suppresses("RL001", 1) and p.suppresses("RL004", 1)
        assert not p.suppresses("RL002", 1)
        assert not p.suppresses("RL001", 2)

    def test_pragma_text_inside_string_binds_to_its_own_line(self):
        # Pragmas are found by text scan, so pragma-looking text inside
        # a string literal counts for the line it sits on — a harmless,
        # pinned quirk (docstrings quoting pragmas self-suppress).
        src = (
            "import time\n"
            'MSG = """see time.time()  # rainlint: disable=RL001"""'
            "; t = time.time()\n"
        )
        assert lint_source(src)[0] == []

    def test_pragma_inside_multiline_string_does_not_leak(self):
        # ...but a pragma on one line of a triple-quoted block never
        # silences findings on *other* lines.
        src = (
            '"""docs\n'
            "t = time.time()  # rainlint: disable=RL001\n"
            '"""\n'
            "import time\n"
            "t = time.time()\n"
        )
        findings = lint_source(src)[0]
        assert [(f.rule, f.line) for f in findings] == [("RL001", 5)]

    def test_pragma_on_decorated_handler_except_line(self):
        src = (
            "def deco(fn):\n"
            "    return fn\n"
            "class N:\n"
            "    @deco\n"
            "    def on_msg(self, m):\n"
            "        try:\n"
            "            self.apply(m)\n"
            "        except:  # rainlint: disable=RL006 -- re-raised by deco\n"
            "            pass\n"
        )
        assert lint_source(src)[0] == []


class TestRunner:
    def test_parse_error_reports_rl000(self):
        findings = lint_source("def broken(:\n")[0]
        assert [f.rule for f in findings] == ["RL000"]

    def test_clean_tree_lints_clean(self, linted_tree):
        # The acceptance gate: the shipped tree has zero findings (the
        # per-file pass is part of the strict run).
        assert "lint: OK" in linted_tree.output, linted_tree.output

    def test_json_output_is_deterministic(self):
        first = lint_paths([FIXTURES]).to_json()
        second = lint_paths([FIXTURES]).to_json()
        assert first == second

    def test_file_order_is_deterministic(self):
        report = lint_paths([FIXTURES])
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)

    def test_findings_sort_by_path_line_rule(self):
        report = lint_paths([FIXTURES], strict=True)
        keys = [(f.path, f.line, f.rule) for f in report.findings]
        assert keys == sorted(keys)


class TestCli:
    def test_lint_clean_tree_exits_zero(self, linted_tree):
        assert linted_tree.code == 0
        assert "lint: OK" in linted_tree.output

    def test_lint_strict_clean_tree_exits_zero(self, linted_tree):
        # --strict adds the whole-program rules; the tree has no finding
        assert linted_tree.code == 0
        assert "strict = True" in linted_tree.output

    def test_lint_fixtures_exits_nonzero_with_rule_ids(self, capsys):
        assert main(["lint", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        for rule in FILE_RULES:
            assert rule in out
        for rule in PROGRAM_RULES:  # need --strict
            assert rule not in out

    def test_lint_strict_fixtures_reports_all_rules(self, capsys):
        assert main(["lint", str(FIXTURES), "--strict"]) == 1
        out = capsys.readouterr().out
        for rule in RULES:  # RL001-RL013, both passes merged
            assert rule in out

    def test_lint_json_format(self, capsys):
        import json

        assert main(["lint", str(FIXTURES), "--format=json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "lint"
        assert payload["rule_counts"] == SEEDED_COUNTS

    def test_lint_json_reports_per_rule_suppressions(self, capsys):
        import json

        path = FIXTURES / "suppressed_ok.py"
        assert main(["lint", str(path), "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suppressed"] == {"RL001": 1, "RL004": 1, "RL005": 1}
