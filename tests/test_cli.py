"""Tests for the ``python -m repro`` demo launcher."""

import json

import pytest

from repro.__main__ import DEMOS, build_parser, main
from repro.scenarios import SCENARIOS, build


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demos_run_clean(name, capsys):
    assert main([name]) == 0
    out = capsys.readouterr().out
    assert out.strip(), f"scenario {name} produced no output"


def test_unknown_scenario_exits_nonzero_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["warp-drive"])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_no_arguments_exits_nonzero_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_metrics_command_prints_cluster_report(capsys):
    assert main(["metrics", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "cluster report" in out
    assert "membership.token.rtt" in out


def test_metrics_json_is_deterministic(capsys):
    assert main(["metrics", "testbed", "--json"]) == 0
    first = capsys.readouterr().out
    report = json.loads(first)
    assert len(report["subsystems"]) >= 6
    assert main(["metrics", "testbed", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_quickstart_output_mentions_recovery(capsys):
    main(["quickstart"])
    out = capsys.readouterr().out
    assert "recovered" in out


# -- trace command -----------------------------------------------------------


def test_trace_text_renders_timelines(capsys):
    assert main(["trace", "membership", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 6" in out and "Fig. 9" in out
    assert "token path:" in out and "trace summary" in out


def test_trace_json_is_parseable_and_structured(capsys):
    assert main(["trace", "membership", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"timelines", "trace"}
    assert payload["trace"]["n_spans"] > 0
    assert payload["timelines"]["token_path"]


def test_trace_chrome_output_passes_schema(capsys):
    from repro.obs import validate_chrome_trace

    assert main(["trace", "rainfs", "--format", "chrome"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert validate_chrome_trace(doc) == []
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"storage.store", "storage.retrieve", "net.packet"} <= names


def test_trace_out_writes_file(tmp_path, capsys):
    target = tmp_path / "artifacts" / "trace.json"
    assert main(["trace", "membership", "--format", "chrome", "--out", str(target)]) == 0
    assert "written to" in capsys.readouterr().out
    from repro.obs import validate_chrome_trace

    assert validate_chrome_trace(json.loads(target.read_text())) == []


def test_trace_unknown_scenario_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "warp-drive"])
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err.lower()


# -- help audit --------------------------------------------------------------


def _subparsers():
    (sub,) = [
        a
        for a in build_parser()._actions
        if a.__class__.__name__ == "_SubParsersAction"
    ]
    return sub


def _subcommand_helps() -> dict:
    """Map of subcommand name -> its one-line help string."""
    return {act.dest: act.help for act in _subparsers()._choices_actions}


def _assert_one_line_help(name: str, help_text: str) -> None:
    assert help_text, f"{name!r} has no help string"
    assert "\n" not in help_text, f"{name!r} help spans multiple lines"
    assert len(help_text) <= 79, f"{name!r} help exceeds one terminal line"
    assert help_text[0].islower(), f"{name!r} help must start lowercase: {help_text!r}"
    assert not help_text.endswith("."), f"{name!r} help ends with a period"


EXPECTED_COMMANDS = {
    "codes", "quickstart", "topology",  # demos
    "metrics", "lint", "sanitize", "modelcheck", "bench", "trace", "serve",
}


def test_every_subcommand_is_registered():
    assert set(_subcommand_helps()) == EXPECTED_COMMANDS


def test_every_subcommand_has_a_consistent_one_line_help():
    for name, help_text in sorted(_subcommand_helps().items()):
        _assert_one_line_help(name, help_text)


def test_root_help_lists_serve(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "serve" in out and "metrics" in out


# -- the one scenario table --------------------------------------------------


def test_every_scenario_taking_command_accepts_exactly_the_table():
    """One kind of entry: every command that takes a scenario takes the
    whole table — derived from it, never a second list."""

    def choices(command: str) -> list:
        (positional,) = [
            a for a in _subparsers().choices[command]._actions if a.dest == "scenario"
        ]
        return list(positional.choices)

    for command in ("metrics", "sanitize", "serve", "trace"):
        assert choices(command) == sorted(SCENARIOS), command
    assert all(type(s.horizon) is float for s in SCENARIOS.values())


def test_every_table_entry_is_named_and_described():
    for name, scenario in SCENARIOS.items():
        assert scenario.name == name
        _assert_one_line_help(name, scenario.help)
    with pytest.raises(KeyError, match="warp-drive"):
        build("warp-drive")


def test_metrics_testbed_is_shard_invariant(capsys):
    assert main(["metrics", "testbed", "--json", "--shards", "1"]) == 0
    one = capsys.readouterr().out
    assert json.loads(one)["metrics"]["storage.retrieve.latency"]["series"]
    for shards in ("2", "4"):
        assert main(["metrics", "testbed", "--json", "--shards", shards]) == 0
        assert capsys.readouterr().out == one, shards


# -- layout flags are outside input: bad values are usage errors -------------


def _usage_error(argv, capsys):
    """Run ``argv`` expecting exit status 2; returns the last stderr line."""
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        status = exc.code
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err.strip().splitlines()[-1]


@pytest.mark.parametrize("command", ["metrics", "sanitize", "serve"])
@pytest.mark.parametrize("value", ["0", "-2", "x"])
def test_shard_counts_below_one_are_usage_errors(command, value, capsys):
    line = _usage_error([command, "membership", "--shards", value], capsys)
    assert f"argument --shards: expected an integer >= 1, got {value!r}" in line


@pytest.mark.parametrize("value", ["0", "-1"])
def test_worker_counts_below_one_are_usage_errors(value, capsys):
    line = _usage_error(["metrics", "membership", "--workers", value], capsys)
    assert f"argument --workers: expected an integer >= 1, got {value!r}" in line


@pytest.mark.parametrize(
    "argv",
    [["metrics"], ["sanitize"], ["serve"], ["metrics", "--workers", "2"]],
    ids=["metrics", "sanitize", "serve", "metrics-workers"],
)
def test_more_shards_than_switches_is_one_stderr_line(argv, monkeypatch, capsys):
    from repro.sim import shard_mp

    def no_pool(n_workers):
        raise AssertionError("a worker pool was requested for a bad layout")

    # under --workers the coordinator cuts the layout before any worker starts
    monkeypatch.setattr(shard_mp, "_get_pool", no_pool)
    command, *extra = argv
    line = _usage_error([command, "membership", "--shards", "7", *extra], capsys)
    assert line == f"python -m repro {command}: error: cannot cut 6 switches into 7 shards"


def test_bad_repro_shards_only_fails_the_command_that_reads_it(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SHARDS", "abc")
    assert main(["codes"]) == 0  # the parser still builds
    capsys.readouterr()
    assert main(["metrics", "membership", "--shards", "2", "--json"]) == 0  # flag wins
    capsys.readouterr()
    line = _usage_error(["metrics", "membership"], capsys)
    assert "argument --shards: expected an integer >= 1, got 'abc'" in line


# -- metrics: the report schema ----------------------------------------------


def test_metrics_membership_scenario_runs(capsys):
    assert main(["metrics", "membership", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "membership"
    assert report["sim_time"] == SCENARIOS["membership"].horizon == 6.0
    assert "membership" in report["subsystems"]


def test_report_json_carries_schema_version(capsys):
    from repro.obs import SCHEMA_VERSION, ClusterReport

    assert main(["metrics", "rainfs", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    # bump-safe: pinned to the constant, not a literal — bumping
    # SCHEMA_VERSION must not break this test, only the goldens it
    # intentionally invalidates
    assert report["schema_version"] == SCHEMA_VERSION
    assert isinstance(SCHEMA_VERSION, int) and SCHEMA_VERSION >= 1
    # constructor-built reports (merged shard reports) carry it too
    assert ClusterReport(scenario="x").to_dict()["schema_version"] == SCHEMA_VERSION
    assert list(ClusterReport().to_dict())[0] == "schema_version"


def test_metrics_churn_small_is_shard_invariant(capsys):
    assert main(["metrics", "churn-small", "--json", "--shards", "1"]) == 0
    one = capsys.readouterr().out
    assert main(["metrics", "churn-small", "--json", "--shards", "3"]) == 0
    assert capsys.readouterr().out == one
