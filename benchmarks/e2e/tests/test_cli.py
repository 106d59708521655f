"""Seed plumbing, exit codes and the selfcheck, with the repeats stubbed out.

A real repeat takes seconds; these tests replace ``suite.spawn_child``
with a stub that returns a plausible record, so they exercise the
orchestration and not the program.
"""

import json
import os

import numpy as np
import pytest

import run
from e2ebench import suite
from e2ebench.spec import COUNT_METRICS, LAYERS
from e2ebench.workloads import RainfsRw, Webfront


def fake_record(workload, seed, traced=False, trace_path=None, **over):
    scoped = workload == "rainfs_rw"
    rec = {
        "workload": workload, "seed": seed, "traced": traced,
        "setup_s": 0.5, "run_s": 8.0 if traced else 2.0,
        "phases": ({"write_s": 1.0, "write_mib": 24.0, "read_s": 0.5, "read_mib": 24.0}
                   if scoped else {}),
        "events": 1000 + seed, "ops": 100.0, "op": "ops", "attempted": 100, "failed": 0,
        "problems": [], "peak_rss_mib": 50.0, "digest": f"digest-{seed}",
        "latency": None, "sim_failover_s": 0.8 if workload == "webfront" else None,
        "counts": {name: 1 for name, _u, _b in COUNT_METRICS},
        "layers": None,
    }
    if workload in ("flood", "rainfs_rw", "webfront"):
        rec["latency"] = {"p50_ms": 1.0, "tail_ms": 2.0, "tail_pct": 99.0, "n": 1000}
    if traced:
        rec["layers"] = {
            "self_s": {layer: 0.5 for layer in LAYERS},
            "calls": {layer: 7 for layer in LAYERS},
            "setup_self_s": {layer: 0.1 for layer in LAYERS},
            "counts": {"sim.shard.windows": 0, "sim.shard.handoffs": 0,
                       "net.routing.path_calls": 3, "net.routing.bfs_runs": 2,
                       "net.network.slowpath_share": 1.0},
            "spans_kept": 10, "spans_dropped": 0, "trace_file": trace_path,
        }
    rec.update(over)
    return rec


@pytest.fixture()
def stub(monkeypatch):
    calls = []

    def spawn(workload, seed, traced=False, trace_path=None):
        calls.append((workload, seed, traced))
        return fake_record(workload, seed, traced, trace_path)

    monkeypatch.setattr(suite, "spawn_child", spawn)
    return calls


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# -- seed plumbing -----------------------------------------------------------


def test_seed_reaches_every_repeat(stub, capsys):
    assert run.main(["--workload", "flood", "--seed", "8", "--seconds", "5", "--trace", "0"]) == 0
    assert {seed for _w, seed, _t in stub} == {8} and len(stub) == 3  # 3 x 2 s >= 5 s
    out = last_json(capsys)
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["metrics"]["events_per_s"]["value"] == (1000 + 8) / 2.0


def test_same_seed_same_inputs_other_seed_other_inputs():
    def inputs(seed):
        w = Webfront(seed)
        w.setup()
        return w.gaps, w.first, w.page

    a, b, c = inputs(7), inputs(7), inputs(8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0]) and not np.array_equal(a[2], c[2])

    def files(seed):
        w = RainfsRw(seed)
        w.setup()
        return w.files

    assert files(7) == files(7)
    assert list(files(7)) != list(files(8))  # paths differ, not only contents


# -- the driver protocol -----------------------------------------------------


def test_traced_invocation_reports_every_per_layer_metric(stub, capsys, tmp_path):
    code = run.main(["--workload", "rainfs_rw", "--seed", "7", "--trace", "1",
                     "--out", str(tmp_path)])
    assert code == 0
    assert [t for _w, _s, t in stub] == [False, True]  # one untraced, one traced repeat
    metrics = last_json(capsys)["metrics"]
    root = os.path.dirname(os.path.dirname(run.HERE))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        expected = [e["name"] for e in json.load(fh)["per_layer"]]
    assert list(metrics) == expected
    assert metrics["trace_overhead_x"]["value"] == 4.0
    assert metrics["write_mib_per_s"]["value"] == 24.0  # from the untraced repeat
    assert metrics["sim_failover_s"]["value"] == 0.0  # not defined on rainfs_rw


def test_failing_output_check_exits_non_zero(monkeypatch, capsys):
    def spawn(workload, seed, traced=False, trace_path=None):
        return fake_record(workload, seed, failed=2,
                           problems=["2 requests answered more than once"])

    monkeypatch.setattr(suite, "spawn_child", spawn)
    assert run.main(["--workload", "webfront", "--seed", "7", "--seconds", "1"]) == 1
    out = last_json(capsys)
    assert out["correct"] is False and out["failed"] == 6


def test_nondeterministic_repeats_are_a_failure(monkeypatch, capsys):
    digests = iter(["a", "b", "a"])

    def spawn(workload, seed, traced=False, trace_path=None):
        return fake_record(workload, seed, digest=next(digests))

    monkeypatch.setattr(suite, "spawn_child", spawn)
    assert run.main(["--workload", "flood", "--seed", "7", "--seconds", "1"]) == 1
    assert "nondeterministic" in capsys.readouterr().out


def test_crashed_repeat_exits_non_zero_without_a_result(monkeypatch, capsys):
    def spawn(workload, seed, traced=False, trace_path=None):
        raise suite.BenchmarkFailed("flood: repeat exited with code 1")

    monkeypatch.setattr(suite, "spawn_child", spawn)
    assert run.main(["--workload", "flood", "--seed", "7"]) == 1
    assert capsys.readouterr().out.strip() == ""


# -- the suite ---------------------------------------------------------------


def test_suite_prints_every_metric_and_claims_nothing(stub, capsys, tmp_path):
    code = run.main(["--workloads", "flood,webfront", "--repeats", "5", "--out", str(tmp_path)])
    assert code == 0
    # interleaved round-robin, then the traced pass
    assert [w for w, _s, _t in stub[:4]] == ["flood", "webfront", "flood", "webfront"]
    assert [(w, t) for w, _s, t in stub[-2:]] == [("flood", True), ("webfront", True)]
    text = capsys.readouterr().out
    for name in ("setup_s", "run_s", "events_per_s", "ops_per_s", "write_mib_per_s",
                 "read_mib_per_s", "peak_rss_mib", "failed_ops_frac", "sim_latency_p50_ms",
                 "sim_latency_tail_ms", "sim_failover_s"):
        assert name in text
    assert "not defined on flood" in text
    assert text.strip().splitlines()[-1].endswith('"claim": null}')
    with open(tmp_path / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    assert summary["workloads"]["flood"]["metrics"]["sim_failover_s"] is None
    assert summary["workloads"]["webfront"]["metrics"]["run_s"]["n"] == 5


def test_suite_usage_errors(stub):
    assert run.main(["--workloads", "nope"]) == 2
    assert run.main(["--repeats", "4"]) == 2  # never fewer than five
    assert stub == []


def test_differing_churn_digests_fail_the_suite(monkeypatch, tmp_path):
    def spawn(workload, seed, traced=False, trace_path=None):
        return fake_record(workload, seed, traced, trace_path, digest=workload)

    monkeypatch.setattr(suite, "spawn_child", spawn)
    code = run.main(["--workloads", "churn1k,churn1k_s4", "--repeats", "5", "--no-trace",
                     "--out", str(tmp_path)])
    assert code == 1


# -- selfcheck ---------------------------------------------------------------


def summaries(stub_spawn, monkeypatch, tmp_path):
    monkeypatch.setattr(suite, "spawn_child", stub_spawn)
    return suite.run_suite(7, ["webfront"], 5, True, str(tmp_path), log=lambda *_: None)


def test_selfcheck_passes_within_bounds_and_fails_outside(monkeypatch, tmp_path):
    def spawn_with(run_s, served=1):
        def spawn(workload, seed, traced=False, trace_path=None):
            rec = fake_record(workload, seed, traced, trace_path)
            if not traced:
                rec["run_s"] = run_s
            rec["counts"]["apps.snow_served"] = served
            return rec
        return spawn

    base = summaries(spawn_with(2.0), monkeypatch, tmp_path)
    near = summaries(spawn_with(2.1), monkeypatch, tmp_path)  # 5 % apart, bound 25 %
    far = summaries(spawn_with(3.0), monkeypatch, tmp_path)  # 50 % apart
    moved = summaries(spawn_with(2.0, served=2), monkeypatch, tmp_path)  # a count moved
    quiet = lambda *_: None  # noqa: E731
    assert suite.selfcheck(base, near, log=quiet)
    assert not suite.selfcheck(base, far, log=quiet)
    assert not suite.selfcheck(far, base, log=quiet)  # agreement is symmetric
    assert not suite.selfcheck(base, moved, log=quiet)
