"""Tests for the benchmark harness: timing, artifacts, regression gate."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from repro.bench import (
    WORKLOADS,
    Workload,
    baseline_from_results,
    bench_seed,
    check_results,
    run_workload,
    write_result,
)
from repro.__main__ import main


def fake_workload(ops=100, ck=42):
    return Workload("fake", "ops", "test double", lambda quick: (ops, ck))


class TestRunWorkload:
    def test_result_schema(self):
        r = run_workload(fake_workload(), quick=True, repeats=2)
        assert r["name"] == "fake"
        assert r["ops"] == 100 and r["repeats"] == 2
        assert r["ops_per_sec"] > 0
        assert r["p50_op_ns"] <= r["p95_op_ns"]
        assert r["checksum"] == 42

    def test_nondeterminism_is_fatal(self):
        flips = iter([(100, 1), (100, 2)])
        wl = Workload("flaky", "ops", "test double", lambda quick: next(flips))
        with pytest.raises(RuntimeError, match="nondeterministic"):
            run_workload(wl, repeats=2)

    def test_real_workloads_are_deterministic_across_repeats(self):
        # kernel quick is cheap; run_workload itself asserts the
        # (ops, checksum) pair is identical across repetitions
        r = run_workload(WORKLOADS["kernel"], quick=True, repeats=2)
        assert r["ops"] > 0


class TestArtifacts:
    def test_bench_json_schema(self, tmp_path):
        r = run_workload(fake_workload(), repeats=1)
        path = write_result(r, tmp_path, calibration=1e6, quick=False)
        assert path.name == "BENCH_fake.json"
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        assert doc["bench"]["ops_per_sec"] == r["ops_per_sec"]
        assert doc["normalized"] == pytest.approx(r["ops_per_sec"] / 1e6)
        assert {"python", "platform", "machine", "implementation"} <= set(doc["stamp"])

    def test_baseline_keeps_both_modes(self):
        r = run_workload(fake_workload(), repeats=1)
        doc = baseline_from_results([r], 1e6, quick=False)
        doc = baseline_from_results([r], 2e6, quick=True, existing=doc)
        assert set(doc["modes"]) == {"full", "quick"}
        assert doc["modes"]["full"]["workloads"]["fake"]["normalized"] != (
            doc["modes"]["quick"]["workloads"]["fake"]["normalized"]
        )


class TestRegressionGate:
    def _baseline(self, normalized, quick=False):
        mode = "quick" if quick else "full"
        return {
            "schema": 1,
            "modes": {mode: {"workloads": {"fake": {"normalized": normalized}}}},
        }

    def _result(self, ops_per_sec):
        return {"name": "fake", "unit": "ops", "ops_per_sec": ops_per_sec}

    def test_within_threshold_passes(self):
        # 15% below baseline: within the 20% budget
        fails = check_results([self._result(85.0)], 1.0, self._baseline(100.0), False)
        assert fails == []

    def test_over_threshold_fails(self):
        fails = check_results([self._result(70.0)], 1.0, self._baseline(100.0), False)
        assert len(fails) == 1 and "fake" in fails[0]

    def test_normalization_cancels_machine_speed(self):
        # same code efficiency on a 2x-slower host: half the throughput,
        # half the calibration — the gate must pass
        fails = check_results([self._result(50.0)], 0.5, self._baseline(100.0), False)
        assert fails == []

    def test_unknown_workload_skipped(self):
        res = {"name": "brand_new", "unit": "ops", "ops_per_sec": 1.0}
        assert check_results([res], 1.0, self._baseline(100.0), False) == []

    def test_missing_mode_is_an_error(self):
        with pytest.raises(ValueError, match="quick"):
            check_results([self._result(1.0)], 1.0, self._baseline(100.0), True)


class TestSeedPolicy:
    def test_seeds_are_stable_and_distinct(self):
        seeds = {name: bench_seed(name) for name in WORKLOADS}
        assert seeds == {name: bench_seed(name) for name in WORKLOADS}
        assert len(set(seeds.values())) == len(seeds)


class TestCli:
    def test_bench_cli_runs_and_checks(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        base = tmp_path / "baseline.json"
        rc = main(
            [
                "bench",
                "kernel",
                "--quick",
                "--repeats",
                "1",
                "--out",
                str(out),
                "--write-baseline",
                str(base),
            ]
        )
        assert rc == 0
        assert (out / "BENCH_kernel.json").exists()
        # a zero baseline: every run clears it, however slow or noisy
        doc = json.loads(base.read_text())
        doc["modes"]["quick"]["workloads"]["kernel"]["normalized"] = 0.0
        base.write_text(json.dumps(doc))
        rc = main(
            [
                "bench",
                "kernel",
                "--quick",
                "--repeats",
                "1",
                "--out",
                str(out),
                "--check",
                str(base),
            ]
        )
        assert rc == 0
        assert "regression gate passed" in capsys.readouterr().out

    def test_bench_cli_fails_on_regression(self, tmp_path):
        out = tmp_path / "artifacts"
        base = tmp_path / "baseline.json"
        assert main(
            ["bench", "kernel", "--quick", "--repeats", "1", "--out", str(out),
             "--write-baseline", str(base)]
        ) == 0
        doc = json.loads(base.read_text())
        # a baseline no run can reach: a cold first run can be 10x slower
        # than the check run, so a relative "10x faster" is not enough
        doc["modes"]["quick"]["workloads"]["kernel"]["normalized"] = 1e12
        base.write_text(json.dumps(doc))
        rc = main(
            ["bench", "kernel", "--quick", "--repeats", "1", "--out", str(out),
             "--check", str(base)]
        )
        assert rc == 1

    def test_bench_cli_without_out_leaves_the_cwd_alone(self, tmp_path, monkeypatch, capsys):
        cwd = tmp_path / "checkout"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["bench", "kernel", "--quick", "--repeats", "1"]) == 0
        assert list(cwd.glob("BENCH_*.json")) == []
        first = capsys.readouterr().out.splitlines()[0]
        scratch = Path(first.removeprefix("writing BENCH_<name>.json to "))
        assert scratch.parent == tmp_path
        assert (scratch / "BENCH_kernel.json").exists()

    def test_bench_cli_rejects_unknown_workload(self, tmp_path):
        assert main(["bench", "nope", "--out", str(tmp_path)]) == 2
