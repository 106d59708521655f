"""Spawning repeats, aggregating them, printing, and the selfcheck.

Two front ends share this module: the suite (``run.py`` with no
``--workload``: every workload, interleaved repeats, a traced pass, a
summary that claims nothing) and the driver protocol (``run.py --workload
NAME --seed N --seconds S --trace 0|1``: one workload, one JSON line).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Optional, Sequence

from .spec import (
    COUNT_METRICS,
    DRIVER_E2E,
    E2E_BY_NAME,
    E2E_METRICS,
    LAYERS,
    SCOPED_IN_TRACE,
    exact_per_layer_names,
    per_layer_metrics,
)
from .stats import check_bound, spread, summarize
from .workloads import WORKLOADS

__all__ = [
    "BenchmarkFailed",
    "spawn_child",
    "e2e_values",
    "aggregate",
    "layer_values",
    "run_suite",
    "print_suite",
    "selfcheck",
    "driver_run",
]

RUN_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")

#: fields of a repeat that must not differ between repeats of one seed
_EXACT_FIELDS = ("digest", "ops", "events", "attempted", "failed", "latency",
                 "sim_failover_s", "counts")


class BenchmarkFailed(Exception):
    """A repeat crashed, an output check failed, or repeats disagreed."""


def spawn_child(workload: str, seed: int, traced: bool = False,
                trace_path: Optional[str] = None) -> dict:
    """Run one repeat in a fresh interpreter and return its record."""
    cmd = [sys.executable, RUN_PY, "--child", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if trace_path is not None:
        cmd += ["--trace-file", trace_path]
    cmd += ["--spawned-at", repr(time.perf_counter())]
    # a fixed hash seed keeps set/dict iteration — and with it every call
    # count — identical from one interpreter to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise BenchmarkFailed(f"{workload}: repeat exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# from records to metrics
# ---------------------------------------------------------------------------


def e2e_values(rec: dict) -> dict:
    """The eleven end-to-end metrics of one repeat (None where undefined)."""
    run_s = rec["run_s"]
    phases = rec["phases"]
    latency = rec["latency"] or {}
    rw = "write_s" in phases
    return {
        "setup_s": rec["setup_s"],
        "run_s": run_s,
        "events_per_s": rec["events"] / run_s,
        "ops_per_s": rec["ops"] / run_s,
        "write_mib_per_s": phases["write_mib"] / phases["write_s"] if rw else None,
        "read_mib_per_s": phases["read_mib"] / phases["read_s"] if rw else None,
        "peak_rss_mib": rec["peak_rss_mib"],
        "failed_ops_frac": rec["failed"] / rec["attempted"],
        "sim_latency_p50_ms": latency.get("p50_ms"),
        "sim_latency_tail_ms": latency.get("tail_ms"),
        "sim_failover_s": rec["sim_failover_s"],
    }


def problems_of(records: Sequence[dict]) -> list[str]:
    """Failed output checks plus any disagreement between the repeats."""
    problems = [p for rec in records for p in rec["problems"]]
    first = records[0]
    for i, rec in enumerate(records[1:], start=1):
        for field in _EXACT_FIELDS:
            if rec[field] != first[field]:
                problems.append(
                    f"nondeterministic: repeat {i} differs from repeat 0 in {field!r}"
                )
    return sorted(set(problems))


def aggregate(records: Sequence[dict]) -> dict:
    """Median/min/max/n per end-to-end metric over one workload's repeats."""
    per_repeat = [e2e_values(rec) for rec in records]
    metrics = {}
    for metric in E2E_METRICS:
        values = [v[metric.name] for v in per_repeat]
        if any(v is None for v in values):
            metrics[metric.name] = None
            continue
        metrics[metric.name] = {**summarize(values), "unit": metric.unit,
                                "spread": spread(values), "values": values}
    first = records[0]
    return {
        "metrics": metrics,
        "digest": first["digest"],
        "ops": first["ops"],
        "op": first["op"],
        "events": first["events"],
        "attempted": first["attempted"],
        "failed": first["failed"],
        "latency": first["latency"],
        "counts": first["counts"],
        "problems": problems_of(records),
    }


def layer_values(traced: dict, untraced_run_s: float, untraced: dict) -> dict:
    """Every per-layer metric of one traced repeat, by name.

    ``untraced`` supplies the scoped host-time metrics (tracing would
    inflate them); the exact ones are the same in both.
    """
    layers = traced["layers"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers["self_s"][layer]
        out[f"{layer}.calls"] = layers["calls"][layer]
    out["build.setup_self_s"] = layers["setup_self_s"]["build"]
    out["trace_overhead_x"] = traced["run_s"] / untraced_run_s
    counts = {**traced["counts"], **layers["counts"]}
    for name, _unit, _better in COUNT_METRICS:
        out[name] = counts[name]
    scoped = e2e_values(untraced)
    for name in SCOPED_IN_TRACE:
        out[name] = scoped[name]
    return out


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


def run_suite(seed: int, workloads: Sequence[str], repeats: int, trace: bool,
              out_dir: str, log=print) -> dict:
    """All repeats (interleaved round-robin, so machine drift hits every
    workload alike), then one traced pass per workload."""
    started = time.perf_counter()
    records: dict[str, list[dict]] = {name: [] for name in workloads}
    for rep in range(repeats):
        for name in workloads:
            rec = spawn_child(name, seed)
            records[name].append(rec)
            log(f"  repeat {rep + 1}/{repeats} {name:<11} "
                f"setup {rec['setup_s']:.3f} s  run {rec['run_s']:.3f} s")
    results = {name: aggregate(recs) for name, recs in records.items()}
    if trace:
        for name in workloads:
            trace_path = os.path.join(out_dir, f"{name}.trace.json")
            rec = spawn_child(name, seed, traced=True, trace_path=trace_path)
            log(f"  traced pass {name:<11} run {rec['run_s']:.3f} s")
            res = results[name]
            res["per_layer"] = layer_values(
                rec, res["metrics"]["run_s"]["median"], records[name][0]
            )
            res["traced_run_s"] = rec["run_s"]
            res["trace"] = {k: rec["layers"][k]
                            for k in ("spans_kept", "spans_dropped", "trace_file")}
            # the traced pass must have simulated exactly what the repeats did
            res["problems"] = sorted(
                set(res["problems"]) | set(problems_of([records[name][0], rec])))
    if "churn1k" in results and "churn1k_s4" in results:
        if results["churn1k"]["digest"] != results["churn1k_s4"]["digest"]:
            results["churn1k_s4"]["problems"].append(
                "report digest differs from churn1k's: sharding changed the outcome"
            )
    return {
        "benchmark": "benchmarks/e2e",
        "seed": seed,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "wall_s": time.perf_counter() - started,
        "workloads": results,
        "correct": not any(res["problems"] for res in results.values()),
        # this benchmark defines the baseline; it compares nothing
        "claim": None,
    }


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_suite(summary: dict, log=print) -> None:
    n = summary["repeats"]
    for name, res in summary["workloads"].items():
        cls = WORKLOADS[name]
        log(f"\n== {name}: {cls.why}")
        log(f"   loop: {cls.loop}")
        log(f"   {'metric':<22}{'unit':<7}{'median':>12}{'min':>12}{'max':>12}"
            f"{'iqr/med':>9}{'n':>4}")
        for metric in E2E_METRICS:
            m = res["metrics"][metric.name]
            if m is None:
                log(f"   {metric.name:<22}{metric.unit:<7}{'null':>12}   (not defined on {name})")
                continue
            sp = f"{m['spread']:.2%}" if m["spread"] is not None else "-"
            log(f"   {metric.name:<22}{metric.unit:<7}{_fmt(m['median']):>12}"
                f"{_fmt(m['min']):>12}{_fmt(m['max']):>12}{sp:>9}{m['n']:>4}")
        if res["latency"]:
            lat = res["latency"]
            log(f"   sim latency: n={lat['n']}, tail is p{_fmt(lat['tail_pct'])}")
        log(f"   ops: {_fmt(res['ops'])} {res['op']}; attempted {res['attempted']}, "
            f"failed {res['failed']}; events {res['events']}")
        log(f"   digest {res['digest']}")
        if "per_layer" in res:
            pl = res["per_layer"]
            total = sum(pl[f"{layer}.self_s"] for layer in LAYERS)
            log(f"   traced pass: run {res['traced_run_s']:.3f} s, trace_overhead_x "
                f"{pl['trace_overhead_x']:.2f}, layer self_s sum {total:.3f} s, "
                f"{res['trace']['spans_kept']} spans kept "
                f"({res['trace']['spans_dropped']} beyond the cap) -> {res['trace']['trace_file']}")
            log(f"   {'layer':<14}{'self_s':>10}{'share':>8}{'calls':>12}")
            for layer in LAYERS:
                self_s, calls = pl[f"{layer}.self_s"], pl[f"{layer}.calls"]
                if calls or self_s > 0.0005 * total:
                    log(f"   {layer:<14}{self_s:>10.4f}{self_s / total:>8.1%}{calls:>12}")
            log(f"   build.setup_self_s {pl['build.setup_self_s']:.4f} s")
            log("   counts: " + ", ".join(
                f"{cname}={_fmt(pl[cname])}" for cname, _u, _b in COUNT_METRICS if pl[cname]))
        for problem in res["problems"]:
            log(f"   FAILED: {problem}")
    log(f"\n{n} host-time samples per metric support no tail percentile: medians are "
        f"reported with min/max and the interquartile distance as a share of the median.")
    log(f"whole command: {summary['wall_s']:.1f} s; correct: {summary['correct']}")


# ---------------------------------------------------------------------------
# selfcheck: two sets of the same code must agree within the bounds
# ---------------------------------------------------------------------------


def selfcheck(first: dict, second: dict, log=print) -> bool:
    """Compare two suite summaries of the same code; True when they agree.

    Host-time medians must agree within the metric's own bound in both
    directions; simulated values, ``failed_ops_frac``, every ``.calls`` and
    every count must be equal.
    """
    ok = True
    exact_layer = exact_per_layer_names()
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        log(f"\n== selfcheck {name}")
        log(f"   {'metric':<22}{'set 1':>12}{'set 2':>12}{'differ':>9}{'bound':>8}"
            f"{'iqr/med 1':>10}{'iqr/med 2':>10}")
        for metric in E2E_METRICS:
            ma, mb = a["metrics"][metric.name], b["metrics"][metric.name]
            va = ma["median"] if ma else None
            vb = mb["median"] if mb else None
            if metric.exact:
                good, differ, allowed = va == vb, "" if va == vb else "!=", "exact"
            else:
                fwd, back = check_bound(metric, va, vb), check_bound(metric, vb, va)
                good = fwd["ok"] and back["ok"]
                worse = max((v["worse_by"] for v in (fwd, back) if v["worse_by"] is not None),
                            default=None)
                differ = f"{worse:.2%}" if worse is not None else ""
                allowed = f"{metric.bound:.0%}"
            spreads = [f"{m['spread']:.2%}" if m and m["spread"] is not None else "-"
                       for m in (ma, mb)]
            log(f"   {metric.name:<22}{_fmt(va):>12}{_fmt(vb):>12}{differ:>9}{allowed:>8}"
                f"{spreads[0]:>10}{spreads[1]:>10}{'' if good else '  DISAGREE'}")
            ok &= good
        if a["digest"] != b["digest"]:
            log("   digest differs between the sets  DISAGREE")
            ok = False
        pa, pb = a.get("per_layer"), b.get("per_layer")
        if pa is not None and pb is not None:
            bad = [n for n in exact_layer if pa[n] != pb[n]]
            log(f"   exact per-layer values compared: {len(exact_layer)}, differing: {len(bad)}")
            for n in bad:
                log(f"   {n}: {pa[n]} != {pb[n]}  DISAGREE")
            ok &= not bad
        if a["problems"] or b["problems"]:
            ok = False
    log(f"\nselfcheck: {'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------
# the driver protocol
# ---------------------------------------------------------------------------

#: never fewer repeats than this behind a reported value
_DRIVER_MIN_REPEATS = 3
#: stop launching repeats after this long, whatever ``--seconds`` says
_DRIVER_WALL_CAP_S = 100.0


def driver_run(workload: str, seed: int, seconds: float, trace: bool,
               out_dir: str, log=print) -> dict:
    """One invocation of the driver protocol; returns the final JSON object.

    Untraced: fresh-interpreter repeats until ``seconds`` of undisturbed
    timed region have been measured (repeats x fastest ``run_s``; at least
    three), and each metric's best repeat is reported.  Interference on a
    shared box only ever slows a repeat — on the reference box by 10-60 %
    for minutes at a time — so the best repeat is the steadiest estimate of
    the code's own cost (README.md, "Noise on the reference box").
    Traced: one untraced and one traced repeat, every per-layer metric.
    """
    started = time.perf_counter()
    if trace:
        plain = spawn_child(workload, seed)
        trace_path = os.path.join(out_dir, f"{workload}.trace.json")
        traced = spawn_child(workload, seed, traced=True, trace_path=trace_path)
        records = [plain, traced]
        values = layer_values(traced, plain["run_s"], plain)
        units = {name: unit for name, unit, _b in per_layer_metrics()}
        # the format has no null: a metric not defined on this workload reads 0
        metrics = {name: {"value": 0.0 if values[name] is None else values[name],
                          "unit": units[name]} for name in units}
    else:
        records = []
        while len(records) < _DRIVER_MIN_REPEATS or (
            len(records) * min(rec["run_s"] for rec in records) < seconds
            and time.perf_counter() - started < _DRIVER_WALL_CAP_S
        ):
            records.append(spawn_child(workload, seed))
        per_repeat = [e2e_values(rec) for rec in records]
        metrics = {}
        for name in DRIVER_E2E:
            best = min if E2E_BY_NAME[name].better == "lower" else max
            metrics[name] = {"value": best(v[name] for v in per_repeat),
                             "unit": E2E_BY_NAME[name].unit}
    problems = problems_of(records)
    for problem in problems:
        log(f"FAILED: {problem}")
    log(f"{workload} seed {seed}: {len(records)} repeats in "
        f"{time.perf_counter() - started:.1f} s, digest {records[0]['digest'][:16]}")
    return {
        "correct": not problems,
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": metrics,
    }

