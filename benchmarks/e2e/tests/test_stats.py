"""The tail-percentile rule, percentiles, spreads and the bound checker."""

import math

import pytest

from e2ebench.spec import E2E_BY_NAME, Metric
from e2ebench.stats import (
    check_bound,
    histogram_percentile,
    latency_summary,
    percentile,
    spread,
    summarize,
    tail_percentile,
)


@pytest.mark.parametrize(
    "n, expected",
    [
        (20, None),  # p90 would leave 2 samples beyond it
        (99, None),
        (100, 90.0),
        (248, 95.0),  # rainfs_rw at the issue's sizes: 12 beyond p95, 2 beyond p99
        (1000, 99.0),
        (9999, 99.0),
        (10_000, 99.9),  # exactly ten beyond, despite 10_000 * 0.001 in floating point
        (2_000_000, 99.9),
    ],
)
def test_tail_percentile_rule(n, expected):
    assert tail_percentile(n) == expected


def test_latency_summary_names_the_percentile_it_chose():
    out = latency_summary([i / 1000.0 for i in range(1, 249)])  # 1..248 ms
    assert out["n"] == 248 and out["tail_pct"] == 95.0
    assert out["p50_ms"] == pytest.approx(124.0)
    assert out["tail_ms"] == pytest.approx(236.0)  # ceil(0.95 * 248) = 236th sample
    small = latency_summary([0.001] * 20)
    assert small["tail_ms"] is None and small["tail_pct"] is None


def test_percentile_is_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 50.0) == 2.0
    assert percentile(values, 100.0) == 4.0
    assert percentile(values, 1.0) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_histogram_percentile_reports_bucket_bounds():
    buckets = {1e-6: 90, 1e-3: 9, math.inf: 1}
    assert histogram_percentile(buckets, 50.0) == 1e-6
    assert histogram_percentile(buckets, 95.0) == 1e-3
    assert histogram_percentile(buckets, 100.0) == math.inf
    assert histogram_percentile({}, 50.0) == 0.0


def test_summarize_and_spread():
    values = [3.0, 1.0, 2.0, 5.0, 4.0]
    assert summarize(values) == {"median": 3.0, "min": 1.0, "max": 5.0, "n": 5}
    assert spread(values) == pytest.approx((4.5 - 1.5) / 3.0)  # statistics.quantiles, n=4
    assert spread([1.0]) is None
    assert spread([0.0, 0.0, 0.0]) is None


def test_bound_direction_lower_is_better():
    run_s = Metric("run_s", "s", "lower", 0.10)
    assert check_bound(run_s, 10.0, 10.9)["ok"]
    slow = check_bound(run_s, 10.0, 11.1)
    assert not slow["ok"] and slow["worse_by"] == pytest.approx(0.11) and slow["kind"] == "relative"
    fast = check_bound(run_s, 10.0, 5.0)
    assert fast["ok"] and fast["worse_by"] == pytest.approx(-0.5)  # better is never a breach


def test_bound_direction_higher_is_better():
    ops = Metric("ops_per_s", "1/s", "higher", 0.10)
    assert check_bound(ops, 100.0, 91.0)["ok"]
    assert not check_bound(ops, 100.0, 89.0)["ok"]
    assert check_bound(ops, 100.0, 500.0)["ok"]


def test_absolute_bound_where_the_baseline_is_zero():
    frac = E2E_BY_NAME["failed_ops_frac"]  # lower, +0.001 absolute
    assert check_bound(frac, 0.0, 0.001)["ok"]
    verdict = check_bound(frac, 0.0, 0.002)
    assert not verdict["ok"] and verdict["kind"] == "absolute"
    relative_on_zero = Metric("x", "s", "lower", 0.1)
    assert check_bound(relative_on_zero, 0.0, 0.0)["ok"]
    assert not check_bound(relative_on_zero, 0.0, 0.1)["ok"]


def test_null_metrics():
    failover = E2E_BY_NAME["sim_failover_s"]
    assert check_bound(failover, None, None) == {
        "ok": True, "worse_by": None, "allowed": None, "kind": "null",
    }
    # defined on one side only: the runs disagree about where the metric exists
    assert not check_bound(failover, None, 1.0)["ok"]
    assert not check_bound(failover, 1.0, None)["ok"]
