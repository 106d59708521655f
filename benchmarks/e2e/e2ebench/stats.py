"""Summaries of repeats, the tail-percentile rule and the bound checker."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

import numpy as np

from .spec import Metric

__all__ = [
    "summarize",
    "spread",
    "percentile",
    "tail_percentile",
    "latency_summary",
    "histogram_percentile",
    "check_bound",
]

#: candidate tail percentiles, highest first
_TAILS = (99.9, 99.0, 95.0, 90.0)
#: a percentile is reported only with this many samples beyond it
_MIN_BEYOND = 10


def summarize(values: Sequence[float]) -> dict:
    """Median, min, max and sample count of one metric's repeats."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median (None below 2 samples
    or at a zero median) — the figure the regression bounds are sized by."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else None


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(sorted_values[rank - 1])


def tail_percentile(n: int) -> Optional[float]:
    """The highest of p90/p95/p99/p99.9 that leaves at least ten of ``n``
    samples beyond it; None when even p90 does not (n < 100)."""
    for pct in _TAILS:
        # round() guards 10_000 * 0.001 against landing at 9.999...
        if round(n * (100.0 - pct) / 100.0, 9) >= _MIN_BEYOND:
            return pct
    return None


def latency_summary(latencies_s) -> dict:
    """``p50_ms``, ``tail_ms``, the percentile chosen for the tail and ``n``."""
    values = np.sort(np.asarray(latencies_s, dtype=np.float64))
    n = len(values)
    pct = tail_percentile(n)
    return {
        "p50_ms": percentile(values, 50.0) * 1e3,
        "tail_ms": percentile(values, pct) * 1e3 if pct is not None else None,
        "tail_pct": pct,
        "n": n,
    }


def histogram_percentile(buckets: dict, pct: float) -> float:
    """Upper bound of the bucket holding the nearest-rank ``pct`` sample.

    ``buckets`` maps each bucket's upper bound (``math.inf`` for the
    overflow bucket) to its count; 0.0 when the histogram is empty.
    """
    total = sum(buckets.values())
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * total))
    seen = 0
    for bound in sorted(buckets):
        seen += buckets[bound]
        if seen >= rank:
            return float(bound)
    return math.inf


def check_bound(metric: Metric, baseline: Optional[float], candidate: Optional[float]) -> dict:
    """Judge ``candidate`` against ``baseline`` under ``metric``'s own bound.

    Returns ``{"ok", "worse_by", "allowed", "kind"}``.  ``worse_by`` is
    positive when the candidate is worse in the metric's direction; it is
    a share of the baseline for relative bounds and an amount for absolute
    ones.  A metric that is null on both sides passes; null on one side
    only means the two runs disagree about where it is defined, and fails.
    """
    if baseline is None and candidate is None:
        return {"ok": True, "worse_by": None, "allowed": None, "kind": "null"}
    if baseline is None or candidate is None:
        return {"ok": False, "worse_by": None, "allowed": None, "kind": "null-mismatch"}
    delta = candidate - baseline if metric.better == "lower" else baseline - candidate
    if metric.abs_bound is not None:
        return {
            "ok": delta <= metric.abs_bound,
            "worse_by": delta,
            "allowed": metric.abs_bound,
            "kind": "absolute",
        }
    if baseline == 0:
        return {"ok": delta <= 0, "worse_by": delta, "allowed": 0.0, "kind": "zero-baseline"}
    share = delta / abs(baseline)
    return {"ok": share <= metric.bound, "worse_by": share, "allowed": metric.bound,
            "kind": "relative"}
