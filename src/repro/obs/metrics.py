"""Labeled metric instruments over simulated time.

A :class:`MetricsRegistry` owns metric *families* keyed by a dotted name
(``subsystem.component.metric``); each family fans out into *series* by
label set, so ``registry.counter("net.packets.dropped").labels(
reason="link_loss").inc()`` and a different ``reason`` coexist under one
name.  Three instrument kinds:

- :class:`Counter` — monotone accumulator (``inc``);
- :class:`Gauge` — last-write-wins value (``set``/``add``);
- :class:`Histogram` — bucketed distribution with count/sum/min/max.

A series holds values only — no timestamps, never the wall clock — and
exists from its first ``labels()`` call, which owners make on the first
observation so a snapshot lists exactly the series that saw data.
Snapshots sort families and series, making two same-seed runs
byte-identical when serialized.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "Counter",
    "DeferredHistogram",
    "ExactCounter",
    "ExactHistogram",
    "Gauge",
    "Histogram",
    "LabelCardinalityError",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "exact_add",
]


def exact_add(partials: list, x: float) -> None:
    """Shewchuk compensated accumulation: add ``x`` into ``partials``.

    ``math.fsum(partials)`` afterwards is the exactly-rounded sum of
    every value ever added.  Because the partial sums represent the
    mathematical (associative) sum, accumulating the same multiset of
    values in *any* order — or split across several lists that are later
    concatenated — yields the same ``fsum``.  That property is what lets
    a sharded simulation merge per-shard metric state into totals that
    are byte-identical regardless of how observations interleaved.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]

#: Log-spaced default buckets covering microseconds to hours of
#: simulated time (and small-to-large generic magnitudes).
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    m * (10.0**e) for e in range(-6, 5) for m in (1.0, 2.5, 5.0)
)


class LabelCardinalityError(Exception):
    """Raised when a family exceeds its maximum number of label series."""


class _Series:
    """State shared by every instrument kind: its family and label set."""

    __slots__ = ("family", "labels")

    def __init__(self, family: "_Family", labels: tuple[tuple[str, str], ...]):
        self.family = family
        self.labels = labels


class Counter(_Series):
    """Monotone accumulator."""

    kind_name = "counter"

    __slots__ = ("value",)

    def __init__(self, family: "_Family", labels: tuple[tuple[str, str], ...]):
        super().__init__(family, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter decrement not allowed: {amount}")
        self.value += amount

    def _snapshot(self) -> dict:
        return {"value": self.value}


class Gauge(_Series):
    """Last-write-wins value (e.g. queue depth, membership size)."""

    kind_name = "gauge"

    __slots__ = ("value",)

    def __init__(self, family: "_Family", labels: tuple[tuple[str, str], ...]):
        super().__init__(family, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)

    def add(self, amount: float) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self.value += amount

    def _snapshot(self) -> dict:
        return {"value": self.value}


class Histogram(_Series):
    """Bucketed distribution with count, sum, min, and max."""

    kind_name = "histogram"

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, family: "_Family", labels: tuple[tuple[str, str], ...]):
        super().__init__(family, labels)
        self.bounds: tuple[float, ...] = family.buckets
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +overflow
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def _snapshot(self) -> dict:
        # Only non-empty buckets are serialized, keyed by their upper
        # bound ("+inf" for overflow), keeping reports compact.
        buckets = {}
        for i, c in enumerate(self.bucket_counts):
            if c:
                key = "+inf" if i == len(self.bounds) else repr(self.bounds[i])
                buckets[key] = c
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class ExactCounter(Counter):
    """Counter whose snapshot carries exact partial sums.

    Used by sharded simulations (``MetricsRegistry(exact_sums=True)``):
    the ``_partials`` list in the snapshot lets a merger compute the
    total across shards independently of observation interleaving, so
    ``shards=1`` and ``shards=N`` produce byte-identical merged reports
    even for non-integer increments.  ``value`` stays a plain running
    float for cheap in-sim reads; counters that are *assigned* (the
    kernel flush hooks) rather than incremented snapshot their assigned
    value as a single partial.
    """

    __slots__ = ("partials",)

    def __init__(self, family: "_Family", labels: tuple[tuple[str, str], ...]):
        super().__init__(family, labels)
        self.partials: list[float] = []

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter decrement not allowed: {amount}")
        self.value += amount
        exact_add(self.partials, amount)

    def _snapshot(self) -> dict:
        parts = self.partials or ([self.value] if self.value else [])
        return {"value": math.fsum(parts), "_partials": list(parts)}


class ExactHistogram(Histogram):
    """Histogram whose snapshot carries exact partial sums (see
    :class:`ExactCounter`)."""

    __slots__ = ("partials",)

    def __init__(self, family: "_Family", labels: tuple[tuple[str, str], ...]):
        super().__init__(family, labels)
        self.partials: list[float] = []

    def observe(self, value: float) -> None:
        super().observe(value)
        exact_add(self.partials, value)

    def _snapshot(self) -> dict:
        snap = super()._snapshot()
        snap["sum"] = math.fsum(self.partials) if self.partials else self.sum
        snap["_partials"] = list(self.partials)
        return snap


class DeferredHistogram:
    """Hot-path accumulator for one histogram series.

    The one place that mirrors :meth:`Histogram.observe`: samples are
    aggregated off the registry in the same arithmetic order — a running
    float, or Shewchuk partials when ``series`` is an
    :class:`ExactHistogram` — and :meth:`flush` (called from the owner's
    flush hook) assigns the totals to the series, so flushed values are
    bit-identical to observing each sample directly.

    A window from :meth:`observe_many` adds to ``sum`` on arrival; its
    samples wait in one fixed buffer and are binned (counts, min, max:
    order-free) when it fills and at :meth:`flush`.  On a plain series,
    :meth:`observe_zero` only tallies: adding 0.0 leaves a running sum
    bit-identical, so the tally is folded into counts, n, min and max at
    :meth:`flush`.
    """

    __slots__ = ("series", "bounds", "counts", "n", "sum", "partials", "min", "max",
                 "zeros", "_buf", "_fill")

    #: Samples held back for binning (allocated on the first window).
    BUFFER = 16384

    def __init__(self, series: Histogram):
        self.series = series
        self.bounds = series.bounds
        self.counts = [0] * (len(self.bounds) + 1)
        self.n = 0
        self.sum = 0.0
        self.partials: Optional[list[float]] = (
            [] if isinstance(series, ExactHistogram) else None
        )
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zeros = 0  # plain-series 0.0 samples not yet folded in
        self._buf: Optional[np.ndarray] = None
        self._fill = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.n += 1
        if self.partials is None:
            self.sum += value
        else:
            exact_add(self.partials, value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_zero(self) -> None:
        """Record one sample of 0.0."""
        if self.partials is None:
            self.zeros += 1
        else:  # the exact partials are part of the report: add it
            self.observe(0.0)

    def observe_many(self, values: np.ndarray) -> None:
        """Record a non-empty numpy array of samples (one batched window)."""
        k = len(values)
        self.n += k
        if self.partials is None:
            self.sum += float(np.add.reduce(values))
        else:
            for v in values.tolist():
                exact_add(self.partials, v)
        fill = self._fill
        if fill + k > self.BUFFER:
            self._bin(np.concatenate((self._buf[:fill], values)) if fill else values)
            return
        if self._buf is None:
            self._buf = np.empty(self.BUFFER)
        self._buf[fill : fill + k] = values
        self._fill = fill + k

    def _bin(self, values: np.ndarray) -> None:
        """Fold held-back samples into the counts, min and max."""
        self._fill = 0
        binned = np.bincount(np.searchsorted(self.bounds, values), minlength=len(self.counts))
        self.counts = [c + b for c, b in zip(self.counts, binned.tolist())]
        lo, hi = float(values.min()), float(values.max())
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    def flush(self) -> None:
        """Assign the totals to the series (idempotent; a series nothing
        was observed into is left untouched)."""
        if self.zeros:  # min/max keep the earlier of equal values, as observe does
            self.counts[bisect_left(self.bounds, 0.0)] += self.zeros
            self.n += self.zeros
            self.min = 0.0 if self.min is None else min(self.min, 0.0)
            self.max = 0.0 if self.max is None else max(self.max, 0.0)
            self.zeros = 0
        if not self.n:
            return
        if self._fill:
            self._bin(self._buf[: self._fill])
        h = self.series
        h.bucket_counts = list(self.counts)
        h.count = self.n
        h.min = self.min
        h.max = self.max
        if self.partials is None:
            h.sum = self.sum
        else:
            h.partials = list(self.partials)
            h.sum = math.fsum(self.partials)


#: instrument kind -> exact-sum variant (identity for Gauge)
_EXACT_KINDS: dict[type, type] = {Counter: ExactCounter, Histogram: ExactHistogram}


class _Family:
    """All series sharing one metric name and instrument kind."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: type,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        max_series: int = 1024,
    ):
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self.max_series = max_series
        self.series: dict[tuple[tuple[str, str], ...], _Series] = {}

    def labels(self, **labels: object) -> _Series:
        """The series for this exact label set (created on first use)."""
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        child = self.series.get(key)
        if child is None:
            if len(self.series) >= self.max_series:
                shown = ",".join(f"{k}={v}" for k, v in key)
                raise LabelCardinalityError(
                    f"{self.name}: label set {{{shown}}} would exceed the cap of "
                    f"{self.max_series} series; one of its labels (a node name past "
                    "the cap, a request id?) has too many values to be a dimension"
                )
            child = self.kind(self, key)
            self.series[key] = child
        return child

    def _snapshot(self) -> dict:
        return {
            "type": self.kind.kind_name,
            "series": [
                {"labels": dict(key), **s._snapshot()}
                for key, s in sorted(self.series.items())
            ],
        }


class MetricsRegistry:
    """All metric families of one simulation.

    Families are created lazily by the typed accessors; asking for an
    existing name with a different instrument kind is an error (one name
    means one thing across the whole cluster).
    """

    def __init__(self, exact_sums: bool = False):
        self.exact_sums = exact_sums
        self._families: dict[str, _Family] = {}
        #: Called before every read (:meth:`get`, :meth:`value`,
        #: :meth:`snapshot`).  The owning :class:`repro.obs.Observability`
        #: points it at its flush-hook list, so components may accumulate
        #: in plain ints off the registry and still present exact values
        #: to every observer; a standalone registry has nothing deferred.
        self.flush: Callable[[], None] = lambda: None

    def _family(self, name: str, kind: type, **kwargs) -> _Family:
        if self.exact_sums:
            kind = _EXACT_KINDS.get(kind, kind)
        fam = self._families.get(name)
        if fam is None:
            fam = _Family(self, name, kind, **kwargs)
            self._families[name] = fam
        elif fam.kind is not kind:
            raise TypeError(
                f"metric {name!r} is a {fam.kind.__name__}, not a {kind.__name__}"
            )
        return fam

    def counter(self, name: str, help: str = "", max_series: int = 1024) -> _Family:
        """The counter family called ``name``."""
        return self._family(name, Counter, help=help, max_series=max_series)

    def gauge(self, name: str, help: str = "", max_series: int = 1024) -> _Family:
        """The gauge family called ``name``."""
        return self._family(name, Gauge, help=help, max_series=max_series)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        max_series: int = 1024,
    ) -> _Family:
        """The histogram family called ``name``."""
        return self._family(
            name, Histogram, help=help, buckets=tuple(buckets), max_series=max_series
        )

    # -- queries -----------------------------------------------------------

    def get(self, name: str) -> Optional[_Family]:
        """The family called ``name``, if it exists."""
        self.flush()
        return self._families.get(name)

    def names(self) -> list[str]:
        """All family names, sorted."""
        return sorted(self._families)

    def subsystems(self) -> set[str]:
        """First dotted component of every family that has data."""
        return {
            name.split(".", 1)[0]
            for name, fam in self._families.items()
            if fam.series
        }

    def value(self, name: str, **labels: object) -> float:
        """Convenience: current value of one counter/gauge series (0 if
        the family or series does not exist)."""
        self.flush()
        fam = self._families.get(name)
        if fam is None:
            return 0.0
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        series = fam.series.get(key)
        return getattr(series, "value", 0.0) if series is not None else 0.0

    def snapshot(self) -> dict:
        """Deterministic nested-dict snapshot of every non-empty family."""
        self.flush()
        return {
            name: fam._snapshot()
            for name, fam in sorted(self._families.items())
            if fam.series
        }
