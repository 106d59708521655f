"""Unified observability bus for the RAIN stack.

The paper's claims are judged by *traces and counters*: Up/Down
transition sequences (Fig. 6), token paths and 911 regenerations
(Fig. 9), XOR counts (Sec. 4.1), failover latency (Sec. 6.2).  This
package gives every subsystem one substrate to emit them through:

- :class:`MetricsRegistry` — labeled counters, gauges, and histograms,
  timestamped in *simulated* time;
- :class:`EventBus` — pub/sub structured events (the network's
  per-packet ``net.trace.*`` records are published here directly);
- :class:`ClusterReport` — a deterministic snapshot/JSON exporter so
  tests and benchmarks can diff whole-cluster behaviour byte-for-byte.

Every :class:`repro.sim.Simulator` owns an :class:`Observability` hub
(``sim.obs``); components reach their instruments through it.  Metric
names follow ``subsystem.component.metric`` (see docs/architecture.md).

This package is deliberately dependency-free (stdlib only) and imports
nothing from the rest of :mod:`repro`, so any layer — including the sim
kernel itself — can use it without cycles.
"""

from __future__ import annotations

from typing import Callable, Optional

from .bus import Event, EventBus, EventRing
from .flight import FlightRecorder
from .merge import (
    merge_event_counts,
    merge_metric_snapshots,
    merge_span_snapshots,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
    MetricsRegistry,
)
from .report import SCHEMA_VERSION, ClusterReport
from .timeline import (
    TimelineRecorder,
    channel_timelines,
    render_channel_timelines,
    render_token_timeline,
    timelines_to_dict,
    token_path,
    token_timeline,
)
from .tracing import Span, SpanContext, SpanTracer, validate_chrome_trace

__all__ = [
    "ClusterReport",
    "Counter",
    "Event",
    "EventBus",
    "EventRing",
    "FlightRecorder",
    "SCHEMA_VERSION",
    "Gauge",
    "Histogram",
    "LabelCardinalityError",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanContext",
    "SpanTracer",
    "TimelineRecorder",
    "channel_timelines",
    "merge_event_counts",
    "merge_metric_snapshots",
    "merge_span_snapshots",
    "render_channel_timelines",
    "render_token_timeline",
    "timelines_to_dict",
    "token_path",
    "token_timeline",
    "validate_chrome_trace",
]


class Observability:
    """Per-simulation observability hub: one registry + one bus.

    ``time_fn`` supplies the current *simulated* time; the event bus and
    the span tracer stamp everything they record with it.
    """

    def __init__(self, time_fn: Callable[[], float], exact_sums: bool = False):
        self.time_fn = time_fn
        self.metrics = MetricsRegistry(exact_sums=exact_sums)
        self.bus = EventBus(time_fn)
        self._flush_hooks: list[Callable[[], None]] = []
        # One hook list for both: a read of either the registry or the
        # bus first pushes every deferred hot-path tally in.
        self.metrics.flush = self.bus.flush = self.flush
        #: Causal span tracer; ``None`` until :meth:`install_tracer` is
        #: called.  Instrumentation sites guard on this, so an untraced
        #: simulation pays one attribute load per site.
        self.tracer: Optional[SpanTracer] = None

    def install_tracer(self, max_spans: int = 200_000) -> SpanTracer:
        """Attach (or return the existing) :class:`SpanTracer`."""
        if self.tracer is None:
            self.tracer = SpanTracer(self.time_fn, max_spans=max_spans)
        return self.tracer

    def install_flight_recorder(self, capacity: int = 512) -> FlightRecorder:  # rainlint: disable=RL013 -- the tests/conftest.py crash-dump fixture
        """Attach a :class:`FlightRecorder` ring buffer to the bus."""
        return FlightRecorder(self, capacity=capacity)

    def add_flush_hook(self, fn: Callable[[], None]) -> None:
        """Register ``fn`` to push deferred hot-path tallies into their
        metric series and bus topic counts.  Hooks run (in registration
        order) before every read of the registry or the bus, so
        components may accumulate in plain ints and still present exact
        values to every observer.  Hooks must be idempotent."""
        self._flush_hooks.append(fn)

    def flush(self) -> None:
        """Run every registered flush hook."""
        for fn in self._flush_hooks:
            fn()

    def snapshot(self) -> dict:
        """Deterministic combined snapshot (metrics + event counts)."""
        return {
            "metrics": self.metrics.snapshot(),
            "events": self.bus.topic_counts(),
        }
