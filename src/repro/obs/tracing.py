"""Deterministic causal span tracing over the observability hub.

The paper judges every protocol by its *causal story*: the identical
Up/Down sequences both endpoints of a channel must see (Fig. 6), the
path the membership token takes around the ring and its 911
regenerations (Fig. 9), the fan-out of a striped write across storage
nodes (Sec. 4).  Flat counters cannot tell those stories — nothing in a
metrics snapshot links a packet on a link to the RUDP retry to the
membership transition it caused.  This module adds the missing layer:

- :class:`SpanContext` — an immutable ``(trace_id, span_id)`` pair that
  protocol layers carry in their message headers (packet fields, RUDP
  segments, the membership token, storage requests);
- :class:`Span` — one timed operation with a parent link, forming trees
  whose roots are token lineages, file operations, or MPI collectives;
- :class:`SpanTracer` — the per-simulation recorder.  Ids are minted
  from a plain counter and times come from the simulator's virtual
  clock, so two same-seed runs produce byte-identical traces (no wall
  clock, no global RNG, no ``id()``).

A tracer is *opt-in*: ``sim.obs.install_tracer()`` attaches one, and
every instrumentation site guards on ``sim.obs.tracer is None`` so an
untraced simulation pays one attribute load per site — the same
discipline as :attr:`EventBus.has_subscribers`.

Exports: :meth:`SpanTracer.to_chrome_trace` emits Chrome trace-event
JSON loadable in Perfetto / ``chrome://tracing`` (one process per trace,
one thread lane per node), and :meth:`SpanTracer.snapshot` /
:meth:`SpanTracer.to_json` produce a canonical sorted form for golden
tests.  :func:`validate_chrome_trace` is the minimal schema check CI
runs on exported artifacts.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator, Optional, Union

__all__ = [
    "Span",
    "SpanContext",
    "SpanTracer",
    "validate_chrome_trace",
]


class SpanContext(tuple):
    """Immutable propagation handle: ``(trace_id, span_id)``.

    This is what rides in message headers.  It is a tuple subclass (not
    a dataclass) so copies are free and equality/hashing are structural.
    """

    __slots__ = ()

    def __new__(cls, trace_id: int, span_id: int) -> "SpanContext":
        return tuple.__new__(cls, (trace_id, span_id))

    def __getnewargs__(self) -> tuple:
        # Contexts ride in packet headers and channel buffers, which
        # RUDP snapshots deep-copy and multiprocessing pipes pickle;
        # ``__new__`` takes the two ids positionally, so spell that out
        # for the pickle protocol.
        return (self[0], self[1])

    @property
    def trace_id(self) -> int:
        """Id of the root span's trace this context belongs to."""
        return self[0]

    @property
    def span_id(self) -> int:
        """Id of the span this context points at."""
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpanContext(trace={self[0]}, span={self[1]})"


class Span:
    """One timed, attributed operation in a trace tree."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "node",
        "start",
        "end",
        "status",
        "attrs",
        "shard",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        node: Optional[str],
        start: float,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.start = start
        self.end: Optional[float] = None  # None while open
        self.status: Optional[str] = None  # "ok" | "error" | ... once ended
        self.attrs: dict[str, Any] = {}
        # Which shard kernel minted the span (None in unsharded runs).
        # Deliberately *excluded* from to_dict(): exports must be
        # byte-identical regardless of how the cluster was sharded.
        self.shard: Optional[int] = None

    @property
    def ctx(self) -> SpanContext:
        """The propagation handle pointing at this span."""
        return SpanContext(self.trace_id, self.span_id)

    @property
    def open(self) -> bool:
        """Whether the span has not been ended yet."""
        return self.end is None

    def to_dict(self) -> dict:
        """Deterministic plain-dict form (attrs sorted by key)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.open else f"end={self.end:g} {self.status}"
        return f"<span #{self.span_id} {self.name} t={self.start:g} {state}>"


ParentLike = Union[SpanContext, Span, None]


class _Activation:
    """Context manager returned by :meth:`SpanTracer.activate`."""

    __slots__ = ("_tracer", "_ctx")

    def __init__(self, tracer: "SpanTracer", ctx: Optional[SpanContext]):
        self._tracer = tracer
        self._ctx = ctx

    def __enter__(self) -> Optional[SpanContext]:
        self._tracer._stack.append(self._ctx)
        return self._ctx

    def __exit__(self, *exc) -> None:
        self._tracer._stack.pop()


class SpanTracer:
    """Deterministic span recorder for one simulation.

    Parameters
    ----------
    time_fn:
        Supplies the current *simulated* time (the hub passes
        ``lambda: sim.now``).
    max_spans:
        Hard cap on retained spans; once reached, further starts are
        counted in :attr:`n_dropped` but not recorded, so a runaway
        scenario cannot exhaust memory.
    """

    def __init__(self, time_fn: Callable[[], float], max_spans: int = 200_000):
        self.time_fn = time_fn
        self.max_spans = max_spans
        #: optional span-id mint override.  A sharded kernel installs a
        #: function returning layout-invariant ids (derived from the
        #: logical origin of the current event, not from arrival order)
        #: so traces merge byte-identically across shard counts.
        self.id_fn: Optional[Callable[[], int]] = None
        #: shard rank stamped (off-export) onto minted spans
        self.shard: Optional[int] = None
        self.spans: list[Span] = []  # in start order
        self.n_dropped = 0
        self._open: dict[int, Span] = {}
        self._by_id: dict[int, Span] = {}
        self._next_id = 1
        # The activation stack: entries are the "current" SpanContext.
        # The simulation is single-threaded, so a plain list suffices;
        # the kernel pushes a process's carried context around each
        # resumption and message dispatchers push the inbound context
        # around handler calls.
        self._stack: list[Optional[SpanContext]] = []

    # -- creation ----------------------------------------------------------

    @property
    def current(self) -> Optional[SpanContext]:
        """The innermost active context (None outside any activation)."""
        return self._stack[-1] if self._stack else None

    def activate(self, ctx: Optional[SpanContext]) -> _Activation:
        """Context manager making ``ctx`` the current context."""
        return _Activation(self, ctx)

    def _resolve_parent(self, parent: ParentLike) -> Optional[SpanContext]:
        if parent is None:
            return self.current
        if isinstance(parent, Span):
            return parent.ctx
        return parent

    def start(
        self,
        name: str,
        parent: ParentLike = None,
        node: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; ``parent=None`` inherits the current context.

        A span with no parent (explicit or ambient) roots a new trace
        whose ``trace_id`` is its own ``span_id``.
        """
        pctx = self._resolve_parent(parent)
        if self.id_fn is not None:
            span_id = self.id_fn()
        else:
            span_id = self._next_id
            self._next_id += 1
        if pctx is None:
            trace_id, parent_id = span_id, None
        else:
            trace_id, parent_id = pctx.trace_id, pctx.span_id
        span = Span(trace_id, span_id, parent_id, name, node, self.time_fn())
        span.shard = self.shard
        if attrs:
            span.attrs.update(attrs)
        if len(self.spans) >= self.max_spans:
            self.n_dropped += 1
            span.end = span.start
            span.status = "dropped"
            return span
        self.spans.append(span)
        self._open[span_id] = span
        self._by_id[span_id] = span
        return span

    def end(self, span: Span, status: str = "ok", **attrs: Any) -> None:
        """Close ``span`` at the current time (idempotent)."""
        if span.end is not None:
            return
        span.end = self.time_fn()
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self._open.pop(span.span_id, None)

    def end_id(self, span_id: int, status: str = "ok", **attrs: Any) -> None:
        """Close the open span with ``span_id`` (no-op if unknown/closed)."""
        span = self._open.get(span_id)
        if span is not None:
            self.end(span, status=status, **attrs)

    def instant(
        self,
        name: str,
        parent: ParentLike = None,
        node: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """A zero-duration span (an event with causal parentage)."""
        span = self.start(name, parent=parent, node=node, **attrs)
        self.end(span)
        return span

    def clear(self) -> None:
        """Drop every recorded span and reset the id counter."""
        self.spans.clear()
        self._open.clear()
        self._by_id.clear()
        self._stack.clear()
        self._next_id = 1
        self.n_dropped = 0

    # -- queries -----------------------------------------------------------

    def get(self, span_id: int) -> Optional[Span]:
        """The recorded span with ``span_id``, if any."""
        return self._by_id.get(span_id)

    def open_spans(self) -> list[Span]:
        """Spans started but not ended, in start (= id) order."""
        return [s for s in self.spans if s.end is None]

    def by_name(self, name: str) -> list[Span]:
        """All spans called ``name``, in start order."""
        return [s for s in self.spans if s.name == name]

    def ancestors(self, span: Span) -> Iterator[Span]:
        """The parent chain of ``span``, nearest first."""
        seen = 0
        cur = span
        while cur.parent_id is not None and seen <= len(self.spans):
            parent = self._by_id.get(cur.parent_id)
            if parent is None:
                return
            yield parent
            cur = parent
            seen += 1

    def trace(self, trace_id: int) -> list[Span]:
        """Every span of one trace, in start order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def trace_ids(self) -> list[int]:
        """Sorted ids of all traces with at least one span."""
        return sorted({s.trace_id for s in self.spans})

    # -- canonical snapshot (golden tests) ---------------------------------

    def snapshot(self) -> dict:
        """Deterministic nested-dict form of the whole trace store.

        Spans are listed in id order with sorted attrs; two same-seed
        runs serialize byte-identically.
        """
        return {
            "spans": [s.to_dict() for s in self.spans],
            "open": sorted(self._open),
            "n_spans": len(self.spans),
            "n_dropped": self.n_dropped,
            "traces": self.trace_ids(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON: sorted keys, stable separators."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True, default=str)

    # -- Chrome trace-event export -----------------------------------------

    def to_chrome_trace(self) -> dict:
        """The trace as a Chrome trace-event document.

        Load the JSON in Perfetto (ui.perfetto.dev) or
        ``chrome://tracing``: each trace renders as a process, each
        cluster node as a thread lane, spans as complete ("X") events
        with microsecond timestamps (simulated seconds × 1e6).  Open
        spans are exported with zero duration and ``"open": true`` so a
        crash dump still shows what was in flight.
        """
        events: list[dict] = []
        # Thread lanes: node names map to small stable ints, sorted so
        # the mapping is independent of span discovery order.
        nodes = sorted({s.node for s in self.spans if s.node is not None})
        tids = {name: i + 1 for i, name in enumerate(nodes)}
        for trace_id in self.trace_ids():
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": trace_id,
                    "tid": 0,
                    "args": {"name": f"trace {trace_id}"},
                }
            )
            lanes = sorted(
                {s.node for s in self.spans if s.trace_id == trace_id and s.node}
            )
            for lane in lanes:
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": trace_id,
                        "tid": tids[lane],
                        "args": {"name": lane},
                    }
                )
        for s in self.spans:
            end = s.start if s.end is None else s.end
            args: dict[str, Any] = {
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "status": s.status if s.status is not None else "open",
            }
            if s.end is None:
                args["open"] = True
            for k in sorted(s.attrs):
                args[k] = s.attrs[k]
            events.append(
                {
                    "ph": "X",
                    "name": s.name,
                    "cat": s.name.split(".", 1)[0],
                    "pid": s.trace_id,
                    "tid": tids.get(s.node, 0),
                    "ts": s.start * 1e6,
                    "dur": (end - s.start) * 1e6,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: object) -> list[str]:
    """Minimal structural schema check for a Chrome trace document.

    Returns a list of human-readable problems (empty when the document
    is well-formed).  This is deliberately dependency-free — CI runs it
    on the exported artifact instead of shipping a jsonschema dep.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "i", "B", "E"):
            problems.append(f"{where}: bad phase {ph!r}")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            problems.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: {key} must be an int")
        if ph == "X":
            for key in ("ts", "dur"):
                v = ev.get(key)
                if not isinstance(v, (int, float)) or v < 0:
                    problems.append(f"{where}: {key} must be a non-negative number")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems
