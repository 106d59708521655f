"""The layer collector behind the traced pass.

A ``sys.setprofile`` hook owned by the benchmark — nothing under ``src/``
is edited.  Every Python frame belongs to the layer of the file that
defines its code; frames of files that are neither ``repro`` nor the
benchmark (numpy's Python wrappers, the standard library) *inherit* the
layer of the frame that called them, and C/builtin calls open no frame
at all, so their time stays with the caller.  Otherwise half of a
large-block run would land in ``other``.

Time is accounted at layer crossings only: a call from a frame of layer A
into a function of layer B != A closes A's running interval and opens a
span ``B:function``; the matching return closes it.  A layer's ``self_s``
is therefore its spans' time minus the child spans inside them, every
instant between ``start()`` and ``stop()`` belongs to exactly one layer,
and the layers' ``self_s`` sum to the traced wall time by construction.
``calls`` counts crossings *into* a layer; it depends only on the
program's control flow and repeats bit-for-bit.

Aggregates are exact for the whole run; the first ``max_spans`` spans are
kept in memory and written as a Chrome trace-event file when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Optional, Sequence

__all__ = ["LayerCollector", "INHERIT"]

#: ``classify`` result for a frame that takes its caller's layer
INHERIT = 255
_WATCH_SHIFT = 8


class LayerCollector:
    """Per-layer self time, crossing counts, named-call counts and spans.

    ``classify(code)`` maps a code object to an index into ``layers`` or
    :data:`INHERIT`; it is consulted once per code object.  ``watched``
    lists code objects whose calls are counted whether or not they cross
    a layer (``Router._bfs`` is called from inside its own layer).
    ``clock`` is injectable so the arithmetic can be tested exactly.
    """

    def __init__(
        self,
        layers: Sequence[str],
        classify: Callable[[object], int],
        root_layer: str = "other",
        watched: Sequence[object] = (),
        max_spans: int = 100_000,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if len(layers) >= INHERIT:
            raise ValueError("too many layers")
        self.layers = tuple(layers)
        self.max_spans = max_spans
        #: spans as [code, layer index, start, end, parent index or -1]
        self.spans: list[list] = []
        self.spans_dropped = 0
        self._watched = list(watched)
        self._build(classify, self.layers.index(root_layer), clock)

    def _build(self, classify, root: int, clock) -> None:
        n = len(self.layers)
        self_t = [0.0] * n
        calls = [0] * n
        watch = [0] * (len(self._watched) + 1)
        layer_of: dict = {}
        stack: list[int] = []  # caller's layer, one entry per open Python frame
        open_spans: list[int] = []  # span index (or -1) per open crossing
        spans = self.spans
        max_spans = self.max_spans
        watched_slot = {code: i + 1 for i, code in enumerate(self._watched)}
        cur = root
        last = 0.0
        recording = False
        dropped = 0

        def resolve(code) -> int:
            packed = classify(code) | (watched_slot.get(code, 0) << _WATCH_SHIFT)
            layer_of[code] = packed
            return packed

        def hook(frame, event, arg):
            nonlocal cur, last, dropped
            if event == "call":
                code = frame.f_code
                layer = layer_of.get(code)
                if layer is None:
                    layer = resolve(code)
                if layer > INHERIT:
                    watch[layer >> _WATCH_SHIFT] += 1
                    layer &= INHERIT
                stack.append(cur)
                if layer != cur and layer != INHERIT:
                    now = clock()
                    self_t[cur] += now - last
                    last = now
                    calls[layer] += 1
                    cur = layer
                    idx = -1
                    if recording:
                        if len(spans) < max_spans:
                            idx = len(spans)
                            parent = open_spans[-1] if open_spans else -1
                            spans.append([code, layer, now, None, parent])
                        else:
                            dropped += 1
                    open_spans.append(idx)
            elif event == "return":
                # frames that were already open at start() return past the
                # bottom of our stack; they belong to the root layer
                if stack:
                    prev = stack.pop()
                    if prev != cur:
                        now = clock()
                        self_t[cur] += now - last
                        last = now
                        cur = prev
                        idx = open_spans.pop()
                        if idx >= 0:
                            spans[idx][3] = now
            # c_call / c_return / c_exception: time stays with the caller

        def start() -> None:
            nonlocal last
            last = clock()
            sys.setprofile(hook)

        def take(record_spans: bool) -> dict:
            """Aggregates since start (or the previous take), then reset."""
            nonlocal recording, last
            now = clock()
            self_t[cur] += now - last
            last = now
            out = {
                "self_s": dict(zip(self.layers, self_t)),
                "calls": dict(zip(self.layers, calls)),
                "watched": list(watch[1:]),
            }
            self_t[:] = [0.0] * n
            calls[:] = [0] * n
            watch[:] = [0] * len(watch)
            recording = record_spans
            return out

        def stop() -> dict:
            sys.setprofile(None)
            out = take(False)
            end = last
            for span in spans:  # still open at stop(): close at the edge
                if span[3] is None:
                    span[3] = end
            self.spans_dropped = dropped
            return out

        self.start = start
        self.take = take
        self.stop = stop

    # -- output ------------------------------------------------------------

    def span_name(self, span: list) -> str:
        code = span[0]
        return f"{self.layers[span[1]]}:{getattr(code, 'co_qualname', code.co_name)}"

    def chrome_trace(self, origin: Optional[float] = None) -> dict:
        """The kept spans as a Chrome trace-event document (``ph: X``).

        ``args.parent`` is the index of the enclosing span in this file,
        so the causal chain survives tools that flatten the nesting.
        """
        if origin is None:
            origin = self.spans[0][2] if self.spans else 0.0
        events = [
            {
                "name": self.span_name(span),
                "cat": self.layers[span[1]],
                "ph": "X",
                "ts": (span[2] - origin) * 1e6,
                "dur": max(0.0, (span[3] - span[2]) * 1e6),
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": span[4] if span[4] >= 0 else None},
            }
            for i, span in enumerate(self.spans)
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "spans_kept": len(self.spans),
                "spans_dropped": self.spans_dropped,
            },
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh, separators=(",", ":"))
            fh.write("\n")
