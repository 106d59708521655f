"""Flight recorder: bounded event ring buffer + crash reports.

A :class:`FlightRecorder` is an :class:`~repro.obs.bus.EventRing` over
the whole bus (``"*"``): the last ``capacity`` events, the "black box"
of a simulation.  Memory is bounded no matter how long the
run; the cost per event is one ring append.

When something goes wrong — a membership invariant trips, a scenario
raises — :meth:`dump` produces a deterministic crash report: the
recent-event window plus every span still open in the tracer (the
operations that were *in flight* when the failure hit).  The pytest
plugin in ``tests/conftest.py`` attaches these reports to failing
tier-1 tests.

Reports are canonical (sorted keys, id-ordered spans), so two same-seed
runs of the same failure produce byte-identical dumps — diffable like
the golden traces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .bus import Event, EventRing

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from . import Observability

__all__ = ["FlightRecorder"]


class FlightRecorder(EventRing):
    """Last-N event window over the bus, dumpable as a crash report."""

    def __init__(self, obs: "Observability", capacity: int = 512):
        super().__init__(obs.bus, capacity=capacity)
        self.obs = obs

    @property
    def n_seen(self) -> int:
        """Events recorded since installation, retained or not."""
        return self.next_seq

    def events(self) -> list[Event]:
        """The retained window, oldest first."""
        return [ev for _seq, _label, ev in self.since()]

    # -- crash reports -----------------------------------------------------

    def dump(self, reason: str, **detail: object) -> dict:  # rainlint: disable=RL013 -- the tests/conftest.py crash-dump fixture
        """Build a deterministic crash report.

        ``reason`` labels why the dump was taken (``"invariant"``,
        ``"exception"``, ``"test-failure"``); ``detail`` carries
        structured context (e.g. the violation strings).
        """
        tracer = self.obs.tracer
        report = {
            "reason": reason,
            "detail": {k: detail[k] for k in sorted(detail)},
            "time": self.obs.time_fn(),
            "events": [
                {"time": ev.time, "topic": ev.topic, "data": dict(ev.data)}
                for ev in self.events()
            ],
            "n_events_seen": self.n_seen,
            "n_events_retained": len(self),
            "open_spans": (
                [s.to_dict() for s in tracer.open_spans()] if tracer else []
            ),
        }
        return report
