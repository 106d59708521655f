"""Cluster-wide observability snapshots with a stable JSON form.

A :class:`ClusterReport` freezes one simulation's metrics and event
counts (plus free-form key numbers) into a deterministic, sorted
structure.  Serialization is canonical — sorted keys, fixed separators,
no wall-clock or object identities — so two same-seed runs produce
byte-identical JSON, making ``benchmarks/results/`` artifacts and test
fixtures machine-diffable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["ClusterReport", "SCHEMA_VERSION"]

#: Version of the ClusterReport JSON layout.  External consumers (the
#: control-plane dashboard, benchmark diff tooling) check this field to
#: detect format drift instead of guessing from key shapes.  Bump it on
#: any structural change to :meth:`ClusterReport.to_dict` — adding,
#: removing, or re-typing keys — and note the change in
#: docs/architecture.md ("Control plane & dashboard").  Still 1 after
#: per-node series moved to creation on first observation: reports lost
#: their zero-valued series, but which series appear is data, and no key
#: was added, removed or retyped.
SCHEMA_VERSION = 1


@dataclass
class ClusterReport:
    """A frozen snapshot of cluster observability state."""

    scenario: str = ""
    sim_time: float = 0.0
    metrics: dict = field(default_factory=dict)
    events: dict = field(default_factory=dict)
    #: free-form headline numbers (benchmark results, derived stats)
    extra: dict = field(default_factory=dict)
    #: JSON layout version (see :data:`SCHEMA_VERSION`); carried as a
    #: field so merged shard reports built via the constructor get it too
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def capture(cls, sim, scenario: str = "", **extra: object) -> "ClusterReport":
        """Snapshot a simulator's observability hub right now."""
        return cls(
            scenario=scenario,
            sim_time=sim.now,
            metrics=sim.obs.metrics.snapshot(),
            events=sim.obs.bus.topic_counts(),
            extra=dict(extra),
        )

    @classmethod
    def from_values(cls, scenario: str, **extra: object) -> "ClusterReport":
        """A report carrying only headline numbers (no live simulator)."""
        return cls(scenario=scenario, extra=dict(extra))

    # -- queries -----------------------------------------------------------

    def subsystems(self) -> set[str]:
        """Subsystems (first dotted name component) present in the report."""
        names = set(self.metrics) | set(self.events)
        return {n.split(".", 1)[0] for n in names}

    def series_count(self) -> int:
        """Total number of labeled metric series captured."""
        return sum(len(fam.get("series", ())) for fam in self.metrics.values())

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (sorted where order is not already canonical)."""
        return {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "sim_time": self.sim_time,
            "subsystems": sorted(self.subsystems()),
            "metrics": self.metrics,
            "events": self.events,
            "extra": {k: self.extra[k] for k in sorted(self.extra)},
        }

    def render(self) -> str:
        """Human-readable text form (the ``python -m repro metrics`` view)."""
        lines = [
            f"cluster report: {self.scenario or '(unnamed)'}",
            f"simulated time: {self.sim_time:g} s",
            f"subsystems ({len(self.subsystems())}): "
            + ", ".join(sorted(self.subsystems())),
        ]
        for k in sorted(self.extra):
            lines.append(f"  {k} = {self.extra[k]}")
        lines.append(f"metrics ({len(self.metrics)} families, "
                     f"{self.series_count()} series):")
        for name in sorted(self.metrics):
            fam = self.metrics[name]
            for s in fam["series"]:
                label = ",".join(f"{k}={v}" for k, v in sorted(s["labels"].items()))
                where = f"{name}{{{label}}}" if label else name
                if fam["type"] == "histogram":
                    stat = f"count={s['count']} sum={s['sum']:g}"
                    if s["count"]:
                        stat += f" min={s['min']:g} max={s['max']:g}"
                    lines.append(f"  {where}  {stat}")
                else:
                    lines.append(f"  {where}  {s['value']:g}")
        lines.append(f"bus topics ({len(self.events)}):")
        for topic in sorted(self.events):
            lines.append(f"  {topic}  {self.events[topic]}")
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON: sorted keys, stable separators, LF-terminated."""
        return json.dumps(
            self.to_dict(), indent=indent, sort_keys=True, default=str
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_json()
