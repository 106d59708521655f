"""Scalar accumulators mirrored into the metrics registry.

.. deprecated::
    What is left of the pre-:mod:`repro.obs` tracing module: the
    record-list tracer shim is gone (the network publishes
    ``net.trace.*`` on ``sim.obs.bus`` itself) and :class:`StatCounters`
    keeps only what has a caller — ``sums``, ``add`` and the registry
    mirror behind ``Network.stats``.  The file stays at this path
    because ``benchmarks/e2e`` maps it in its layer table and reads
    ``net.stats.sums``; new code should use ``sim.obs.metrics`` directly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import MetricsRegistry

__all__ = ["StatCounters"]


class StatCounters:
    """Named float sums, mirrored to ``{prefix}.{key}`` registry counters.

    ``sums`` is a plain ``defaultdict`` so hot paths may accumulate into
    it directly; :meth:`mirror` (the owner's flush hook calls it)
    assigns every sum to its counter series.
    """

    def __init__(
        self,
        registry: Optional["MetricsRegistry"] = None,
        prefix: str = "stats",
    ):
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.registry = registry
        self.prefix = prefix
        # key -> bound registry series, so mirroring skips the family
        # lookup + label sort.
        self._bound_counters: dict[str, Any] = {}

    def add(self, key: str, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into counter ``key``."""
        self.sums[key] += amount

    def mirror(self) -> None:
        """Assign every sum to its registry counter (no-op without a
        registry; keys in sorted order so series creation is
        deterministic)."""
        if self.registry is None:
            return
        for key in sorted(self.sums):
            series = self._bound_counters.get(key)
            if series is None:
                series = self.registry.counter(f"{self.prefix}.{key}").labels()
                self._bound_counters[key] = series
            series.value = float(self.sums[key])
