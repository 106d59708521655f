"""RainSan's dynamic head: a happens-before sanitizer for the sharded DES.

The conservative round protocol (:mod:`repro.sim.shard`) is correct
only if three invariants hold at runtime:

- **lookahead**: nothing crosses a shard boundary into what its
  destination may already have run — a staged handoff arriving at or
  before its destination's bound for the round, or an injection landing
  at or below the destination's frontier (the time it has run to),
  could reorder causally related events (HB001);
- **isolation**: while one kernel is being driven, *only* that kernel's
  event queue changes — a schedule landing on a different kernel is a
  cross-shard access with no happens-before edge (HB002);
- **replication**: control-replicated gauge state agrees across kernels
  at the end of the run (HB003).

:class:`HbMonitor` checks all three by instrumenting the kernels'
single scheduling choke point (:meth:`ShardKernel._insert`), the one
staging point (:meth:`ShardKernel.stage`), the one injection point
(:func:`~repro.sim.shard.deliver_handoff`) and the coordinator's
round/barrier transitions, and by keeping a vector clock per shard:
``vc[r][s]`` counts the events of shard ``s`` that shard ``r``'s state
provably happened-after.  Local execution ticks ``vc[r][r]``; each
barrier joins every clock (the end of a round is full
synchronization).  An insert that is legal must be ordered after the
inserting context under this relation — the dynamic rules are exactly
the cases where no such edge exists.

Zero-cost when off: kernels carry ``_hb = None`` as a class attribute
and the hot ``run`` loop is entered untouched; only
:func:`install_sanitizer` (or ``REPRO_SANITIZE=1`` at construction)
swaps in the instrumented path.  The bench regression gate enforces
this stays free.

Violations are recorded, not raised — the sanitizer's job is a complete
report (``python -m repro sanitize``), and a corrupted run should still
show *every* violation, like ASan's continue-after-error mode.
"""

from __future__ import annotations

from typing import Optional

from ..sim.shard import sanitize_enabled
from .findings import AnalysisReport, Finding
from .rules import HB_RULES

__all__ = ["HbMonitor", "install_sanitizer", "sanitize_enabled"]

#: phases of the sharded run, in protocol order
_PHASES = ("build", "window", "barrier", "idle")


class HbMonitor:
    """Vector-clock happens-before monitor for one sharded run."""

    def __init__(self, shards: int, lookahead: Optional[float]):
        self.shards = shards
        self.lookahead = lookahead
        #: vc[r][s]: events of shard s that shard r happened-after
        self.vc = [[0] * shards for _ in range(shards)]
        self.phase = "build"
        #: each kernel's bound in the current round
        self.bounds: Optional[list] = None
        #: kernel being driven (in-process: one at a time)
        self.executing: Optional[int] = None
        #: per-shard frontier: the time each kernel has run to
        self.frontier = [0.0] * shards
        self.events = [0] * shards
        self.windows = 0
        self.handoffs = 0
        self.violations: list[Finding] = []

    # -- protocol transitions (driven by ShardedSimulator) ---------------

    def on_round(self, bounds: list) -> None:
        """A round begins: kernel r may run up to ``bounds[r]``."""
        self.phase = "window"
        self.bounds = bounds
        self.windows += 1

    def on_barrier(self) -> None:
        """The round's kernels returned; handoffs are routed now and
        injected at the start of the next round (also when that round
        belongs to a later ``run()`` call, which re-enters this phase
        first).

        The barrier synchronizes every shard: all vector clocks join.
        """
        self.phase = "barrier"
        self.bounds = None
        joined = [max(col) for col in zip(*self.vc)]
        for r in range(self.shards):
            self.vc[r] = list(joined)

    def on_idle(self) -> None:
        """The coordinator's run() returned; scheduling is free again
        (between-run control scripting must not be flagged)."""
        self.phase = "idle"
        self.executing = None
        self.bounds = None

    # -- kernel hooks (driven by ShardKernel) ----------------------------

    def on_run_enter(self, rank: int, until: Optional[float]) -> None:
        self.executing = rank

    def on_run_exit(self, rank: int, now: float) -> None:
        self.executing = None
        if now > self.frontier[rank]:
            self.frontier[rank] = now

    def on_execute(self, rank: int, t: float) -> None:
        self.vc[rank][rank] += 1
        self.events[rank] += 1
        if t > self.frontier[rank]:
            self.frontier[rank] = t

    def on_insert(self, rank: int, t: float, key: tuple) -> None:
        """Every schedule on kernel ``rank`` funnels through here."""
        ex = self.executing
        if self.phase == "window" and ex is not None and ex != rank:
            self._flag(
                "HB002",
                rank,
                t,
                f"shard {ex} scheduled onto shard {rank}'s kernel at "
                f"t={t:.9g} (key origin {key[1]}) while shard {ex} was "
                f"being driven — no happens-before edge exists between "
                f"them until the round's barrier",
            )

    def on_stage(self, src: int, dest: int, arrival: float) -> None:
        """A handoff was staged by ``src`` for ``dest`` (the hb edge)."""
        self.handoffs += 1
        bounds = self.bounds
        if bounds is not None and arrival <= bounds[dest] + 1e-12:
            self._flag(
                "HB001",
                src,
                arrival,
                f"shard {src} staged a handoff to shard {dest} arriving at "
                f"t={arrival:.9g}, at or before shard {dest}'s bound "
                f"t={bounds[dest]:.9g} for this round — the partitioner's "
                "lookahead exceeds the actual boundary latency",
            )

    def on_inject(self, rank: int, t: float) -> None:
        """A handoff arriving at ``t`` is injected into shard ``rank``
        (the single injection point, whichever coordinator routed it)."""
        front = self.frontier[rank]
        if t <= front + 1e-12:
            self._flag(
                "HB001",
                rank,
                t,
                f"handoff injected into shard {rank} at t={t:.9g}, at or "
                f"below the frontier t={front:.9g} that shard {rank} "
                "already ran to",
            )

    # -- gauge replication ----------------------------------------------

    def check_gauges(self, snapshots: list) -> None:
        """HB003: replicated gauges must agree across shard kernels."""
        from ..obs.merge import gauge_divergences

        for name, labels, values in gauge_divergences(snapshots):
            self._flag(
                "HB003",
                0,
                0.0,
                f"gauge {name}{labels} disagrees across shards: "
                f"per-shard values {values}",
            )

    # -- reporting -------------------------------------------------------

    def _flag(self, rule_id: str, rank: int, t: float, detail: str) -> None:
        rule = HB_RULES[rule_id]
        self.violations.append(
            Finding(
                path=f"shard/{rank}",
                line=0,
                col=0,
                rule=rule_id,
                message=f"{rule.title}: {detail}",
                hint=rule.hint,
            )
        )

    def report(self) -> AnalysisReport:
        """Freeze the run into a canonical :class:`AnalysisReport`."""
        report = AnalysisReport(kind="sanitize")
        for f in self.violations:
            report.add(f)
        report.stats["shards"] = self.shards
        report.stats["lookahead"] = self.lookahead
        report.stats["windows"] = self.windows
        report.stats["handoffs"] = self.handoffs
        report.stats["events"] = sum(self.events)
        report.stats["rules"] = len(HB_RULES)
        # the joined frontier: what every shard provably happened-after
        report.stats["vc_min"] = min(min(row) for row in self.vc)
        report.stats["vc_max"] = max(max(row) for row in self.vc)
        return report.finalize()


def install_sanitizer(sharded) -> HbMonitor:
    """Attach an :class:`HbMonitor` to a ShardedSimulator and its kernels.

    Idempotent per simulator: a second call returns the existing
    monitor.  The kernels switch to the instrumented run path; the
    coordinator's round loop reports phase transitions.
    """
    existing = getattr(sharded, "_hb", None)
    if existing is not None:
        return existing
    monitor = HbMonitor(sharded.shards, sharded.lookahead)
    sharded._hb = monitor
    for k in sharded.kernels:
        k._hb = monitor
    return monitor
