"""Sharded, conservative parallel discrete-event simulation.

A :class:`ShardedSimulator` partitions a cluster across N
:class:`ShardKernel` instances — each a full :class:`Simulator` with its
own event queue, RNG streams, and observability hub — and advances them
in *rounds*.  A round injects the cross-shard packets (*handoffs*)
routed at the end of the last one, then gives each kernel r its own
bound

    W_r = min(until, min over q != r of (peek_q + L))

(L = the *lookahead*, the minimum latency of any link crossing a shard
boundary; ``peek_q`` = kernel q's earliest queued event after the
injection): the earliest time any *other* kernel could hand r
something.  A kernel with nothing at or before its bound is not
stepped; the others run up to their bound, and a kernel ends its round
right after the event that stages a handoff (:meth:`ShardKernel.stage`,
the one place handoffs are staged).  With one kernel there is no q, so
``W = until``: one round per ``run``.

The protocol rests on one contract — an event executing at ``t`` stages
boundary arrivals strictly after ``t + L`` — and the rule is safe
because of it (the classic conservative-PDES argument, Chandy/Misra/
Bryant, with each peer's earliest event playing CMB's null message):

- a handoff staged at ``t`` by r arrives after ``t + L >= peek_r + L``,
  which is at least the destination's bound: it lands beyond anything
  its destination may run this round (the single check, at routing,
  raises ``conservative window violated`` otherwise);
- a reply to r arrives after ``t + 2L``, and r stopped at ``t``: it
  lands beyond everything r ran;
- any other chain starts at some q != r at or after
  ``min over q != r of peek_q``, so it lands beyond ``W_r``.

Determinism across shard *layouts* (the acceptance bar: ``shards=1``
byte-identical to ``shards=N``) needs more than conservative bounds —
equal-time events that land in one kernel under one layout may land in
different kernels under another, so FIFO insertion order is not
portable.  Shard kernels therefore *insert* equal-time events in **key
order** into the plain kernel's bucket queue (the one drain loop,
:class:`~repro.sim.core.Simulator`'s, then runs them front to back),
where an event's key ``(sched_time, origin, seq)`` is derived from its
*logical* cause, not from arrival order:

- ``origin`` names the causal domain: ``(0, j)`` for replicated control
  actions (fault scripts), ``(1, rank)`` for everything a host does,
  ``(2, rank, n)`` for the hop chain of the n-th packet sent by host
  ``rank``.
- events scheduled while an event executes inherit the current origin
  and take the next per-origin ``seq``; packet hop chains use the hop
  index explicitly so both sides of a shard boundary agree.

Host-origin events always execute in the host's home kernel, so
per-origin counters advance identically in every layout; cross-shard
hop arrivals are injected with the exact key the hop would have had if
sender and receiver shared a kernel.  Span ids and packet ids are
minted from the same origins, which is what lets per-shard traces and
metrics merge into byte-identical reports (:mod:`repro.obs.merge`).

The protocol is written once, as two pieces every executor calls:
:meth:`ShardedSimulator.run_window` (the step of one round) and
:meth:`WindowGrants.advance` (the grant rule, the single check, the
routing).  In-process stepping (:meth:`ShardedSimulator.run`) is the
default executor and the determinism reference; handoffs pass through
it by reference, as every packet does under ``shards=1``.
:mod:`repro.sim.shard_mp` sends the same step to worker processes,
whose pipes pickle the handoffs.
"""

from __future__ import annotations

import heapq
import os
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .core import SimulationError, Simulator, _ScheduledCall

__all__ = [
    "CONTROL_ORIGIN",
    "Handoff",
    "ShardKernel",
    "ShardedSimulator",
    "SPAN_STRIDE",
    "WindowGrants",
    "deliver_handoff",
    "host_origin",
    "packet_origin",
    "sanitize_enabled",
]

#: ambient origin outside any event (build-time scheduling)
CONTROL_ORIGIN = (0,)
#: span-id stride: ids are ``origin_code * SPAN_STRIDE + per-origin seq``
SPAN_STRIDE = 1 << 40
_INF = float("inf")


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for the sanitizer (truthy value)."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def host_origin(rank: int) -> tuple:
    """Origin tuple for host ``rank`` (0-based cluster index)."""
    return (1, rank + 1)


def packet_origin(sender_rank: int, seq: int) -> tuple:
    """Origin tuple for the hop chain of one packet."""
    return (2, sender_rank + 1, seq)


def _origin_span_code(origin: tuple) -> int:
    if origin[0] == 0:
        return 0
    if origin[0] == 1:
        return origin[1]
    raise SimulationError(
        f"cannot mint a span id under packet-chain origin {origin}; "
        "spans must be started under a host or control origin (deliveries "
        "re-root to the destination host before dispatching handlers)"
    )


class _KeyedCall(_ScheduledCall):
    """A scheduled call carrying its layout-invariant ordering key."""

    __slots__ = ("key",)


def _call_key(call: _KeyedCall) -> tuple:
    return call.key


class _OriginScope:
    """Context manager installing an origin on a kernel."""

    __slots__ = ("_kernel", "_origin", "_prev")

    def __init__(self, kernel: "ShardKernel", origin: tuple):
        self._kernel = kernel
        self._origin = origin
        self._prev: tuple = CONTROL_ORIGIN

    def __enter__(self) -> tuple:
        self._prev = self._kernel._cur_origin
        self._kernel._cur_origin = self._origin
        return self._origin

    def __exit__(self, *exc) -> None:
        self._kernel._cur_origin = self._prev


@dataclass(frozen=True, slots=True)
class Handoff:
    """One cross-shard message, staged for the next round.

    In-process the payload is passed by reference, exactly as a packet
    continues hop to hop under ``shards=1`` (the determinism
    reference), so ``shards=N`` has the same value semantics; only the
    multiprocessing executor's pipes copy it, by pickling.
    """

    dest: int  # destination shard rank
    time: float  # arrival (checked against the destination's bound)
    payload: Any  # decoded by the dest shard's ``on_inject`` handler


def deliver_handoff(kernel: "ShardKernel", h: Handoff) -> None:
    """Inject one handoff into its destination kernel.

    The single injection point, called only by the step of a round
    (:meth:`ShardedSimulator.run_window`), in the process that owns
    the destination shard: the coordinator routes handoffs without
    opening them.
    """
    if kernel.on_inject is None:
        raise SimulationError(f"shard {h.dest} has no injection handler")
    hb = kernel._hb
    if hb is not None:
        hb.on_inject(kernel.rank, h.time)
    kernel.on_inject(h.payload)


class ShardKernel(Simulator):
    """One shard's event kernel: a :class:`Simulator` with keyed insertion.

    Equal-time events are queued in ``(sched_time, origin, seq)`` order
    instead of arrival order, making the schedule a pure function of the
    event keys — identical whichever kernel each event happens to live
    in.  Only insertion differs from the base class: the queue keeps the
    plain kernel's representation (a heap of bare float timestamps, one
    bare-call-or-deque bucket each), so ``peek`` / ``step`` / ``run`` /
    ``run_events`` / ``_compact`` and the fused timeout-resume fast path
    in :class:`Timeout` are the inherited ones, and every keyed callback
    is wrapped in :meth:`_enter`, which installs its origin.
    """

    _EXACT_OBS = True

    #: ambient origin before __init__ completes
    _cur_origin: tuple = CONTROL_ORIGIN

    #: happens-before monitor (:class:`repro.analysis.hb.HbMonitor`).
    #: None by default — a class attribute, so the un-sanitized hot path
    #: pays one attribute load and a None check per schedule and nothing
    #: per executed event (the instrumented run loop is a separate
    #: method, entered only when a monitor is installed).
    _hb = None

    def __init__(self, seed: int = 0, rank: int = 0, shards: int = 1):
        self._cur_origin = CONTROL_ORIGIN
        self._origin_seq: dict[tuple, int] = {}
        self._span_seq: dict[tuple, int] = {}
        self.rank = rank
        self.shards = shards
        #: cross-shard handoffs staged during the current round
        self.outbox: list[Handoff] = []
        #: injection handler installed by the shard's network layer
        self.on_inject: Optional[Callable[[Any], None]] = None
        super().__init__(seed)

    def stage(self, h: Handoff) -> None:
        """Stage a cross-shard handoff and end this kernel's round.

        The one place handoffs are staged: the kernel stops right after
        the event executing now, so nothing it runs later in the round
        can precede a reply to ``h`` (the stop-at-first-crossing half of
        the grant rule, see the module docstring).
        """
        hb = self._hb
        if hb is not None:
            hb.on_stage(self.rank, h.dest, h.time)
        self.outbox.append(h)
        self._stopped = True

    # -- origins -------------------------------------------------------

    def origin(self, origin: tuple) -> _OriginScope:
        """Scope making ``origin`` the ambient origin (build-time or
        delivery re-rooting)."""
        return _OriginScope(self, origin)

    def mint_span_id(self) -> int:
        """Layout-invariant span id for the current origin (installed as
        the tracer's ``id_fn``)."""
        origin = self._cur_origin
        code = _origin_span_code(origin)
        seq = self._span_seq.get(origin, 0)
        self._span_seq[origin] = seq + 1
        return code * SPAN_STRIDE + seq

    def mint_origin_seq(self, origin: tuple) -> int:
        """Next per-origin sequence number (packet ids use this)."""
        seq = self._origin_seq.get(origin, 0)
        self._origin_seq[origin] = seq + 1
        return seq

    # -- keyed scheduling ----------------------------------------------

    def _insert(self, t: float, key: tuple, fn: Callable, args: tuple) -> _KeyedCall:
        hb = self._hb
        if hb is not None:
            # The single choke point every schedule funnels through
            # (_schedule_call, schedule_keyed, and therefore barrier
            # injection) — checking here rather than in the coordinator
            # means a subclass replacing the grant/route loop cannot
            # bypass the sanitizer.
            hb.on_insert(self.rank, t, key)
        call = _KeyedCall(self, t, self._enter, (key[1], fn, args))
        call.key = key
        # The plain kernel's bucket representation (bare call, promoted
        # to a deque on the first collision) filled in key order instead
        # of arrival order, so the base class's drain loops serve both.
        buckets = self._buckets
        b = buckets.get(t)
        if b is None:
            buckets[t] = call
            heapq.heappush(self._times, t)
        elif type(b) is deque:
            insort(b, call, key=_call_key)
        else:
            buckets[t] = deque((call, b) if key < b.key else (b, call))
        self._n_queued += 1
        return call

    def _enter(self, origin: tuple, fn: Callable, args: tuple) -> None:
        """Run one keyed callback under its origin (what the event loop
        calls; ``fn(*args)`` is what was scheduled)."""
        # Control-origin events are executor machinery: replicated
        # scripts run once per *replica*, so counting them would make
        # the merged event total depend on the shard layout.  The drain
        # loop counts every dispatch; take this one back.
        if origin[0] == 0:
            self._n_events -= 1
        ambient = self._cur_origin
        self._cur_origin = origin
        try:
            fn(*args)
        finally:
            self._cur_origin = ambient

    def _schedule_call(self, delay: float, fn: Callable, args: tuple) -> _KeyedCall:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        origin = self._cur_origin
        seq = self._origin_seq.get(origin, 0)
        self._origin_seq[origin] = seq + 1
        return self._insert(self._now + delay, (self._now, origin, seq), fn, args)

    def schedule_keyed(
        self,
        time: float,
        origin: tuple,
        seq: int,
        fn: Callable,
        *args: Any,
        sched_time: Optional[float] = None,
    ) -> _KeyedCall:
        """Schedule with an explicit key.

        Used where the key must be identical across shard layouts
        regardless of which kernel runs the scheduling code: replicated
        control scripts (same key in every kernel) and packet hop
        chains (the receiving shard reconstructs the key the sender
        would have used locally via ``sched_time`` = hop start).
        """
        if time < self._now - 1e-12:
            raise SimulationError(
                f"keyed event at t={time} is in the past (now={self._now})"
            )
        key = (self._now if sched_time is None else sched_time, origin, seq)
        return self._insert(time, key, fn, args)

    def _run_sanitized(self, until: Optional[float]) -> float:
        """Instrumented drive: step() with happens-before hooks.

        Only entered when a monitor is installed, so the inherited
        ``run`` loop stays untouched (and cost-free) in normal runs.
        """
        hb = self._hb
        hb.on_run_enter(self.rank, until)
        self._stopped = False
        bound = float("inf") if until is None else until
        try:
            while True:
                t = self.peek()
                if t > bound:
                    break
                hb.on_execute(self.rank, t)
                if not self.step():
                    break
                if self._stopped:
                    break
            if not self._stopped and until is not None and self._now < until:
                self._now = until
        finally:
            hb.on_run_exit(self.rank, self._now)
        return self._now

    def run(self, until: Optional[float] = None) -> float:
        if self._hb is not None:
            return self._run_sanitized(until)
        return super().run(until)


class WindowGrants:
    """Coordinator half of the round protocol: grant, step, route.

    Holds what the last round left behind: the time through which every
    kernel has settled, each kernel's earliest queued event (one entry
    per shard rank, in rank order) and the routed handoffs not yet
    injected, one list per stepping *group* (all kernels in-process, one
    worker's ranks under :mod:`repro.sim.shard_mp`).
    """

    def __init__(self, lookahead: Optional[float], owner: list, peeks: list):
        #: one kernel has no boundary, so nothing ever crosses and its
        #: lookahead is unbounded: its bound is simply ``until``
        self.lookahead = _INF if lookahead is None else lookahead
        self.owner = owner  # shard rank -> group that steps it
        self.clock = 0.0
        self.peeks = peeks
        self.inbox: list[list[Handoff]] = [[] for _ in range(max(owner) + 1)]

    def bounds(self, until: float) -> list:
        """Each kernel's bound for the next round: ``min(until, min over
        q != r of (peek_q + L))``, with the pending handoffs counted as
        the events they become at injection."""
        peeks = list(self.peeks)
        for group in self.inbox:
            for h in group:
                if h.time < peeks[h.dest]:
                    peeks[h.dest] = h.time
        first = min(peeks)
        r_first = peeks.index(first)
        second = min(peeks[:r_first] + peeks[r_first + 1:], default=_INF)
        la = self.lookahead
        return [
            min(until, (second if r == r_first else first) + la)
            for r in range(len(peeks))
        ]

    def advance(self, step: Callable, until: float) -> float:
        """Run one round: grant the bounds, have ``step`` run it, route
        what it staged.  Returns the settled clock, which reaches
        ``until`` once nothing at or before it is left anywhere.

        ``step(bounds, inbox)`` injects ``inbox[g]`` into group *g*,
        runs the group's kernels to their bounds and returns one
        ``(staged, peeks)`` pair per group (``peeks`` in rank order).
        Handoffs are routed unopened and wait in the inbox for the next
        round — also across ``run()`` calls.
        """
        bounds = self.bounds(until)
        replies = step(bounds, self.inbox)
        self.peeks = [p for _, peeks in replies for p in peeks]
        self.inbox = inbox = [[] for _ in replies]
        frontier = min(self.peeks)
        for staged, _ in replies:
            for h in staged:
                if len(self.owner) == 1:
                    raise SimulationError("cross-shard handoff staged with shards=1")
                if h.time <= bounds[h.dest]:
                    raise SimulationError(
                        f"conservative window violated: handoff arriving at "
                        f"t={h.time} inside the window ending at {bounds[h.dest]} "
                        "(lookahead exceeds the actual boundary latency)"
                    )
                inbox[self.owner[h.dest]].append(h)
                if h.time < frontier:
                    frontier = h.time
        if frontier > until:
            self.clock = until
        return self.clock


class ShardedSimulator:
    """N shard kernels advanced in rounds, in one process.

    The in-process executor of the round protocol (one stepping group
    holding every kernel) and the determinism reference; the workers of
    :mod:`repro.sim.shard_mp` call :meth:`run_window` over their ranks.

    Parameters
    ----------
    seed:
        Master seed, shared by every kernel: named RNG streams are
        derived by SHA-256 from (seed, name), so the same stream name
        yields the same sequence in whichever kernel uses it.
    shards:
        Number of kernels.  ``shards=1`` is the same protocol with
        nothing to exchange: each ``run`` is one round (the reference
        the golden tests compare multi-shard runs against).
    lookahead:
        The minimum latency of any boundary link, from the topology
        partitioner: how far past a peer's earliest event a kernel may
        run.  Must be > 0 when ``shards > 1``; ``None`` (no boundary)
        means unbounded.
    """

    def __init__(
        self, seed: int = 0, shards: int = 1, lookahead: Optional[float] = None
    ):
        if shards < 1:
            raise SimulationError(f"shards must be >= 1, got {shards}")
        if shards > 1 and (lookahead is None or lookahead <= 0.0):
            raise SimulationError(
                f"a multi-shard simulation needs positive lookahead, got {lookahead}"
            )
        self.seed = seed
        self.shards = shards
        self.lookahead = lookahead
        self.kernels = [ShardKernel(seed, rank=r, shards=shards) for r in range(shards)]
        self._grants = WindowGrants(lookahead, [0] * shards, [_INF] * shards)
        self._script_seq = 0
        self.tracers: list = []
        #: happens-before monitor; installed by REPRO_SANITIZE=1 or
        #: repro.analysis.hb.install_sanitizer (None in normal runs)
        self._hb = None
        if sanitize_enabled():  # the monitor's package loads only when asked for
            from ..analysis.hb import install_sanitizer

            install_sanitizer(self)

    @property
    def now(self) -> float:
        """Barrier-synchronized cluster time."""
        return self._grants.clock

    # -- observability --------------------------------------------------

    def install_tracer(self, max_spans: int = 1_000_000) -> list:
        """Attach one tracer per kernel, sharing open-span tables.

        Sharing ``_open``/``_by_id`` lets a protocol close (by id) a
        span that was minted by a peer host living in another shard —
        in-process all kernels share one interpreter, and the close
        happens at the in-order delivery event, whose time is
        layout-invariant.  The multiprocessing executor refuses tracers.
        """
        if self.tracers:
            return self.tracers
        shared_open: dict = {}
        shared_by_id: dict = {}
        for k in self.kernels:
            t = k.obs.install_tracer(max_spans=max_spans)
            t.id_fn = k.mint_span_id
            t.shard = k.rank
            t._open = shared_open
            t._by_id = shared_by_id
            self.tracers.append(t)
        return self.tracers

    def span_snapshot(self) -> dict:
        """Merged, layout-invariant span snapshot."""
        from ..obs.merge import merge_span_snapshots

        return merge_span_snapshots([t.snapshot() for t in self.tracers])

    def merged_observability(self) -> tuple[dict, dict]:
        """(merged metrics snapshot, merged event counts)."""
        from ..obs.merge import merge_event_counts, merge_metric_snapshots

        return (
            merge_metric_snapshots([k.obs.metrics.snapshot() for k in self.kernels]),
            merge_event_counts([k.obs.bus.topic_counts() for k in self.kernels]),
        )

    # -- control scripting ----------------------------------------------

    def control_each(self, time: float, make_call: Callable) -> int:
        """Schedule one replicated control action in every kernel.

        ``make_call(kernel)`` returns ``(fn, args)`` bound to that
        kernel's replica objects.  Every replica gets the *same* key
        ``(0.0, (0, j), 0)``, so control actions execute at identical
        points in every kernel's schedule regardless of layout; the
        ``sched_time=0.0`` component orders them ahead of any runtime
        event sharing their timestamp.  Returns the script index ``j``.
        """
        seq = self._script_seq
        self._script_seq += 1
        for k in self.kernels:
            fn, args = make_call(k)
            k.schedule_keyed(time, (0, seq), 0, fn, *args, sched_time=0.0)
        return seq

    def control_at(self, time: float, rank: int, fn: Callable, *args: Any) -> int:
        """Schedule one scripted action in the kernel owning its target.

        Unlike :meth:`control_each` this does *not* replicate — it is
        for actions that belong to one shard (e.g. starting a storage
        workload process on a host that shard owns).  The script
        sequence counter is shared with :meth:`control_each`, so keys
        stay globally unique and identical across layouts as long as
        scripts are registered in the same program order.
        """
        seq = self._script_seq
        self._script_seq += 1
        self.kernels[rank].schedule_keyed(time, (0, seq), 0, fn, *args, sched_time=0.0)
        return seq

    # -- execution -------------------------------------------------------

    def total_events(self) -> int:
        """Events executed so far, summed over every kernel.

        Reads the kernels' plain counters (no registry flush), so the
        control plane can poll it between rounds at no cost.
        """
        return sum(k._n_events for k in self.kernels)

    def peeks(self, ranks) -> list:
        """Earliest queued event of each kernel in ``ranks``."""
        return [self.kernels[r].peek() for r in ranks]

    def run_window(
        self, ranks, bounds: list, handoffs: list, drive: Callable = ShardKernel.run
    ) -> tuple[list, list]:
        """The step of one round over the kernels in ``ranks``.

        Injects the handoffs routed at the end of the last round, drives
        each kernel with something at or before its bound up to it (a
        kernel stops early after the event that stages a handoff), and
        returns ``(staged handoffs, peeks of ranks)``.  ``bounds`` holds
        every shard's bound, so the monitor can check each staged
        handoff against its destination's.
        """
        hb = self._hb
        kernels = self.kernels
        for h in handoffs:
            deliver_handoff(kernels[h.dest], h)
        if hb is not None:
            hb.on_round(bounds)
        staged: list[Handoff] = []
        for r in ranks:
            k = kernels[r]
            w = bounds[r]
            if k.peek() <= w:
                drive(k, w)
                staged += k.outbox
                k.outbox.clear()
        if hb is not None:
            hb.on_barrier()
        return staged, self.peeks(ranks)

    def _advance_window(self, until: float, drive: Callable = ShardKernel.run) -> float:
        """Run one round bounded by ``until`` and route its handoffs.

        Returns the settled clock.  Round boundaries are *not* part of
        the deterministic contract: every partition of the same horizon
        executes the identical keyed schedule, because handoffs always
        land beyond everything their destination ran and are injected
        with layout-invariant keys (see the module docstring) — which is
        what lets the control plane pause at arbitrary times.
        """
        ranks = range(self.shards)
        return self._grants.advance(
            lambda bounds, inbox: [self.run_window(ranks, bounds, inbox[0], drive)],
            until,
        )

    def _resume(self, until: float) -> None:
        """Leave the idle phase: anything may have been scheduled since
        the last round, so the peeks are re-read from the kernels."""
        if until < self.now:
            raise SimulationError(
                f"cannot run backwards: until={until} < now={self.now}"
            )
        self._grants.peeks = self.peeks(range(self.shards))
        if self._hb is not None:
            self._hb.on_barrier()

    def _settle(self, until: float) -> None:
        """Run rounds until nothing at or before ``until`` is left, then
        move every kernel's clock to ``until`` (a kernel that sat out
        the last rounds is behind it), so the cluster pauses at one
        instant."""
        while self._advance_window(until) < until:
            pass
        for k in self.kernels:
            k.run(until)

    def run(self, until: float) -> float:
        """Advance all shards to ``until`` in rounds."""
        self._resume(until)
        self._settle(until)
        if self._hb is not None:
            self._hb.on_idle()
        return until

    def run_events(self, n: int, until: float) -> int:
        """Advance until at least ``n`` more events ran (bounded by
        ``until``); the run-to-event-count stepping mode.

        A single kernel steps with event granularity
        (:meth:`Simulator.run_events`) and may stop mid-round; a
        multi-shard simulation only observes event counts between
        rounds, so it settles one lookahead at a time — ``clock + L``
        is passed as ``until``, the finest stepping the protocol has —
        until the count is reached.  Returns the number of events
        actually executed.
        """
        start = self.total_events()
        self._resume(until)
        if self.shards == 1:
            self._advance_window(until, lambda k, w: k.run_events(n, until=w))
            self._grants.clock = self.kernels[0].now  # it may have stopped mid-round
        else:
            while self.now < until and self.total_events() - start < n:
                self._settle(min(until, self.now + self.lookahead))
        if self._hb is not None:
            self._hb.on_idle()
        return self.total_events() - start
