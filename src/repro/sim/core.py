"""Discrete-event simulation kernel.

The RAIN paper's testbed is a physical cluster; this kernel replaces it
with a deterministic discrete-event simulator so that protocol behaviour
(message orderings, timeouts, faults) can be reproduced and explored
exhaustively.  The design follows the usual DES pattern: a priority queue
of timestamped events, plus generator-coroutine *processes* in the style
of SimPy, so protocol code reads sequentially::

    def client(sim, q):
        yield sim.timeout(1.0)
        item = yield q.get()
        ...

    sim = Simulator(seed=42)
    sim.process(client(sim, q))
    sim.run(until=100.0)

Only simulated time exists here; nothing in this package touches wall
clocks, threads, or real sockets.

Hot-path notes (see docs/architecture.md, "Performance"): every class a
simulation allocates per event carries ``__slots__``; :meth:`Simulator.run`
drains the heap with a single pop per event; cancelled entries are
compacted lazily once they dominate the heap; and the dominant
``yield sim.timeout(d)`` pattern resumes the process directly from the
timeout's own event when no other event shares the timestamp — skipping
the intermediate callback hop without changing the observable order.
Kernel counters are plain ints, flushed into the metrics registry only
when a snapshot or query asks for them.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Waitable",
    "Signal",
    "Timeout",
    "Ticker",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early."""


class Interrupt(Exception):
    """Raised inside a process that has been interrupted.

    ``cause`` carries the value passed to :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _ScheduledCall:
    """A cancellable callback scheduled on the event queue.

    ``cancelled`` doubles as a *consumed* flag: the event loop marks a
    call just before executing it, so ``cancel()`` after the fact is an
    idempotent no-op and never skews the lazy-compaction bookkeeping.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(self, sim: "Simulator", time: float, fn: Callable, args: tuple):
        self._sim = sim
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            self._sim._note_cancel()


class Waitable:
    """Base class for anything a process may ``yield``.

    A waitable is *triggered* at most once, either successfully (with a
    value) or with an exception.  Callbacks added after triggering run
    immediately at the current simulation time.
    """

    __slots__ = ("sim", "_done", "_ok", "_value", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._done = False
        self._ok = True
        self._value: Any = None
        self._callbacks: list[Callable[["Waitable"], None]] = []

    @property
    def triggered(self) -> bool:
        """Whether the waitable has fired (successfully or not)."""
        return self._done

    @property
    def value(self) -> Any:
        """The success value (or exception) this waitable fired with."""
        if not self._done:
            raise SimulationError("waitable has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Waitable":
        """Trigger successfully with ``value``; wakes all waiters."""
        if self._done:
            raise SimulationError("waitable already triggered")
        self._done = True
        self._ok = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exc: BaseException) -> "Waitable":
        """Trigger with exception ``exc``; waiters receive it as a throw."""
        if self._done:
            raise SimulationError("waitable already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._done = True
        self._ok = False
        self._value = exc
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self.sim._schedule_call(0.0, cb, (self,))

    def add_callback(self, cb: Callable[["Waitable"], None]) -> None:
        """Run ``cb(self)`` once this waitable triggers."""
        if self._done:
            self.sim._schedule_call(0.0, cb, (self,))
        else:
            self._callbacks.append(cb)

    def discard_callback(self, cb: Callable[["Waitable"], None]) -> None:
        """Remove a pending callback if present."""
        try:
            self._callbacks.remove(cb)
        except ValueError:
            pass


class Signal(Waitable):
    """A one-shot event that application code triggers explicitly."""

    __slots__ = ()


class Timeout(Waitable):
    """A waitable that fires after a fixed simulated delay.

    When a single process waits on a timeout (the dominant kernel
    pattern), the process is linked through ``_proc`` instead of a
    callback; :meth:`_fire` then resumes it directly — in the same heap
    pop — whenever no other event shares the current timestamp, falling
    back to an ordinary scheduled resume otherwise so the observable
    event order is identical either way.
    """

    __slots__ = ("delay", "_call", "_proc")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._proc: Optional["Process"] = None
        self._call = sim._schedule_call(delay, self._fire, (value,))

    def _fire(self, value: Any) -> None:
        if self._done:
            return
        proc = self._proc
        if proc is not None:
            self._proc = None
            if not self._callbacks:
                sim = self.sim
                self._done = True
                self._ok = True
                self._value = value
                times = sim._times
                if not times or times[0] > sim._now:
                    # No other event at this instant can observe the
                    # intermediate hop: resume the process here.  Count
                    # the elided resume event so metrics are unchanged.
                    sim._n_events += 1
                    proc._on_fired(self)
                else:
                    sim._schedule_call(0.0, proc._on_fired, (self,))
                return
            # A second waiter subscribed after the process: restore the
            # plain callback path, preserving registration order.
            self._callbacks.insert(0, proc._on_fired)
        self.succeed(value)

    def add_callback(self, cb: Callable[["Waitable"], None]) -> None:
        if self._proc is not None:
            # Demote the fast link so dispatch order stays registration
            # order (the linked process subscribed first).
            self._callbacks.append(self._proc._on_fired)
            self._proc = None
        super().add_callback(cb)

    def cancel(self) -> None:
        """Cancel the pending timeout; it will never fire."""
        self._call.cancel()


class AnyOf(Waitable):
    """Fires when the first of several waitables fires.

    The value is the waitable that fired first.  Failures propagate.
    """

    __slots__ = ("waitables",)

    def __init__(self, sim: "Simulator", waitables: Iterable[Waitable]):
        super().__init__(sim)
        self.waitables = list(waitables)
        if not self.waitables:
            raise SimulationError("AnyOf requires at least one waitable")
        for w in self.waitables:
            w.add_callback(self._on_child)

    def _on_child(self, child: Waitable) -> None:
        if self._done:
            return
        if child._ok:
            self.succeed(child)
        else:
            self.fail(child._value)
        # Detach from the losers so they do not keep this AnyOf alive and
        # do not schedule a dead callback if they fire later.
        for w in self.waitables:
            if w is not child and not w._done:
                w.discard_callback(self._on_child)


class AllOf(Waitable):
    """Fires when every given waitable has fired.

    The value is the list of child values in the original order.
    """

    __slots__ = ("waitables", "_remaining")

    def __init__(self, sim: "Simulator", waitables: Iterable[Waitable]):
        super().__init__(sim)
        self.waitables = list(waitables)
        self._remaining = len(self.waitables)
        if self._remaining == 0:
            sim._schedule_call(0.0, self._finish, ())
        for w in self.waitables:
            w.add_callback(self._on_child)

    def _finish(self) -> None:
        if not self._done:
            self.succeed([w._value for w in self.waitables])

    def _on_child(self, child: Waitable) -> None:
        if self._done:
            return
        if not child._ok:
            self.fail(child._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._finish()


class Process(Waitable):
    """A generator-coroutine driven by the simulator.

    The generator yields :class:`Waitable` objects; the process resumes
    (with the waitable's value sent in) when each fires.  The process
    itself is a waitable that triggers with the generator's return value,
    so processes can wait on each other.
    """

    __slots__ = ("gen", "name", "ctx", "_waiting_on", "_wait_since", "_defused")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator,
        name: Optional[str] = None,
        ctx: Any = None,
    ):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"process target must be a generator, got {type(gen).__name__}"
            )
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        #: Optional causal SpanContext carried by this process: when set
        #: (and a tracer is installed) every resumption of the generator
        #: runs with it activated, so spans started inside parent to it.
        self.ctx = ctx
        self._waiting_on: Optional[Waitable] = None
        self._wait_since = 0.0
        self._defused = False
        sim._n_processes += 1
        sim._schedule_call(0.0, self._step, (None, None))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._done

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is waiting detaches it from its wait target (the
        target may still fire later, the process just no longer cares).
        """
        if self._done:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        self.sim._schedule_call(0.0, self._deliver_interrupt, (Interrupt(cause),))

    def _deliver_interrupt(self, exc: Interrupt) -> None:
        if self._done:
            return  # finished in the meantime; interrupt is moot
        w = self._waiting_on
        if w is not None:
            if type(w) is Timeout and w._proc is self:
                w._proc = None
            else:
                w.discard_callback(self._on_fired)
            self._waiting_on = None
        self._step(None, exc)

    def _on_fired(self, target: Waitable) -> None:
        if self._done or self._waiting_on is not target:
            return
        self._waiting_on = None
        sim = self.sim
        sim._wait.observe(sim._now - self._wait_since)
        if target._ok:
            self._step(target._value, None)
        else:
            self._step(None, target._value)

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        # Causal-context prologue: almost always self.ctx is None (one
        # slot load + None check); a carried context is pushed onto the
        # tracer's activation stack for the duration of the resumption.
        tstack = None
        if self.ctx is not None:
            tracer = self.sim.obs.tracer
            if tracer is not None:
                tstack = tracer._stack
                tstack.append(self.ctx)
        try:
            try:
                if throw_exc is not None:
                    target = self.gen.throw(throw_exc)
                else:
                    target = self.gen.send(send_value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate to waiters
                if isinstance(exc, StopSimulation):
                    raise
                self._done = True
                self._ok = False
                self._value = exc
                if self._callbacks:
                    self._dispatch()
                else:
                    # No one is waiting on this process: crash the simulation
                    # so bugs are loud rather than silently swallowed.
                    raise
                return
            self._waiting_on = target
            self._wait_since = self.sim._now
            if type(target) is Timeout:
                if target._proc is None and not target._done and not target._callbacks:
                    target._proc = self
                else:
                    target.add_callback(self._on_fired)
                return
            if not isinstance(target, Waitable):
                self._waiting_on = None
                self.gen.close()
                raise SimulationError(
                    f"process {self.name} yielded {target!r}, not a Waitable"
                )
            target.add_callback(self._on_fired)
        finally:
            if tstack is not None:
                tstack.pop()


class Ticker:
    """A periodic callback the kernel counts as the process it replaces.

    ``fn()`` runs at launch and then every ``period`` seconds, exactly as
    a ``while True: fn(); yield sim.timeout(period)`` process would: one
    ``sim.kernel.processes`` launch, one event and one
    ``sim.process.wait_time`` sample per tick, and the same event order
    (each tick resumes in its own heap pop unless another event shares
    the instant, then queues the resume behind it, as
    :meth:`Timeout._fire` does) — without a generator, a
    :class:`Timeout` or a :class:`Process` per tick.  :meth:`stop`
    schedules a zero-delay halt; the pending tick still fires, as a
    no-op, like the timeout of an interrupted process.
    """

    __slots__ = ("sim", "period", "fn", "halted", "_since")

    def __init__(self, sim: "Simulator", period: float, fn: Callable[[], None]):
        self.sim = sim
        self.period = period
        self.fn = fn
        self.halted = False
        self._since = 0.0
        sim._n_processes += 1
        sim._schedule_call(0.0, self._run, ())

    def _run(self) -> None:
        self.fn()
        sim = self.sim
        self._since = sim._now
        sim._schedule_call(self.period, self._fire, ())

    def _fire(self) -> None:
        if self.halted:
            return
        sim = self.sim
        times = sim._times
        if not times or times[0] > sim._now:
            sim._n_events += 1  # the elided resume, as in Timeout._fire
            self._resume()
        else:
            sim._schedule_call(0.0, self._resume, ())

    def _resume(self) -> None:
        if self.halted:
            return
        sim = self.sim
        sim._wait.observe(sim._now - self._since)
        self._run()

    def stop(self) -> None:
        """Halt after this instant's already-queued events (idempotent)."""
        if not self.halted:
            self.sim._schedule_call(0.0, self._halt, ())

    def _halt(self) -> None:
        self.halted = True


class Simulator:
    """The discrete-event scheduler.

    Parameters
    ----------
    seed:
        Master seed for the per-component RNG streams available through
        :attr:`rng` (see :mod:`repro.sim.rng`).
    """

    #: Cancelled entries tolerated on the heap before compaction is even
    #: considered (compaction itself triggers once they exceed half).
    _COMPACT_MIN = 64

    #: Whether this simulator's metrics registry keeps exact partial
    #: sums.  Plain simulators use ordinary running floats (cheapest and
    #: byte-stable against existing goldens); shard kernels flip this so
    #: per-shard observations merge independently of interleaving.
    _EXACT_OBS = False

    def __init__(self, seed: int = 0):
        from ..obs import Observability
        from ..obs.metrics import DeferredHistogram
        from .rng import RngRegistry  # local import to avoid cycle

        self._now = 0.0
        # The event queue is a heap of *distinct* timestamps plus a FIFO
        # bucket per timestamp (a bare _ScheduledCall, promoted to a
        # deque on the first collision).  Equal-time events run in
        # insertion order — exactly the order a (time, seq) tuple heap
        # would give — while heap traffic happens once per distinct
        # instant and compares bare floats instead of tuples.
        self._times: list[float] = []
        self._buckets: dict[float, Any] = {}
        self._n_queued = 0
        self._n_cancelled = 0
        self.rng = RngRegistry(seed)
        self._stopped = False
        #: per-simulation observability hub (metrics registry + event bus)
        self.obs = Observability(lambda: self._now, exact_sums=self._EXACT_OBS)
        self._m_events = self.obs.metrics.counter(
            "sim.kernel.events", help="callbacks dispatched by the event loop"
        ).labels()
        self._m_processes = self.obs.metrics.counter(
            "sim.kernel.processes", help="processes launched"
        ).labels()
        # Kernel hot counters: plain ints (and one deferred histogram)
        # on the hot path, pushed into the registry series only when a
        # snapshot/query runs.
        self._n_events = 0
        self._n_processes = 0
        self._wait = DeferredHistogram(
            self.obs.metrics.histogram(
                "sim.process.wait_time",
                help="simulated seconds a process waited before each resumption",
            ).labels()
        )
        self.obs.add_flush_hook(self._flush_kernel_metrics)

    # -- time ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- metrics ------------------------------------------------------

    def credit_events(self, n: int) -> None:
        """Credit ``n`` elided callbacks to the kernel event counter.

        The network's batched route moves a whole window per hop in one
        callback, where scalar sends would have dispatched ``n`` more;
        crediting keeps the ``sim.kernel.events`` metric counting
        *logical* events, the same count either way.
        """
        self._n_events += n

    def _flush_kernel_metrics(self) -> None:
        self._m_events.value = float(self._n_events)
        self._m_processes.value = float(self._n_processes)
        self._wait.flush()

    # -- scheduling primitives ----------------------------------------

    def _schedule_call(self, delay: float, fn: Callable, args: tuple) -> _ScheduledCall:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        t = self._now + delay
        call = _ScheduledCall(self, t, fn, args)
        buckets = self._buckets
        b = buckets.get(t)
        if b is None:
            buckets[t] = call
            heapq.heappush(self._times, t)
        elif type(b) is deque:
            b.append(call)
        else:
            buckets[t] = deque((b, call))
        self._n_queued += 1
        return call

    def _note_cancel(self) -> None:
        n = self._n_cancelled + 1
        self._n_cancelled = n
        if n > self._COMPACT_MIN and 2 * n > self._n_queued:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the time heap.

        Buckets keep their insertion order, so FIFO order among
        equal-time events survives compaction.  Both containers are
        updated in place so a running drain loop sees the result.
        """
        buckets = self._buckets
        dead: list[float] = []
        live = 0
        for t, b in buckets.items():
            if type(b) is deque:
                kept = [c for c in b if not c.cancelled]
                if kept:
                    b.clear()
                    b.extend(kept)
                    live += len(kept)
                else:
                    dead.append(t)
            elif b.cancelled:
                dead.append(t)
            else:
                live += 1
        for t in dead:
            del buckets[t]
        times = self._times
        times[:] = buckets.keys()
        heapq.heapify(times)
        self._n_queued = live
        self._n_cancelled = 0

    def call_in(self, delay: float, fn: Callable, *args: Any) -> _ScheduledCall:
        """Schedule ``fn(*args)`` after ``delay`` seconds; returns a handle
        whose ``cancel()`` prevents the call."""
        return self._schedule_call(delay, fn, args)

    def call_at(self, time: float, fn: Callable, *args: Any) -> _ScheduledCall:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        return self._schedule_call(time - self._now, fn, args)

    # -- waitable factories --------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A waitable firing after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def event(self) -> Signal:
        """A fresh untriggered :class:`Signal`."""
        return Signal(self)

    def any_of(self, waitables: Iterable[Waitable]) -> AnyOf:
        """Fires with the first of ``waitables`` to fire."""
        return AnyOf(self, waitables)

    def all_of(self, waitables: Iterable[Waitable]) -> AllOf:
        """Fires when all ``waitables`` have fired."""
        return AllOf(self, waitables)

    def process(
        self, gen: Generator, name: Optional[str] = None, ctx: Any = None
    ) -> Process:
        """Launch ``gen`` as a simulation process.

        ``ctx`` optionally carries a causal :class:`~repro.obs.SpanContext`
        activated around every resumption of the generator.
        """
        return Process(self, gen, name, ctx)

    def ticker(self, period: float, fn: Callable[[], None]) -> Ticker:
        """Run ``fn()`` now and every ``period`` seconds until stopped
        (see :class:`Ticker`)."""
        return Ticker(self, period, fn)

    # -- execution ------------------------------------------------------

    @property
    def n_events(self) -> int:
        """Callbacks dispatched so far (the ``sim.kernel.events`` metric,
        read without forcing a registry flush — the control plane polls
        this between steps)."""
        return self._n_events

    def stop(self) -> None:
        """Halt :meth:`run` after the current callback returns."""
        self._stopped = True

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            b = buckets[t]
            if type(b) is deque:
                while b and b[0].cancelled:
                    b.popleft()
                    self._n_queued -= 1
                    self._n_cancelled -= 1
                if b:
                    return t
                del buckets[t]
                heapq.heappop(times)
            elif b.cancelled:
                del buckets[t]
                heapq.heappop(times)
                self._n_queued -= 1
                self._n_cancelled -= 1
            else:
                return t
        return float("inf")

    def step(self) -> bool:
        """Run a single event; returns False when the queue is empty."""
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            b = buckets[t]
            if type(b) is deque:
                call = b.popleft()
                if not b:
                    del buckets[t]
                    heapq.heappop(times)
            else:
                call = b
                del buckets[t]
                heapq.heappop(times)
            self._n_queued -= 1
            if call.cancelled:
                self._n_cancelled -= 1
                continue
            if t < self._now - 1e-12:
                raise SimulationError("event queue time went backwards")
            if t > self._now:
                self._now = t
            self._n_events += 1
            call.cancelled = True  # consumed; a late cancel() is a no-op
            call.fn(*call.args)
            return True
        return False

    def run_events(self, n: int, until: Optional[float] = None) -> int:
        """Run at most ``n`` events (bounded by ``until`` when given).

        The control plane's run-to-event-count stepping: dispatches up
        to ``n`` callbacks via :meth:`step`, never past ``until``, and
        returns how many actually ran (fewer means the queue drained or
        the bound was reached first).  Unlike :meth:`run` the clock is
        *not* advanced to ``until`` on exhaustion — a subsequent
        bounded :meth:`run` composes exactly as if the events had been
        executed by it directly, which is what keeps driver-stepped
        runs byte-identical to batch runs.
        """
        if n < 0:
            raise SimulationError(f"cannot run a negative event count: {n}")
        bound = float("inf") if until is None else until
        ran = 0
        while ran < n:
            if self.peek() > bound:
                break
            if not self.step():
                break
            ran += 1
        return ran

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Returns the simulation time at exit.  When ``until`` is given the
        clock is advanced to exactly ``until`` even if the last event was
        earlier, so successive bounded runs compose predictably.
        """
        self._stopped = False
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        bound = float("inf") if until is None else until
        n_events = 0
        now = self._now
        try:
            while times:
                t = times[0]
                if t > bound:
                    break
                b = buckets[t]
                if type(b) is deque:
                    call = b.popleft()
                    if not b:
                        del buckets[t]
                        heappop(times)
                else:
                    call = b
                    del buckets[t]
                    heappop(times)
                self._n_queued -= 1
                if call.cancelled:
                    self._n_cancelled -= 1
                    continue
                if t < now - 1e-12:
                    raise SimulationError("event queue time went backwards")
                if t > now:
                    now = t
                    self._now = t
                n_events += 1
                call.cancelled = True  # consumed; a late cancel() is a no-op
                call.fn(*call.args)
                if self._stopped:
                    break
                now = self._now
        finally:
            self._n_events += n_events
        if not self._stopped and until is not None and self._now < until:
            self._now = until
        return self._now

    def run_process(self, gen: Generator, until: Optional[float] = None) -> Any:
        """Convenience: run ``gen`` as a process to completion, return its value.

        The simulation stops as soon as the process finishes (the clock
        does not run on to ``until``), so sequential ``run_process``
        calls compose naturally.  Raises ``TimeoutError`` if the process
        has not finished by ``until`` (when given) or when the event
        queue drains first.
        """
        proc = self.process(gen)
        proc._defused = True
        proc.add_callback(lambda _w: self.stop())
        self.run(until=until)
        if not proc.triggered:
            raise TimeoutError(f"process {proc.name} did not finish by t={self._now}")
        if not proc._ok:
            raise proc._value
        return proc._value
