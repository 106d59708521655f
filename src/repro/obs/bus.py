"""Pub/sub event bus for structured simulation events.

Components ``publish`` timestamped :class:`Event` records under dotted
topics (``membership.node.regen``, ``channel.monitor.transition``);
tests, benchmarks, and other subsystems ``subscribe`` by exact topic or
by prefix (``"membership.*"``).  The bus always counts events per topic
— cheap enough to leave on — but retains event *objects* only for
subscribers, so an unobserved simulation does not accumulate memory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["Event", "EventBus", "EventRing"]


def _prefix_key(pattern: str) -> str:
    """Canonical prefix stored for a wildcard pattern.

    Exactly one trailing ``*`` is stripped, so ``"a.*"`` → ``"a."`` and
    ``"a.**"`` → ``"a.*"``.  Subscribe and unsubscribe must agree on
    this key or removals silently miss and ``_n_subs`` stays inflated,
    defeating the :attr:`EventBus.has_subscribers` short-circuit.
    """
    return pattern[:-1]


@dataclass(frozen=True)
class Event:
    """One timestamped structured event."""

    time: float
    topic: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" {self.data}" if self.data else ""
        return f"[{self.time:12.6f}] {self.topic}{extra}"


class EventBus:
    """Topic-based publish/subscribe with per-topic counting."""

    def __init__(self, time_fn: Callable[[], float]):
        self.time_fn = time_fn
        self._counts: dict[str, int] = {}
        self._exact: dict[str, list[Callable[[Event], None]]] = {}
        self._prefix: list[tuple[str, Callable[[Event], None]]] = []
        self._all: list[Callable[[Event], None]] = []
        self._n_subs = 0
        #: Called before every count read; see ``MetricsRegistry.flush``.
        self.flush: Callable[[], None] = lambda: None

    # -- publishing --------------------------------------------------------

    @property
    def has_subscribers(self) -> bool:
        """True when at least one subscription (of any pattern) is live.

        Hot publishers use this to skip building expensive ``data``
        payloads (rendered messages, copies) for an unobserved bus."""
        return self._n_subs > 0

    def publish(self, topic: str, **data: object) -> Optional[Event]:
        """Emit an event under ``topic``; returns it when anyone listened."""
        counts = self._counts
        counts[topic] = counts.get(topic, 0) + 1
        if not self._n_subs:
            # Fast path: nothing subscribed anywhere — count and bail
            # before constructing the Event or the target list.
            return None
        subs = self._exact.get(topic)
        targets = list(subs) if subs else []
        if self._prefix:
            targets.extend(fn for p, fn in self._prefix if topic.startswith(p))
        targets.extend(self._all)
        if not targets:
            return None
        ev = Event(self.time_fn(), topic, data)
        for fn in targets:
            fn(ev)
        return ev

    def tally(self, topic: str, n: int) -> None:
        """Count ``n`` publishes under ``topic`` that no subscriber could
        have seen (hot publishers defer them while the bus is unobserved
        and push the total from a flush hook)."""
        self._counts[topic] = self._counts.get(topic, 0) + n

    # -- subscribing -------------------------------------------------------

    def subscribe(self, pattern: str, fn: Callable[[Event], None]) -> None:
        """Call ``fn(event)`` for every matching publish.

        ``pattern`` is an exact topic, a prefix wildcard like
        ``"membership.*"`` (matches any topic starting with
        ``"membership."``), or ``"*"`` for everything.
        """
        if pattern == "*":
            self._all.append(fn)
        elif pattern.endswith("*"):
            self._prefix.append((_prefix_key(pattern), fn))
        else:
            self._exact.setdefault(pattern, []).append(fn)
        self._n_subs += 1

    def unsubscribe(self, pattern: str, fn: Callable[[Event], None]) -> None:
        """Remove a subscription added with the same arguments (no-op if
        absent)."""
        try:
            if pattern == "*":
                self._all.remove(fn)
            elif pattern.endswith("*"):
                self._prefix.remove((_prefix_key(pattern), fn))
            else:
                self._exact.get(pattern, []).remove(fn)
        except ValueError:
            return  # nothing removed; subscriber count unchanged
        self._n_subs -= 1

    def record(self, pattern: str = "*") -> list[Event]:
        """Subscribe a fresh list that accumulates matching events.

        The returned list grows as events are published — the idiom for
        tests: ``transitions = bus.record("channel.*")``.
        """
        events: list[Event] = []
        self.subscribe(pattern, events.append)
        return events

    # -- queries -----------------------------------------------------------

    def count(self, topic: str) -> int:
        """How many events have been published under exactly ``topic``."""
        self.flush()
        return self._counts.get(topic, 0)

    def topic_counts(self, prefix: str = "") -> dict[str, int]:
        """Per-topic publish counts (optionally filtered), sorted."""
        self.flush()
        return {
            t: n
            for t, n in sorted(self._counts.items())
            if t.startswith(prefix)
        }

    def subsystems(self) -> tuple[str, ...]:
        """First dotted component of every published topic, sorted.

        Sorted tuple (not a raw set) so callers iterating it into
        reports stay deterministic (rainlint RL004).
        """
        self.flush()
        return tuple(sorted({t.split(".", 1)[0] for t in self._counts}))


class EventRing:
    """A bounded, sequence-numbered tail of bus events for pull consumers.

    The control plane's ``GET /api/events?since=`` endpoint (and anything
    else that polls rather than subscribes) needs the *recent* event
    stream without letting an unread backlog grow with the simulation.
    An ``EventRing`` subscribes to one or more buses and keeps the last
    ``capacity`` matching events in a ring; each event gets a
    monotonically increasing sequence number, so a consumer resumes from
    its cursor with :meth:`since` and can detect gaps via
    :attr:`dropped` (how many events were overwritten before anyone
    read them).

    Multiple buses may share one ring (one per shard kernel in a sharded
    simulation): :meth:`attach` subscribes an additional bus under the
    same sequence counter, tagging each entry with the bus's label.
    """

    def __init__(self, bus=None, pattern: str = "*", capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buf: deque = deque(maxlen=capacity)
        self._next_seq = 0
        self._dropped = 0
        self._subs: list[tuple[EventBus, str, Callable[[Event], None]]] = []
        if bus is not None:
            self.attach(bus, pattern=pattern)

    def attach(self, bus: EventBus, pattern: str = "*", label: Optional[str] = None):
        """Subscribe ``bus`` into this ring (shared sequence counter)."""

        def record(ev: Event, _label=label) -> None:
            if len(self._buf) == self.capacity:
                self._dropped += 1
            self._buf.append((self._next_seq, _label, ev))
            self._next_seq += 1

        bus.subscribe(pattern, record)
        self._subs.append((bus, pattern, record))
        return self

    def close(self) -> None:
        """Unsubscribe from every attached bus."""
        for bus, pattern, fn in self._subs:
            bus.unsubscribe(pattern, fn)
        self._subs.clear()

    # -- queries -----------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next recorded event will get."""
        return self._next_seq

    @property
    def dropped(self) -> int:
        """Events overwritten before being visible to any reader."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._buf)

    def since(self, seq: int = -1) -> list[tuple[int, Optional[str], Event]]:
        """Retained ``(seq, label, event)`` entries with ``seq > seq``.

        ``-1`` (the default) returns the whole retained tail.  Entries
        older than the ring's capacity are gone; callers comparing the
        first returned seq against their cursor + 1 can detect the gap.
        """
        return [entry for entry in self._buf if entry[0] > seq]
