"""Blocking FIFO queues for simulation processes.

The mailbox abstraction protocol processes use to receive packets or
application messages: ``put`` never blocks, ``get`` returns a waitable
that fires when an item is available.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .core import Simulator, Waitable

__all__ = ["Mailbox", "QueueClosed"]


class QueueClosed(Exception):
    """Raised to getters when a mailbox is closed and drained."""


class _Get(Waitable):
    pass


class Mailbox:
    """Unbounded FIFO with waitable ``get`` and optional capacity drop.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        When given, ``put`` on a full mailbox drops the item and returns
        False (models a bounded receive buffer).
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        self.sim = sim
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[_Get] = deque()
        self._closed = False
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> bool:
        """Deposit ``item``; wake one waiting getter.

        Returns False (and counts a drop) if the mailbox is bounded and
        full, or has been closed.
        """
        if self._closed:
            self.dropped += 1
            return False
        # Skip getters that already fired or were abandoned (their waiting
        # process was interrupted and detached its callback) — otherwise
        # the item would vanish into a waitable nobody observes.  A live
        # getter always has its process callback attached, because
        # ``yield box.get()`` subscribes synchronously within one event.
        while self._getters and (
            self._getters[0].triggered or not self._getters[0]._callbacks
        ):
            self._getters.popleft()
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(item)
        return True

    def get(self) -> Waitable:
        """A waitable that fires with the next item."""
        if self._items:
            g = _Get(self.sim)
            g.succeed(self._items.popleft())
            return g
        if self._closed:
            g = _Get(self.sim)
            g.fail(QueueClosed())
            return g
        g = _Get(self.sim)
        self._getters.append(g)
        return g

    def close(self) -> None:
        """Reject future puts; fail all pending getters with QueueClosed."""
        if self._closed:
            return
        self._closed = True
        while self._getters:
            g = self._getters.popleft()
            if not g.triggered:
                g.fail(QueueClosed())

    def clear(self) -> int:
        """Discard all queued items; returns how many were dropped."""
        n = len(self._items)
        self._items.clear()
        return n
