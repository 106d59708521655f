"""Nonblocking-operation handles (MPI_Request analogue)."""

from __future__ import annotations

from typing import Any

from ..sim import Signal, Simulator, Waitable

__all__ = ["Request"]


class Request:
    """Handle for an ``isend``/``irecv``; complete it by yielding
    :meth:`wait` inside a simulation process, or poll :meth:`test`."""

    def __init__(self, sim: Simulator):
        self._signal = Signal(sim)

    def _complete(self, value: Any = None) -> None:
        if not self._signal.triggered:
            self._signal.succeed(value)

    def test(self) -> bool:  # rainlint: disable=RL013 -- the MPI surface Sec. 2.5 ports
        """True once the operation has completed."""
        return self._signal.triggered

    @property
    def value(self) -> Any:
        """The result (a :class:`Message` for irecv, None for isend)."""
        return self._signal.value

    def wait(self) -> Waitable:
        """A waitable firing with the operation's result."""
        return self._signal
