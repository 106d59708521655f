"""Discrete-event simulation kernel for the RAIN reproduction.

Public surface:

- :class:`Simulator` — event loop, time, process launcher.
- :class:`Process`, :class:`Signal`, :class:`Timeout` — waitables.
- :class:`Ticker` — a periodic callback counted as a process.
- :class:`Interrupt` — exception delivered by ``Process.interrupt``.
- :class:`Mailbox` — blocking FIFO for processes.
- :class:`StatCounters` — named sums mirrored into ``sim.obs.metrics``.
- :class:`RngRegistry` — deterministic named RNG streams.
"""

from .core import (
    AllOf,
    AnyOf,
    Interrupt,
    Process,
    Signal,
    SimulationError,
    Simulator,
    StopSimulation,
    Ticker,
    Timeout,
    Waitable,
)
from .queues import Mailbox, QueueClosed
from .rng import RngRegistry, stream_seed
from .shard import (
    CONTROL_ORIGIN,
    Handoff,
    ShardedSimulator,
    ShardKernel,
    host_origin,
    packet_origin,
)
from .trace import StatCounters

__all__ = [
    "AllOf",
    "AnyOf",
    "CONTROL_ORIGIN",
    "Handoff",
    "Interrupt",
    "Mailbox",
    "Process",
    "QueueClosed",
    "RngRegistry",
    "ShardKernel",
    "ShardedSimulator",
    "Signal",
    "SimulationError",
    "Simulator",
    "StatCounters",
    "StopSimulation",
    "Ticker",
    "Timeout",
    "Waitable",
    "host_origin",
    "packet_origin",
    "stream_seed",
]
