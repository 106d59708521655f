"""Sliding-window reliable messaging over unreliable datagrams.

The paper's protocols assume a "reliable packet communication layer"
(token transmission in the membership protocol, RUDP for MPI); this
module provides it: cumulative-ACK sliding window with retransmission,
in-order delivery, and duplicate suppression.  Transport-agnostic — the
owner supplies ``transmit(segment)`` (RUDP plugs in multi-path sending)
and receives in-order messages via ``deliver(msg)``.

Acks ride on data.  Every segment carries the cumulative ack, so a pure
ACK is sent only when no data segment has carried ``recv_cum`` yet: it
waits δ = ``rto / 10`` after the delivery, and any data segment to the
peer within δ cancels it and carries the ack instead (a reply sent from
inside ``deliver`` carries it before the wait even starts).  The sender
therefore hears the ack within δ + one RTT, less than its RTO whenever
the RTT is under 0.9 RTO.  Two cases ack at once: a duplicate (the
sender is already resending) and half a window delivered unacked (so a
one-way stream never waits δ for window space).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim import Simulator

__all__ = ["Segment", "ReliableEndpoint", "WindowFull"]

_conn_ids = itertools.count(1)


class WindowFull(Exception):
    """Raised when the send buffer exceeds its cap."""


@dataclass(slots=True)
class Segment:
    """One wire unit of the reliable channel.

    ``seq`` numbers data segments from 1; ``ack`` is cumulative (highest
    in-order sequence received).  Pure ACK segments carry ``payload is
    None`` and ``seq == 0``.
    """

    seq: int
    ack: int
    payload: Any = None
    size_bytes: int = 0
    #: Causal trace context of the carried message (None for pure ACKs
    #: and untraced traffic); retransmissions reuse the original context.
    ctx: Any = None

    @property
    def is_data(self) -> bool:
        """Whether this segment carries payload (vs a pure ACK)."""
        return self.seq > 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = f"DATA#{self.seq}" if self.is_data else "ACK"
        return f"{kind}(ack={self.ack})"


class ReliableEndpoint:
    """One side of a bidirectional reliable channel.

    Parameters
    ----------
    sim:
        Simulation kernel (for retransmission timers).
    transmit:
        Callback taking a :class:`Segment` and sending it unreliably to
        the peer (may drop, duplicate modestly, or delay).
    deliver:
        Callback receiving application messages exactly once, in order.
    window:
        Maximum in-flight (unacknowledged) data segments.
    rto:
        Retransmission timeout in seconds.
    max_buffer:
        Cap on queued-but-unsent messages (raises :class:`WindowFull`).
    on_retransmit:
        Optional callback invoked on every retransmission — the owning
        transport's hook into the observability layer.
    """

    def __init__(
        self,
        sim: Simulator,
        transmit: Callable[[Segment], None],
        deliver: Callable[[Any], None],
        window: int = 32,
        rto: float = 0.2,
        max_buffer: int = 10_000,
        on_retransmit: Optional[Callable[[], None]] = None,
    ):
        self.sim = sim
        self.transmit = transmit
        self.deliver = deliver
        self.window = window
        self.rto = rto
        self.max_buffer = max_buffer
        self.on_retransmit = on_retransmit
        # sender state
        self.next_seq = 1
        self.send_base = 1  # lowest unacknowledged seq
        #: (msg, size, ctx) accepted but not yet transmitted; None while
        #: there is no backlog, so an idle endpoint allocates nothing
        self._unsent: Optional[deque] = None
        self._inflight: dict[int, tuple[Any, int, Any]] = {}
        self._timer = None
        self._backoff = 1  # current RTO multiplier (exponential, capped)
        self._max_backoff = 4
        # receiver state
        self.recv_cum = 0  # highest in-order seq delivered
        self._ooo: dict[int, tuple[Any, int, Any]] = {}  # out-of-order buffer
        self._ack_sent = 0  # highest cumulative ack any segment has carried
        self._ack_call = None  # the pending pure ACK's kernel call
        # stats
        self.retransmissions = 0
        self.duplicates_dropped = 0
        self.segments_sent = 0

    # -- sending ---------------------------------------------------------

    @property
    def inflight(self) -> int:  # rainlint: disable=RL013 -- Sec. 2.5's reliable delivery: tier-1 asserts every segment was acked through it
        """Unacknowledged data segments."""
        return len(self._inflight)

    @property
    def backlog(self) -> int:
        """Messages accepted but not yet transmitted."""
        return len(self._unsent) if self._unsent else 0

    def send(self, msg: Any, size_bytes: int = 0, ctx: Any = None) -> None:
        """Queue ``msg`` for reliable, in-order delivery to the peer.

        ``ctx`` optionally tags the message with a causal
        :class:`~repro.obs.SpanContext`, carried on every (re)transmitted
        segment and re-activated around the peer's ``deliver``.
        """
        if self.backlog >= self.max_buffer:
            raise WindowFull(f"send buffer exceeds {self.max_buffer}")
        if self._unsent is None:
            self._unsent = deque()
        self._unsent.append((msg, size_bytes, ctx))
        self._pump()

    def _pump(self) -> None:
        unsent = self._unsent
        while unsent and len(self._inflight) < self.window:
            msg, size, ctx = unsent.popleft()
            seq = self.next_seq
            self.next_seq += 1
            self._inflight[seq] = (msg, size, ctx)
            self._emit(seq, msg, size, ctx)
        if not unsent:
            self._unsent = None
        self._arm_timer()

    def _emit(self, seq: int, msg: Any, size: int, ctx: Any) -> None:
        self.segments_sent += 1
        ack = self._ack_sent = self.recv_cum
        call = self._ack_call
        if call is not None:  # this segment carries the pending pure ACK's ack
            call.cancel()
            self._ack_call = None
        self.transmit(Segment(seq=seq, ack=ack, payload=msg, size_bytes=size, ctx=ctx))

    def _arm_timer(self) -> None:
        if self._inflight and self._timer is None:
            self._timer = self.sim.call_in(self.rto * self._backoff, self._on_rto)

    def _on_rto(self) -> None:
        self._timer = None
        if not self._inflight:
            return
        # TCP-style: retransmit only the lowest unacknowledged segment
        # (the receiver buffers out-of-order data, so the cumulative ACK
        # jumps past anything it already holds), and back the timer off
        # exponentially so a long outage is not a retransmission storm.
        self._backoff = min(self._backoff * 2, self._max_backoff)
        seq = min(self._inflight)
        msg, size, ctx = self._inflight[seq]
        self.retransmissions += 1
        if self.on_retransmit is not None:
            self.on_retransmit()
        if ctx is not None:
            tracer = self.sim.obs.tracer
            if tracer is not None:
                tracer.instant(
                    "channel.retransmit", parent=ctx, seq=seq, backoff=self._backoff
                )
        self._emit(seq, msg, size, ctx)
        self._arm_timer()

    # -- receiving -------------------------------------------------------

    def on_segment(self, seg: Segment) -> None:
        """Feed a segment that arrived from the peer."""
        # Process the cumulative ACK half.
        if seg.ack >= self.send_base:
            for seq in range(self.send_base, seg.ack + 1):
                self._inflight.pop(seq, None)
            self.send_base = seg.ack + 1
            self._backoff = 1  # progress: reset the retransmission backoff
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._pump()
        # Process the data half.
        if not seg.is_data:
            return
        if seg.seq <= self.recv_cum or seg.seq in self._ooo:
            self.duplicates_dropped += 1
            self._schedule_ack(0.0)  # re-ack at once so the sender stops resending
            return
        self._ooo[seg.seq] = (seg.payload, seg.size_bytes, seg.ctx)
        while self.recv_cum + 1 in self._ooo:
            self.recv_cum += 1
            payload, _, ctx = self._ooo.pop(self.recv_cum)
            if ctx is not None:
                tracer = self.sim.obs.tracer
                if tracer is not None:
                    with tracer.activate(ctx):
                        self.deliver(payload)
                    continue
            self.deliver(payload)
        unacked = self.recv_cum - self._ack_sent
        if unacked > 0:
            self._schedule_ack(0.0 if 2 * unacked >= self.window else self.rto / 10)

    def _schedule_ack(self, delay: float) -> None:
        # One pure ACK at a time, at the earliest instant asked for; a
        # zero delay still runs later in this instant, so segments
        # arriving together share one ACK.
        call = self._ack_call
        if call is not None:
            if call.time <= self.sim.now + delay:
                return
            call.cancel()
        self._ack_call = self.sim.call_in(delay, self._send_ack)

    def _send_ack(self) -> None:
        self._ack_call = None
        self.segments_sent += 1
        ack = self._ack_sent = self.recv_cum
        self.transmit(Segment(seq=0, ack=ack, size_bytes=0))

    # -- introspection ----------------------------------------------------
