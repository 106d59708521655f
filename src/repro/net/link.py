"""Point-to-point links between network devices.

A link is full-duplex: each direction has its own serializer, modeled by
a ``busy_until`` reservation time, which yields FIFO store-and-forward
behaviour and realistic throughput saturation for the bandwidth
experiments (Rainwall scaling, MPI bundling).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .device import Device

__all__ = ["Link", "LinkEnd"]

_link_ids = itertools.count(0)


class LinkEnd:
    """One direction of a link: the serializer from ``src`` to ``dst``."""

    __slots__ = ("busy_until", "bytes_carried", "packets_carried")

    def __init__(self):
        self.busy_until = 0.0
        self.bytes_carried = 0
        self.packets_carried = 0


class Link:
    """A bidirectional cable between two devices.

    Parameters
    ----------
    a, b:
        The attached devices (NICs or switches).
    latency_s:
        One-way propagation delay.
    bandwidth_bps:
        Serialization rate in bits/second.
    loss_rate:
        Independent per-packet drop probability (models a noisy link).
    """

    def __init__(
        self,
        a: "Device",
        b: "Device",
        latency_s: float = 50e-6,
        bandwidth_bps: float = 1e9,
        loss_rate: float = 0.0,
        lid: "int | None" = None,
    ):
        if latency_s < 0 or bandwidth_bps <= 0 or not (0.0 <= loss_rate <= 1.0):
            raise ValueError("invalid link parameters")
        # Sharded networks pass an explicit per-replica ``lid`` so that
        # link identity does not depend on process-global construction
        # history; the default keeps the old globally-unique behaviour.
        self.lid = next(_link_ids) if lid is None else lid
        self.a = a
        self.b = b
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        self.loss_rate = loss_rate
        self.up = True
        # Explicit per-direction serializers resolved by identity — not an
        # ``id()``-keyed dict, so the hot path is a pointer compare and the
        # ends are directly addressable by batched pipelines.
        self.end_a = LinkEnd()  # serializer for traffic leaving ``a``
        self.end_b = LinkEnd()  # serializer for traffic leaving ``b``
        self.drops = 0

    def other(self, device: "Device") -> "Device":
        """The device on the far side from ``device``."""
        if device is self.a:
            return self.b
        if device is self.b:
            return self.a
        raise ValueError(f"{device} is not attached to {self}")

    def end_from(self, device: "Device") -> LinkEnd:
        """The serializer for the direction leaving ``device``."""
        if device is self.a:
            return self.end_a
        if device is self.b:
            return self.end_b
        raise ValueError(f"{device} is not attached to {self}")

    def serialization_delay(self, wire_bytes):
        """Time to clock ``wire_bytes`` onto this link.

        Accepts a scalar *or* an integer numpy array transparently and
        returns the matching shape — the same expression serves the
        per-object route (one packet) and the batched route (a whole
        :class:`~repro.net.batch.PacketBatch` column).  The arithmetic is
        kept as ``wire_bytes * 8.0 / bandwidth`` (not a precomputed
        reciprocal) so scalar and vectorized results are bit-identical.
        """
        return wire_bytes * 8.0 / self.bandwidth_bps

    @property
    def name(self) -> str:
        """Human-readable identity for traces and fault logs."""
        return f"link{self.lid}({self.a.name}<->{self.b.name})"

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"<{self.name} {state}>"
