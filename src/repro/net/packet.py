"""The datagram unit carried by the simulated network.

Packets are best-effort: the network may drop them on link loss, element
failure, or buffer overflow.  Reliability is layered above (sliding
window in :mod:`repro.channel.sliding_window`, RUDP in :mod:`repro.rudp`),
exactly as in the paper's software stack (Fig. 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from .address import Endpoint, NicAddr

__all__ = ["Packet", "HEADER_BYTES"]

#: Process-global packet-id counter (see the ``pid`` field for the
#: sharded minting contract that keeps this out of sharded runs).
_packet_ids = itertools.count(1)

#: Fixed per-packet header overhead (bytes) charged on the wire, a stand-in
#: for Ethernet + IP + UDP framing.
HEADER_BYTES = 42


@dataclass(slots=True)
class Packet:
    """One unreliable datagram.

    ``payload`` is opaque to the network (protocol layers put their own
    message objects here).  ``size_bytes`` is the payload size used for
    serialization-delay accounting; the wire charge adds
    :data:`HEADER_BYTES`.
    """

    src: Endpoint
    dst: Endpoint
    payload: Any
    size_bytes: int = 0
    src_nic: Optional[NicAddr] = None
    dst_nic: Optional[NicAddr] = None
    #: Packet identity, minted by ``Network.mint_pid`` at send time.
    #:
    #: The minting contract:
    #:
    #: - ``None`` at construction means "draw the next int from the
    #:   process-global ``_packet_ids`` counter" — fine for single-kernel
    #:   simulations, where construction order is the event order and is
    #:   therefore deterministic under a fixed seed.
    #: - The process-global counter is **never layout-invariant**: two
    #:   shard layouts construct packets in different per-process orders,
    #:   so sharded networks must bypass it entirely.
    #:   ``ShardedNetwork.mint_pid`` mints ``(host_index, seq)`` pairs
    #:   from per-origin counters (``sim.mint_origin_seq(("pid", hi))``)
    #:   that advance in keyed event order — the same sequence in every
    #:   layout — and passes them in explicitly, so ``__post_init__``
    #:   never touches the global counter on a sharded run.
    #: - Batched sends run on plain networks only, so
    #:   ``Network.mint_pid_batch`` draws ``n`` consecutive ids from the
    #:   process-global counter, in send order.
    pid: Any = None
    send_time: Optional[float] = None
    hops: int = 0
    #: Causal trace context (:class:`repro.obs.SpanContext`) carried in
    #: the header, and the open ``net.packet`` span the network records
    #: for a traced packet.  Both stay ``None`` unless a tracer is
    #: installed and the sender threaded a context through.
    ctx: Any = None
    span: Any = None

    def __post_init__(self):
        if self.pid is None:
            self.pid = next(_packet_ids)

    @property
    def wire_bytes(self) -> int:
        """Bytes occupied on a link, including framing overhead."""
        return self.size_bytes + HEADER_BYTES

    def __str__(self) -> str:
        return f"pkt#{self.pid} {self.src}->{self.dst} ({self.size_bytes}B)"
