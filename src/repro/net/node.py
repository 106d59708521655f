"""Compute/storage hosts.

A host owns its NICs and a demultiplexer from destination port to a bound
handler — the simulated equivalent of the kernel's UDP socket
table.  All RAIN protocol layers (link monitor, RUDP, membership) are
"user space" objects that bind ports here, mirroring the paper's emphasis
(Sec. 2.5) that the communication stack keeps all state out of the
kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from ..sim import Simulator
from .address import Endpoint, NicAddr
from .batch import PacketBatch
from .nic import Nic
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

__all__ = ["Host", "PortInUse"]

PacketHandler = Callable[[Packet], None]
BatchHandler = Callable[[PacketBatch], None]


class PortInUse(Exception):
    """Raised when binding a port that already has a handler."""


class Host:
    """A cluster node with one or more NICs."""

    def __init__(self, network: "Network", name: str, nics: int = 1):
        if nics < 1:
            raise ValueError("host needs at least one NIC")
        self.network = network
        self.sim: Simulator = network.sim
        self.name = name
        self.up = True
        self.nics: list[Nic] = [Nic(self, i) for i in range(nics)]
        self._handlers: dict[int, PacketHandler] = {}
        self._batch_handlers: dict[int, BatchHandler] = {}
        # Source Endpoints are frozen and per-(host, port); caching them
        # keeps dataclass construction off the per-send hot path.
        self._src_endpoints: dict[int, Endpoint] = {}
        self.delivered = 0

    # -- NIC access ------------------------------------------------------

    def nic(self, ifindex: int) -> Nic:
        """The NIC with the given interface index."""
        return self.nics[ifindex]

    def usable_nics(self) -> list[Nic]:
        """NICs that are up, cabled, and whose host is up."""
        return [n for n in self.nics if n.usable and n.connected]

    # -- port table -------------------------------------------------------

    def bind(self, port: int, handler: PacketHandler) -> None:
        """Attach ``handler`` to ``port``; it runs on each delivery."""
        self._claim(port)
        self._handlers[port] = handler

    def bind_batch(self, port: int, handler: BatchHandler) -> None:
        """Attach a whole-window handler to ``port``.

        Batched deliveries hand the handler the :class:`PacketBatch`
        itself, valid for the duration of the callback (copy out to
        retain rows).  Scalar packets to this port are counted as
        ``dropped_no_handler``, as at an unbound port.
        """
        self._claim(port)
        self._batch_handlers[port] = handler

    def _claim(self, port: int) -> None:
        """One handler per port, of either kind."""
        if port in self._handlers or port in self._batch_handlers:
            raise PortInUse(f"{self.name} port {port} already bound")

    def endpoint(self, port: int) -> Endpoint:
        """This host's :class:`Endpoint` for ``port``."""
        return Endpoint(self.name, port)

    # -- I/O ----------------------------------------------------------------

    def send(
        self,
        dst: Endpoint,
        payload: Any,
        size_bytes: int = 0,
        src_port: int = 0,
        src_nic: Optional[int] = None,
        dst_nic: Optional[int] = None,
        ctx: Any = None,
    ) -> Packet:
        """Transmit an unreliable datagram toward ``dst``.

        ``src_nic``/``dst_nic`` pin the physical path for per-path
        protocols; left as None the network uses the first usable NIC on
        each side.  ``ctx`` optionally stamps a causal
        :class:`~repro.obs.SpanContext` into the packet header.  The
        packet is returned for tracing; delivery is not guaranteed.
        """
        src = self._src_endpoints.get(src_port) or self._src_endpoint(src_port)
        src_addr = self.nics[src_nic].addr if src_nic is not None else None
        dst_addr = self._dst_nic_addr(dst.node, dst_nic) if dst_nic is not None else None
        pid = self.network.mint_pid(self)
        # Positional (declaration order): keyword matching on an 11-field
        # dataclass costs more than the rest of its construction.
        pkt = Packet(src, dst, payload, size_bytes, src_addr, dst_addr, pid, ctx=ctx)
        self.network.transmit(pkt)
        return pkt

    def send_batch(
        self,
        dst: Endpoint,
        payloads: list,
        size_bytes=0,
        src_port: int = 0,
        src_nic: Optional[int] = None,
        dst_nic: Optional[int] = None,
    ) -> PacketBatch:
        """Transmit a whole window of datagrams toward ``dst`` at once.

        The batched data plane moves the window through each hop with
        one kernel callback (see :meth:`Network.transmit_batch
        <repro.net.network.Network.transmit_batch>`); ``size_bytes`` may
        be a scalar or a per-packet integer array.  Batches never carry
        span contexts — traced traffic uses :meth:`send`.  The batch is
        returned for inspection after the run; drops clear its ``alive``
        mask in place.
        """
        pids = self.network.mint_pid_batch(self, len(payloads))
        batch = PacketBatch(
            self._src_endpoint(src_port),
            dst,
            list(payloads),
            size_bytes,
            pids,
            src_nic=self.nics[src_nic].addr if src_nic is not None else None,
            dst_nic=self._dst_nic_addr(dst.node, dst_nic) if dst_nic is not None else None,
        )
        self.network.transmit_batch(batch)
        return batch

    def _src_endpoint(self, port: int) -> Endpoint:
        ep = self._src_endpoints.get(port)
        if ep is None:
            ep = self._src_endpoints[port] = Endpoint(self.name, port)
        return ep

    def _dst_nic_addr(self, node: str, ifindex: int) -> Optional[NicAddr]:
        """The peer NIC's own frozen address, so no send builds one (None
        for an unknown peer: routing then rejects the send)."""
        peer = self.network.hosts.get(node)
        return peer.nics[ifindex].addr if peer is not None else None

    def deliver(self, packet: Packet) -> None:
        """Called by the network when a packet reaches this host."""
        if not self.up:
            return
        handler = self._handlers.get(packet.dst.port)
        if handler is None:
            self.network.stats.add("dropped_no_handler")
            return
        self.delivered += 1
        handler(packet)

    def deliver_batch(self, batch: PacketBatch, idxs) -> None:
        """Called by the network when a batched window reaches this host:
        the port's ``bind_batch`` handler gets the whole window in one
        call."""
        if not self.up:
            return
        k = len(idxs)
        handler = self._batch_handlers.get(batch.dst.port)
        if handler is None:
            self.network.stats.add("dropped_no_handler", float(k))
            return
        self.delivered += k
        handler(batch)

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"<host {self.name} {state} nics={len(self.nics)}>"
