"""RUDP — Reliable UDP over bundled interfaces (paper Sec. 2.5).

RUDP is the paper's datagram transport: reliable, in-order delivery of
messages to a peer node, running entirely in "user space" (all state in
this object, none in the simulated kernel), monitoring connectivity per
physical path and failing over between bundled interfaces.  Link
failures within the installed redundancy are invisible to users; when
every path dies, traffic stalls (retransmitting) until repair — RUDP
never errors out, exactly as the paper describes for the MPI port.

Multiplexing: several protocol layers (MPI, membership, applications)
share one transport by registering *services*; each message names its
destination service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..channel import LinkMonitorService, MonitorConfig, ReliableEndpoint, Segment
from ..net import Endpoint, Host, Packet
from ..sim import Simulator
from .bundle import Path, PathBundle, UNPINNED

__all__ = ["RudpConfig", "RudpTransport", "RudpConnection", "RUDP_PORT", "UNPINNED"]

#: Well-known port for RUDP traffic.
RUDP_PORT = 5002


@dataclass(frozen=True)
class RudpConfig:
    """Transport tuning."""

    window: int = 64
    rto: float = 0.2
    policy: str = "failover"  # default bundle policy
    monitor: Optional[MonitorConfig] = None  # None = no path monitoring


@dataclass(slots=True)
class _Envelope:
    """Application message inside a reliable segment."""

    service: str
    data: Any


class RudpConnection:
    """Reliable bidirectional pipe between this host and one peer."""

    def __init__(self, transport: "RudpTransport", peer: str, bundle: PathBundle):
        self.transport = transport
        self.sim = transport.sim  # bound once: never reach through transport.sim (RL012)
        self.peer = peer
        self._dst = Endpoint(peer, transport.port)  # built once, not per segment
        self.bundle = bundle
        bundle.on_switch = self._on_path_switch
        cfg = transport.config
        self.endpoint = ReliableEndpoint(
            transport.sim,
            transmit=self._transmit,
            deliver=self._deliver,
            window=cfg.window,
            rto=cfg.rto,
            on_retransmit=transport._count_retransmission,
        )
        self.bytes_sent = 0
        self.messages_delivered = 0

    def send(self, service: str, data: Any, size_bytes: int = 0, ctx: Any = None) -> None:
        """Queue a message for reliable delivery to ``peer``.

        With a tracer installed, the message gets a ``rudp.send`` span
        (parented to ``ctx`` or the ambient context) that stays open
        until the peer delivers it in order; its context rides on every
        segment, so packet hops and retransmissions nest under it.
        """
        span_ctx = None
        tracer = self.sim.obs.tracer
        if tracer is not None:
            span = tracer.start(
                "rudp.send",
                parent=ctx,
                node=self.transport.host.name,
                peer=self.peer,
                service=service,
            )
            span_ctx = span.ctx
        self.endpoint.send(_Envelope(service, data), size_bytes=size_bytes, ctx=span_ctx)

    def _on_path_switch(self, old: Path, new: Path) -> None:
        # A failover moves traffic between two pinned NIC pairs.  A move
        # onto or off the unpinned tail is not one: a crashed peer and a
        # fault that kills every pair both end there.
        if None in old or None in new:
            return
        tp = self.transport
        if tp._m_failovers is None:
            tp._m_failovers = tp._f_failovers.labels(node=tp.host.name)
        tp._m_failovers.inc()
        self.sim.obs.bus.publish(
            "rudp.bundle.failover",
            node=self.transport.host.name,
            peer=self.peer,
            old=str(old),
            new=str(new),
        )

    def _transmit(self, seg: Segment) -> None:
        local_if, remote_if = self.bundle.pick()
        tp = self.transport
        size = seg.size_bytes
        if size:  # bare acks carry no payload and count nothing
            self.bytes_sent += size
            series = tp._m_bytes
            if series is None:
                series = tp._m_bytes = tp._f_bytes.labels(node=tp.host.name)
            series.inc(size)
        tp.host.send(
            self._dst,
            payload=seg,
            size_bytes=size + 12,  # 12B RUDP header
            src_port=tp.port,
            src_nic=local_if,
            dst_nic=remote_if,
            ctx=seg.ctx,
        )

    def _deliver(self, env: _Envelope) -> None:
        self.messages_delivered += 1
        self.transport._count_delivery()
        tracer = self.sim.obs.tracer
        if tracer is not None:
            cur = tracer.current
            if cur is not None:
                # The channel activated the message's context around this
                # call; the span it names is the rudp.send — close it now
                # that in-order delivery has happened.
                tracer.end_id(cur.span_id)
        self.transport._dispatch(self.peer, env)


class RudpTransport:
    """Per-host RUDP endpoint.

    Parameters
    ----------
    host:
        Owning host.
    config:
        Transport tuning; setting ``config.monitor`` attaches a
        consistent-history link monitor to every pinned path to another
        member (required for failure-aware path selection).
    members:
        The cluster's node names, one set shared by every member's
        transport; only paths to them are monitored.  ``None`` means
        every other host.
    """

    def __init__(
        self,
        host: Host,
        config: Optional[RudpConfig] = None,
        port: int = RUDP_PORT,
        members: Optional[frozenset] = None,
    ):
        self.host = host
        self.sim: Simulator = host.sim
        self.config = config if config is not None else RudpConfig()
        config = self.config
        self.port = port
        metrics = self.sim.obs.metrics
        self._f_bytes = metrics.counter(
            "rudp.transport.bytes_sent", help="payload bytes handed to the network"
        )
        self._f_messages = metrics.counter(
            "rudp.transport.messages_delivered", help="in-order messages delivered up"
        )
        self._f_retransmissions = metrics.counter(
            "rudp.transport.retransmissions", help="RTO-driven resends"
        )
        self._f_failovers = metrics.counter(
            "rudp.bundle.failovers", help="stable-path switches between bundled NICs"
        )
        # This node's series of each family, bound on first observation
        # so a report lists only what happened.
        self._m_bytes = self._m_messages = None
        self._m_retransmissions = self._m_failovers = None
        self.members = members
        self.monitors: Optional[LinkMonitorService] = (
            LinkMonitorService(host, config.monitor) if config.monitor else None
        )
        self.connections: dict[str, RudpConnection] = {}
        self._services: dict[str, Callable[[str, Any], None]] = {}
        host.bind(port, self._on_packet)

    # -- connection management ---------------------------------------------

    def connect(
        self,
        peer: str,
        paths: Optional[Sequence[Path]] = None,
        policy: Optional[str] = None,
    ) -> RudpConnection:
        """Create (or return) the connection to ``peer``.

        The one path rule: bundle the mirrored NIC pairs ``(k, k)`` that
        both hosts have, then, where this host's switches are cabled on
        to other switches, one unpinned path, so that once every pair is
        Down routing can still find a crossed route (NIC 0 to NIC 1).  A
        NIC cabled straight to another host (a direct mesh) leaves the
        unpinned path alone.  Pinned paths are monitored only to another
        member.  ``paths`` and ``policy`` override the rule and the
        configured policy.
        """
        conn = self.connections.get(peer)
        if conn is None:
            watched = peer != self.host.name and (self.members is None or peer in self.members)
            bundle = PathBundle(
                peer,
                paths if paths is not None else self._paths(peer),
                self.monitors if watched else None,
                policy or self.config.policy,
            )
            conn = self.connections[peer] = RudpConnection(self, peer, bundle)
        return conn

    def _paths(self, peer: str) -> list[Path]:
        nics = self.host.nics
        far = [link.other(nic) for nic in nics for link in nic.links]
        if any(dev.kind == "nic" for dev in far):
            return [UNPINNED]
        other = self.host.network.hosts.get(peer)
        count = len(nics) if other is None else min(len(nics), len(other.nics))
        paths: list[Path] = [(k, k) for k in range(count)]
        # wire() cables switch to switch last: scan from the end
        if any(link.other(sw).kind == "switch" for sw in far for link in reversed(sw.links)):
            paths.append(UNPINNED)
        return paths

    # -- service registry ------------------------------------------------------

    def register(self, service: str, handler: Callable[[str, Any], None]) -> None:
        """Route messages named ``service`` to ``handler(src_node, data)``."""
        if service in self._services:
            raise ValueError(f"service {service!r} already registered")
        self._services[service] = handler

    # -- I/O ---------------------------------------------------------------

    def _count_delivery(self) -> None:
        series = self._m_messages
        if series is None:
            series = self._m_messages = self._f_messages.labels(node=self.host.name)
        series.inc()

    def _count_retransmission(self) -> None:
        if self._m_retransmissions is None:
            self._m_retransmissions = self._f_retransmissions.labels(node=self.host.name)
        self._m_retransmissions.inc()

    def send(
        self, peer: str, service: str, data: Any, size_bytes: int = 0, ctx: Any = None
    ) -> None:
        """Reliable, in-order send of ``data`` to ``service`` on ``peer``.

        A send to this host is local delivery: later in this instant, in
        send order, with no connection, segment, ack, timer or packet;
        dropped if the host is down when sent or at delivery (fail-stop).
        """
        if peer == self.host.name:
            self._send_local(service, data, ctx)
            return
        conn = self.connections.get(peer) or self.connect(peer)
        conn.send(service, data, size_bytes, ctx=ctx)

    def _send_local(self, service: str, data: Any, ctx: Any) -> None:
        if not self.host.up:
            return
        span = None
        tracer = self.sim.obs.tracer
        if tracer is not None:
            name = self.host.name
            span = tracer.start("rudp.send", parent=ctx, node=name, peer=name, service=service)
        self.sim.call_in(0.0, self._deliver_local, _Envelope(service, data), span)

    def _deliver_local(self, env: _Envelope, span: Any) -> None:
        tracer = self.sim.obs.tracer if span is not None else None
        if not self.host.up:
            if tracer is not None:
                tracer.end(span, status="error", reason="host_down")
            return
        self._count_delivery()
        if tracer is None:
            self._dispatch(self.host.name, env)
            return
        tracer.end(span)
        with tracer.activate(span.ctx):
            self._dispatch(self.host.name, env)

    def _on_packet(self, pkt: Packet) -> None:
        seg = pkt.payload
        if not isinstance(seg, Segment):
            return
        peer = pkt.src.node
        conn = self.connections.get(peer) or self.connect(peer)
        conn.endpoint.on_segment(seg)

    def _dispatch(self, src: str, env: _Envelope) -> None:
        handler = self._services.get(env.service)
        if handler is not None:
            handler(src, env.data)
