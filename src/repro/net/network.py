"""The cluster network: topology container and packet forwarding engine.

This is the simulated stand-in for the paper's testbed fabric (hosts with
bundled NICs cabled to a network of eight-way switches).  It owns the
devices, computes routes, and moves packets hop by hop with
store-and-forward timing, per-link FIFO serialization, probabilistic
loss, and fault checks at every hop — so a link or switch that dies
mid-flight drops exactly the traffic that was transiting it.

Forwarding runs on two routes:

- the **scalar route** (:meth:`Network.transmit`): a packet walks its
  cached per-topology-version :class:`_Route` one hop per kernel
  callback.  Each hop checks the link and the forwarding device,
  reserves the serializer *when the packet gets there*, draws loss, and
  re-checks link and receiver on arrival — so faults land exactly on
  the traffic in flight, and FIFO order at a shared link is the order
  of arrival at that link, never the order of the original sends.  A
  span context is a per-packet flag on this route, not a route of its
  own;
- the **batched route** (:meth:`Network.transmit_batch`): a whole
  :class:`~repro.net.batch.PacketBatch` window moves through each hop in
  one kernel callback — cumulative-sum serialization, one vectorized
  loss draw per (link, direction, window), deferred metrics, and one
  ``bind_batch`` handler call per window.

The two never mix.  A batch checks faults once per hop for the whole
window, so a fault-armed network (any :class:`~repro.net.faults.
FaultInjector` built on it, or a sharded replica, which arms itself)
refuses batches outright.  A window reaching a port with no batch
handler, and a scalar packet reaching a port with only one, is counted
as ``dropped_no_handler``.

Loss draws always come from a per-(link, direction) stream
(:class:`~repro.net.batch.LossStream`), consumed in serializer
*reservation order* — an order both routes agree on whenever their
reservations interleave identically — so drop decisions stay
deterministic under a fixed seed no matter which route traffic takes.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional, Union

import numpy as np

from ..obs.metrics import DeferredHistogram
from ..sim import Simulator, StatCounters
from . import packet as packet_mod
from .address import NicAddr
from .batch import LossStream, PacketBatch, fifo_finish_times
from .device import Device
from .link import Link
from .nic import Nic
from .node import Host
from .packet import HEADER_BYTES, Packet
from .routing import Router
from .switch import PortsExhausted, Switch

__all__ = ["Network"]

Attachable = Union[Nic, Switch]


class _Route:
    """A fully-resolved forwarding plan for one (src NIC, link path).

    ``hops[i]`` is ``(link, end, loss_stream, from_device, receiver)``
    — everything a hop needs without per-hop lookups.  ``key`` names
    the route by host name, NIC index and link ids, which is how a
    sharded replica tells a peer which route an in-flight packet is on.
    Routes (and cached drop reasons) are kept per ``_topo_version``: any
    flip of any element, or a cabling change, drops the whole cache.
    Re-resolving is cheap: the router's switch trees underneath key off
    ``fabric_version`` and outlive host and NIC flips.
    """

    __slots__ = ("src_nic", "dst_nic", "hops", "key")

    def __init__(self, src_nic: Nic, hops: tuple):
        self.src_nic = src_nic
        self.dst_nic = hops[-1][4] if hops else src_nic
        self.hops = hops
        self.key = (src_nic.host.name, src_nic.ifindex, tuple(h[0].lid for h in hops))


class Network:
    """A simulated switched cluster network.

    Parameters
    ----------
    sim:
        The simulation kernel driving this network.
    default_latency_s, default_bandwidth_bps, default_loss_rate:
        Link parameters used when :meth:`link` is called without
        overrides.  Defaults approximate the testbed's Myrinet fabric
        (50 µs per hop, ~1 Gb/s).
    """

    def __init__(
        self,
        sim: Simulator,
        default_latency_s: float = 50e-6,
        default_bandwidth_bps: float = 1.0e9,
        default_loss_rate: float = 0.0,
    ):
        self.sim = sim
        self.default_latency_s = default_latency_s
        self.default_bandwidth_bps = default_bandwidth_bps
        self.default_loss_rate = default_loss_rate
        self.hosts: dict[str, Host] = {}
        self.switches: dict[str, Switch] = {}
        self.links: list[Link] = []
        self._topo_version = 0
        self._fabric_version = 0
        self.router = Router(self)
        # Legacy counters: sums mirror to net.network.* metrics at flush.
        self.stats = StatCounters(registry=sim.obs.metrics, prefix="net.network")
        # Per-packet deliver/drop records go out as net.trace.* events.
        self._bus = sim.obs.bus
        self._m_link_bytes = sim.obs.metrics.counter(
            "net.link.bytes", help="bytes clocked onto each link"
        )
        self._m_link_packets = sim.obs.metrics.counter(
            "net.link.packets", help="packets clocked onto each link"
        )
        self._m_link_drops = sim.obs.metrics.counter(
            "net.link.drops", help="per-link losses and in-flight deaths"
        )
        self._m_drop_reason = sim.obs.metrics.counter(
            "net.packets.dropped", help="end-to-end drops by reason"
        )
        self._queue_wait = DeferredHistogram(
            sim.obs.metrics.histogram(
                "net.link.queue_wait", help="serializer queueing delay per hop"
            ).labels()
        )
        # Per-(link, direction) loss streams, consumed in reservation
        # order by both forwarding routes (one shared stream would be
        # drawn in shard-local order on a sharded replica).
        self._dir_loss_streams: dict = {}
        # Bound-series caches for the per-packet hot path: series are
        # still created lazily (snapshots list exactly the series that
        # saw traffic) but the `.labels()` lookup happens once per link
        # or reason, not once per packet.
        self._link_io: dict[int, tuple] = {}
        self._link_drop_series: dict[int, object] = {}
        self._drop_reason_series: dict[str, object] = {}
        # Route cache, invalidated wholesale whenever the topology
        # version moves.
        self._route_cache: dict = {}
        #: Sticky flag (see ``arm_faults``): once armed, the network
        #: refuses batched windows.
        self._fault_armed = False
        # Deferred hot-path accumulators, pushed into registry series by
        # the flush hook below (same pattern as the kernel's counters).
        self._sums = self.stats.sums
        self._pending_traces = {"net.trace.deliver": 0, "net.trace.drop": 0}
        sim.obs.add_flush_hook(self._flush_net_metrics)

    @staticmethod
    def _link_label(link: Link) -> str:
        # Stable across runs (device names only — Link.lid is allocated
        # from a process-global counter and would break snapshot
        # determinism between runs in one process).
        return f"{link.a.name}<->{link.b.name}"

    # -- topology construction ---------------------------------------------

    def add_host(self, name: str, nics: int = 1) -> Host:
        """Create a host with ``nics`` interfaces."""
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate element name {name!r}")
        host = Host(self, name, nics=nics)
        self.hosts[name] = host
        self.bump_topology()
        return host

    def add_switch(self, name: str, ports: int = 8) -> Switch:
        """Create a switch with ``ports`` ports."""
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate element name {name!r}")
        sw = Switch(name, port_count=ports)
        self.switches[name] = sw
        self.bump_topology()
        return sw

    def link(
        self,
        a: Attachable,
        b: Attachable,
        latency_s: Optional[float] = None,
        bandwidth_bps: Optional[float] = None,
        loss_rate: Optional[float] = None,
    ) -> Link:
        """Cable ``a`` to ``b``; both must be a :class:`Nic` or :class:`Switch`."""
        if a is b:
            raise ValueError("cannot link a device to itself")
        lk = Link(
            a,
            b,
            latency_s=self.default_latency_s if latency_s is None else latency_s,
            bandwidth_bps=self.default_bandwidth_bps if bandwidth_bps is None else bandwidth_bps,
            loss_rate=self.default_loss_rate if loss_rate is None else loss_rate,
            lid=self.mint_lid(),
        )
        a.attach(lk)
        try:
            b.attach(lk)
        except PortsExhausted:
            a.links.pop()  # a full ``b`` must not leave a phantom cable on ``a``
            raise
        self.links.append(lk)
        self.bump_topology()
        return lk

    # -- identity hooks ----------------------------------------------------

    def mint_pid(self, host: Host):
        """Packet id for a datagram originated by ``host``.

        ``None`` (the default) lets :class:`Packet` draw from its
        process-global counter.  Sharded networks override this to mint
        layout-invariant ``(sender_rank, seq)`` ids so that packet
        identity — and everything keyed off it, like trace attributes —
        is independent of how the cluster is partitioned.  See the
        ``Packet.pid`` field for the full contract.
        """
        return None

    def mint_pid_batch(self, host: Host, n: int) -> list:
        """``n`` packet ids for one batched send, in send order.

        The next ``n`` ids of the process-global counter that
        :meth:`mint_pid` leaves to :class:`Packet`, so a batch-minted
        window is numbered like ``n`` sequential sends.  No sharded
        override: a replica refuses batches.
        """
        return list(islice(packet_mod._packet_ids, n))

    def mint_lid(self):
        """Link id for the next :meth:`link` call (None = global counter)."""
        return None

    # -- topology state -----------------------------------------------------

    @property
    def fabric_version(self) -> int:
        """Monotone counter of cabling, link-flip and switch-flip changes."""
        return self._fabric_version

    def bump_topology(self, fabric: bool = True) -> None:
        """Invalidate cached state after a topology/fault change.

        ``_topo_version`` always moves (the :class:`_Route` cache and the
        batched route's in-flight recheck key off it); ``fabric_version``
        (the router's switch trees) moves too unless the caller knows the
        change was a host or NIC flip, which no tree can see and
        :meth:`Router.path` checks live.  A bare call bumps both.
        """
        self._topo_version += 1
        self._route_cache.clear()
        if fabric:
            self._fabric_version += 1

    def arm_faults(self) -> None:
        """The guard that keeps batches off networks that can fault.

        Called by :class:`~repro.net.faults.FaultInjector` before any
        fault activity, and by a sharded replica on itself.  Sticky:
        from here on :meth:`transmit_batch` raises, because only the
        scalar route's per-hop checks make in-flight faults exact."""
        self._fault_armed = True

    def nic(self, addr: NicAddr) -> Nic:
        """Resolve a :class:`NicAddr` to the live NIC object."""
        return self.hosts[addr.node].nic(addr.ifindex)

    def find_link(self, a: Attachable, b: Attachable) -> Optional[Link]:
        """The first link directly joining ``a`` and ``b``, if any."""
        for lk in a.links:
            if lk.other(a) is b:
                return lk
        return None

    # -- loss streams ------------------------------------------------------

    def _loss_stream_name(self, link: Link, from_device: Device) -> str:
        # Keyed by stable device names, not Link.lid: plain-network lids
        # come from a process-global counter, and two same-seed networks
        # in one process must draw identical streams.
        return f"net.loss:{link.a.name}<->{link.b.name}:{from_device.name}"

    def _dir_loss(self, link: Link, from_device: Device) -> LossStream:
        """The loss stream for the direction of ``link`` leaving
        ``from_device`` (created on first use)."""
        key = (link.lid, from_device.name)
        stream = self._dir_loss_streams.get(key)
        if stream is None:
            rng = self.sim.rng.stream(self._loss_stream_name(link, from_device))
            stream = LossStream(rng)
            self._dir_loss_streams[key] = stream
        return stream

    # -- deferred metrics --------------------------------------------------

    def _flush_net_metrics(self) -> None:
        """Flush hook: push deferred accumulators into their metric
        series and bus topic counts.  Idempotent between accumulations.
        """
        self._queue_wait.flush()
        for link in self.links:  # construction order: deterministic
            ea, eb = link.end_a, link.end_b
            pk = ea.packets_carried + eb.packets_carried
            if pk:
                io = self._link_io.get(link.lid)
                if io is None:
                    io = self._bind_link_io(link)
                io[0].value = float(ea.bytes_carried + eb.bytes_carried)
                io[1].value = float(pk)
            if link.drops:
                drops = self._link_drop_series.get(link.lid)
                if drops is None:
                    io = self._link_io.get(link.lid)
                    label = io[2] if io is not None else self._link_label(link)
                    drops = self._m_link_drops.labels(link=label)
                    self._link_drop_series[link.lid] = drops
                drops.value = float(link.drops)
        self.stats.mirror()
        pending = self._pending_traces
        for topic, n in pending.items():
            if n:
                pending[topic] = 0
                self._bus.tally(topic, n)

    def _bind_link_io(self, link: Link) -> tuple:
        label = self._link_label(link)
        io = (
            self._m_link_bytes.labels(link=label),
            self._m_link_packets.labels(link=label),
            label,
        )
        self._link_io[link.lid] = io
        return io

    # -- transmission ----------------------------------------------------

    def transmit(self, pkt: Packet) -> None:
        """Inject ``pkt``; it is forwarded (or dropped) asynchronously."""
        src, dst, src_nic, dst_nic = pkt.src.node, pkt.dst.node, pkt.src_nic, pkt.dst_nic
        # _route_for's cache hit, inlined: this runs once per packet.
        key = (src, dst, -1 if src_nic is None else src_nic.ifindex,
               -1 if dst_nic is None else dst_nic.ifindex)
        route = self._route_cache.get(key) or self._route_for(src, dst, src_nic, dst_nic)
        sim = self.sim
        if pkt.ctx is not None:
            span_tracer = sim.obs.tracer
            if span_tracer is not None:
                pkt.span = span_tracer.start(
                    "net.packet",
                    parent=pkt.ctx,
                    node=pkt.src.node,
                    pid=pkt.pid,
                    dst=pkt.dst.node,
                    size=pkt.size_bytes,
                )
        if type(route) is str:  # resolution failed: cached drop reason
            self.stats.add(f"dropped_{route}")
            self._end_pkt_span(pkt, "error", reason=route)
            return
        pkt.send_time = sim.now
        self._sums["packets_sent"] += 1.0
        if route.hops:
            self._hop(pkt, route, 0)
        else:  # same NIC (loopback)
            sim.call_in(0.0, self._deliver, pkt, route.dst_nic)

    def _route_for(self, src_node: str, dst_node: str, src_nic, dst_nic):
        """Cached :class:`_Route` (or a drop-reason string) for a flow."""
        key = (
            src_node,
            dst_node,
            -1 if src_nic is None else src_nic.ifindex,
            -1 if dst_nic is None else dst_nic.ifindex,
        )
        route = self._route_cache.get(key)
        if route is None:
            route = self._route_cache[key] = self._build_route(src_node, dst_node, src_nic, dst_nic)
        return route

    def _build_route(self, src_node: str, dst_node: str, src_nic, dst_nic):
        src_host = self.hosts.get(src_node)
        dst_host = self.hosts.get(dst_node)
        if src_host is None or dst_host is None:
            raise ValueError(f"unknown endpoint {src_node!r} -> {dst_node!r}")
        if not src_host.up:
            return "src_down"
        if src_nic is not None:
            nic = src_host.nic(src_nic.ifindex)
            candidates = [nic] if (nic.usable and nic.connected) else []
        else:
            candidates = src_host.usable_nics()
        if not candidates:
            return "no_src_nic"
        if dst_nic is not None:
            targets = [dst_host.nic(dst_nic.ifindex)]
        else:
            targets = dst_host.usable_nics()
        for cand in candidates:
            for nic in targets:
                path = self.router.path(cand, nic)
                if path is not None:
                    return self._route_over(cand, path)
        return "unreachable"

    def _route_over(self, src_nic: Nic, path: list[Link]) -> _Route:
        """The :class:`_Route` leaving ``src_nic`` along ``path``."""
        hops = []
        dev: Device = src_nic
        for link in path:
            # Lossless links never consume (or even create) a stream —
            # the loss_rate == 0 short-circuit the tests pin.
            stream = self._dir_loss(link, dev) if link.loss_rate > 0.0 else None
            receiver = link.other(dev)
            hops.append((link, link.end_from(dev), stream, dev, receiver))
            dev = receiver
        return _Route(src_nic, tuple(hops))

    def _hop(self, pkt: Packet, route: _Route, idx: int) -> None:
        """One step of the scalar route: land hop ``idx - 1`` (if any),
        then clock ``pkt`` onto hop ``idx`` or deliver it."""
        hops = route.hops
        if idx:
            link, _end, _stream, _from_device, device = hops[idx - 1]
            if not link.up:
                self._drop(pkt, "link_died_in_flight")
                return
            if not device.usable:
                self._drop(pkt, "device_died_in_flight")
                return
            pkt.hops += 1
            if idx == len(hops):
                self._deliver(pkt, device)
                return
        link, end, stream, from_device, _receiver = hops[idx]
        # A later hop leaves the device its landing just checked.
        if not link.up or (idx == 0 and not from_device.usable):
            self._drop(pkt, "element_down")
            return
        # Link.serialization_delay and LinkEnd.reserve, inlined: this
        # runs once per packet per hop.
        wire_bytes = pkt.size_bytes + HEADER_BYTES
        ser_delay = wire_bytes * 8.0 / link.bandwidth_bps
        now = self.sim._now
        busy_until = end.busy_until
        end.busy_until = finish = (now if now >= busy_until else busy_until) + ser_delay
        end.bytes_carried += wire_bytes
        end.packets_carried += 1
        wait = finish - ser_delay - now
        if wait > 0.0:
            self._queue_wait.observe(wait)
        else:
            self._queue_wait.observe_zero()
        loss_rate = link.loss_rate
        if loss_rate > 0.0 and stream.one() < loss_rate:
            link.drops += 1
            self._drop(pkt, "link_loss")
            return
        self._forward(pkt, route, idx, finish + link.latency_s)

    def _forward(self, pkt: Packet, route: _Route, idx: int, arrival: float) -> None:
        """Carry ``pkt`` to the far end of hop ``idx`` by ``arrival``
        (a sharded replica overrides this and ``_deliver``)."""
        sim = self.sim  # call_at, inlined
        sim._schedule_call(arrival - sim._now, self._hop, (pkt, route, idx + 1))

    def _deliver(self, pkt: Packet, nic: Nic) -> None:
        if not (nic.up and nic.host.up):
            self._drop(pkt, "dst_down")
            return
        self._sums["packets_delivered"] += 1.0
        # Render per-packet records only when someone can observe them;
        # otherwise count, and tally at flush.
        if self._bus.has_subscribers:
            self._bus.publish("net.trace.deliver", message=str(pkt))
        else:
            self._pending_traces["net.trace.deliver"] += 1
        span = pkt.span
        if span is None:
            nic.host.deliver(pkt)
            return
        # Traced packet: close its span and dispatch the handler with the
        # span active, so whatever the delivery causes nests under it.
        pkt.span = None
        span_tracer = self.sim.obs.tracer
        span_tracer.end(span, hops=pkt.hops)
        with span_tracer.activate(span.ctx):
            nic.host.deliver(pkt)

    def _drop(self, pkt: Packet, reason: str) -> None:
        self._count_drops(reason, 1.0)
        if self._bus.has_subscribers:
            self._bus.publish("net.trace.drop", message=f"{pkt} ({reason})")
        else:
            self._pending_traces["net.trace.drop"] += 1
        self._end_pkt_span(pkt, "error", reason=reason)

    def _count_drops(self, reason: str, k: float) -> None:
        self._sums["packets_dropped"] += k
        self._sums[f"drop_{reason}"] += k
        series = self._drop_reason_series.get(reason)
        if series is None:
            series = self._m_drop_reason.labels(reason=reason)
            self._drop_reason_series[reason] = series
        series.inc(k)

    def _end_pkt_span(self, pkt: Packet, status: str, **attrs) -> None:
        span = pkt.span
        if span is not None:
            pkt.span = None
            self.sim.obs.tracer.end(span, status=status, **attrs)

    # -- batched transmission ---------------------------------------------

    def transmit_batch(self, batch: PacketBatch) -> None:
        """Inject a whole same-route window (the vectorized data plane).

        The window moves through each hop in **one** kernel callback:
        cumulative-sum FIFO reservation, one vectorized loss draw per
        (link, direction, window) consuming the identical stream order
        as per-packet draws, per-packet arrival times kept in the
        ``arrival`` column.  Delivery fires once at the window's last
        arrival.  A fault-armed network (which every sharded replica
        is) raises before anything is scheduled: send scalars there.
        """
        if batch.src.node not in self.hosts or batch.dst.node not in self.hosts:
            raise ValueError(f"unknown endpoint {batch.src} -> {batch.dst}")
        if self._fault_armed:
            raise RuntimeError(
                "batched windows need a network that cannot fault: this one has a "
                "FaultInjector or is a shard replica; send scalar packets instead"
            )
        route = self._route_for(batch.src.node, batch.dst.node, batch.src_nic, batch.dst_nic)
        n = len(batch)
        if type(route) is str:
            batch.alive[:] = False
            self.stats.add(f"dropped_{route}", float(n))
            return
        now = self.sim.now
        batch.send_time[:] = now
        self._sums["packets_sent"] += float(n)
        if not route.hops:  # loopback window
            batch.arrival[:] = now
            self.sim.call_in(0.0, self._deliver_batch, batch, route, self._topo_version)
            return
        self._hop_batch(batch, route, 0, batch.send_time)

    def _hop_batch(self, batch: PacketBatch, route: _Route, idx: int, ready: np.ndarray) -> None:
        """Advance the window across hop ``idx`` (one callback per hop)."""
        sim = self.sim
        idxs = batch.alive.nonzero()[0]
        k = len(idxs)
        if k == 0:
            return
        if idx > 0:
            # The per-object pipeline would have dispatched one arrival
            # callback per surviving packet for the previous hop.
            sim.credit_events(k - 1)
        link, end, stream, from_dev, _receiver = route.hops[idx]
        if not link.up or not from_dev.usable:
            self._drop_batch(batch, idxs, "element_down")
            return
        wire = batch.wire_bytes[idxs]
        ser = link.serialization_delay(wire)
        ready = ready[idxs]
        finish = fifo_finish_times(ready, ser, end.busy_until)
        end.busy_until = float(finish[-1])
        end.bytes_carried += int(np.add.reduce(wire))
        end.packets_carried += k
        wait = finish - ser
        wait -= ready
        np.maximum(wait, 0.0, out=wait)  # as _hop clamps: rounding can dip below 0
        self._queue_wait.observe_many(wait)
        lr = link.loss_rate
        if lr > 0.0:
            lost = stream.draw(k) < lr
            lost_at = lost.nonzero()[0]
            if len(lost_at):
                self._drop_batch(batch, idxs[lost_at], "link_loss", link=link)
                keep = ~lost
                idxs = idxs[keep]
                finish = finish[keep]
                if len(idxs) == 0:
                    return
        arrivals = finish + link.latency_s
        batch.arrival[idxs] = arrivals
        # Survivors of a lost tail may all have landed before this
        # callback's own time; the window still moves on no earlier
        # than now.
        t_next = max(float(arrivals[-1]), sim.now)
        if idx + 1 < len(route.hops):
            sim.call_at(t_next, self._hop_batch, batch, route, idx + 1, batch.arrival)
        else:
            sim.call_at(t_next, self._deliver_batch, batch, route, self._topo_version)

    def _drop_batch(self, batch: PacketBatch, idxs, reason: str, link: Optional[Link] = None) -> None:
        k = len(idxs)
        batch.alive[idxs] = False
        if link is not None:
            link.drops += k
        self._count_drops(reason, float(k))
        self._trace_batch("net.trace.drop", batch, idxs, f" ({reason})")

    def _trace_batch(self, topic: str, batch: PacketBatch, idxs, suffix: str = "") -> None:
        """One record per row of ``idxs``: published (rendered) when the
        bus is observed, counted for the flush hook otherwise."""
        if self._bus.has_subscribers:
            for i in idxs:
                self._bus.publish(
                    topic, message=f"pkt#{batch.pid[i]} {batch.src}->{batch.dst}{suffix}"
                )
        else:
            self._pending_traces[topic] += len(idxs)

    def _deliver_batch(self, batch: PacketBatch, route: _Route, version: int) -> None:
        """Single delivery callback at the window's last arrival."""
        sim = self.sim
        idxs = batch.alive.nonzero()[0]
        k = len(idxs)
        if k == 0:
            return
        sim.credit_events(k - 1)  # elided per-packet delivery callbacks
        if version != self._topo_version:
            for link, _end, _stream, from_dev, receiver in route.hops:
                if not link.up or not from_dev.usable:
                    self._drop_batch(batch, idxs, "link_died_in_flight")
                    return
                if not receiver.usable:
                    self._drop_batch(batch, idxs, "device_died_in_flight")
                    return
        nic = route.dst_nic
        if not (nic.up and nic.host.up):
            self._drop_batch(batch, idxs, "dst_down")
            return
        batch.hops[idxs] += len(route.hops)
        self._sums["packets_delivered"] += float(k)
        self._trace_batch("net.trace.deliver", batch, idxs)
        nic.host.deliver_batch(batch, idxs)

    # -- queries -----------------------------------------------------------

    def host_reachable(self, a: str, b: str) -> bool:
        """Whether any usable NIC pair of hosts ``a`` and ``b`` has a path."""
        ha, hb = self.hosts[a], self.hosts[b]
        if not (ha.up and hb.up):
            return False
        for na in ha.usable_nics():
            for nb in hb.usable_nics():
                if self.router.reachable(na, nb):
                    return True
        return False
