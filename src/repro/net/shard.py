"""Shard-aware network: partition-local delivery over replicated topology.

Each shard kernel owns a :class:`ShardedNetwork` holding a **full
replica** of the cluster topology, constructed in identical order in
every shard (deterministic link ids = list indices), but with protocol
stacks bound only on the hosts the shard *owns*.  Every hop of a packet
executes in the shard that owns the hop's *from*-device, so each
direction of each link — its serializer state, byte counters, and loss
draws — is driven by exactly one shard.  When a hop's receiver belongs
to another shard, the arrival is staged as a :class:`~repro.sim.shard.Handoff`
and injected at the next synchronization barrier with the exact
``(sched_time, origin, seq)`` key a local schedule would have produced,
which is what keeps the event schedule — and therefore every exported
artifact — independent of the shard layout.

Replica consistency is maintained by replicating *control* actions
(fault injection, recovery) into every kernel at identical keys
(:meth:`repro.sim.shard.ShardedSimulator.control_each`), so ``link.up``
and routing state agree across shards at all times.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..sim.shard import Handoff, ShardKernel, host_origin, packet_origin
from .device import Device
from .link import Link
from .network import Network, _Route
from .nic import Nic
from .node import Host
from .packet import Packet

__all__ = ["ShardedNetwork"]


@dataclass(slots=True)
class _WireBatch:
    """One window's crossing packets to one destination shard, columnar.

    The struct-of-arrays layout mirrors :class:`repro.net.batch.
    PacketBatch`: one column per field, one row per packet.  Crossing
    hops append straight into the columns while the window runs; the
    barrier flush turns the numeric ones into numpy arrays, so a whole
    window serializes as a single pickle with a handful of array
    buffers, not N object graphs.  Fields that are inherently objects
    (payloads, endpoints, route keys) stay as lists — opaque to the
    wire format, exactly as ``PacketBatch`` carries payloads.

    Devices and links are named by replica-stable identities (a route
    key is host name, NIC index and link ids; link ids are list
    indices).  ``send_time`` uses NaN for ``None`` (simulation
    timestamps are always finite, so the encoding is unambiguous); the
    live span, if any, travels as its id in the object lane and is
    re-attached from the shared open-span table on the receiving side
    (in-process executor only — the multiprocessing executor refuses
    tracers).
    """

    arrival: Any = field(default_factory=list)  # f8 — per-packet hop arrival time
    hop_start: Any = field(default_factory=list)  # f8 — hop start (= the keyed sched_time)
    send_time: Any = field(default_factory=list)  # f8, NaN encodes None
    idx: Any = field(default_factory=list)  # i8 — hop index into the route (the key seq)
    size_bytes: Any = field(default_factory=list)  # i8
    hops: Any = field(default_factory=list)  # i8 — hop count already accumulated
    pid_host: Any = field(default_factory=list)  # i8 — packet id = (host index, per-host seq)
    pid_seq: Any = field(default_factory=list)  # i8
    src: list = field(default_factory=list)
    dst: list = field(default_factory=list)
    payload: list = field(default_factory=list)
    src_nic: list = field(default_factory=list)
    dst_nic: list = field(default_factory=list)
    ctx: list = field(default_factory=list)
    span_id: list = field(default_factory=list)
    route_key: list = field(default_factory=list)  # _Route.key of the path in flight

    def freeze(self) -> None:
        """Turn the numeric columns into numpy arrays for the wire."""
        for name in ("arrival", "hop_start", "send_time"):
            setattr(self, name, np.array(getattr(self, name), dtype=np.float64))
        for name in ("idx", "size_bytes", "hops", "pid_host", "pid_seq"):
            setattr(self, name, np.array(getattr(self, name), dtype=np.int64))


class ShardedNetwork(Network):
    """A :class:`Network` replica owned by one shard kernel.

    Parameters
    ----------
    kernel:
        The owning :class:`~repro.sim.shard.ShardKernel`; its
        ``on_inject`` hook is claimed by this network.
    owner:
        Element name (host or switch) -> shard rank, for every element.
        Must be identical across all replicas.
    host_index:
        Host name -> 0-based cluster index, the layout-invariant host
        identity that origins, packet ids, and span ids are minted from.
    """

    def __init__(
        self,
        kernel: ShardKernel,
        owner: dict,
        host_index: dict,
        **net_kwargs: Any,
    ):
        super().__init__(kernel, **net_kwargs)
        self.rank = kernel.rank
        self.owner = owner
        self.host_index = host_index
        kernel.on_inject = self._inject_arrival
        #: crossing packets accumulated during the current window,
        #: keyed by destination shard; one columnar Handoff per dest is
        #: emitted at the barrier by :meth:`_flush_staged`.
        self._staged_wire: dict[int, _WireBatch] = {}
        kernel.outbox_flushers.append(self._flush_staged)
        # Batched windows become scalar transmits here: the per-hop
        # route is what stages cross-shard handoffs and keeps the keyed
        # event schedule layout-invariant.
        self.arm_faults()

    # -- replica-stable identities --------------------------------------

    def mint_lid(self) -> int:
        # Link ids are list indices in construction order — identical in
        # every replica, unlike the process-global default counter.
        return len(self.links)

    def mint_pid(self, host: Host) -> tuple:
        hi = self.host_index[host.name]
        return (hi, self.sim.mint_origin_seq(("pid", hi)))

    def mint_pid_batch(self, host: Host, n: int) -> list:
        # Batched sends mint from the same keyed per-origin counters as
        # sequential sends, so a window's ids — and everything keyed off
        # them — are identical in every shard layout.
        return [self.mint_pid(host) for _ in range(n)]

    def owns(self, name: str) -> bool:
        """Whether this shard owns the named element."""
        return self.owner[name] == self.rank

    def _owner_of(self, device: Device) -> int:
        if isinstance(device, Nic):
            return self.owner[device.host.name]
        return self.owner[device.name]

    def _loss_stream_name(self, link: Link, from_device: Device) -> str:
        # Replica-stable: lids are list indices here, identical in every
        # shard layout (unlike the plain network's process-global lids,
        # which is why the base class keys by device names instead).
        return f"net.loss:{link.lid}:{from_device.name}"

    # -- forwarding ------------------------------------------------------

    def _forward(self, pkt: Packet, route: _Route, idx: int, arrival: float) -> None:
        now = self.sim.now
        dest = self._owner_of(route.hops[idx][4])
        if dest == self.rank:
            self.sim.schedule_keyed(
                arrival,
                packet_origin(*pkt.pid),
                idx,
                self._hop,
                pkt,
                route,
                idx + 1,
                sched_time=now,
            )
            return
        hb = self.sim._hb
        if hb is not None:
            # Per-packet stage hook at stage *time*: HB001/HB002 see
            # every staged arrival even though the wire blob is built
            # once per window at flush.
            hb.on_stage(self.rank, dest, arrival)
        wire = self._staged_wire.get(dest)
        if wire is None:
            wire = self._staged_wire[dest] = _WireBatch()
        span = pkt.span
        send_time = pkt.send_time
        wire.arrival.append(arrival)
        wire.hop_start.append(now)
        wire.send_time.append(np.nan if send_time is None else send_time)
        wire.idx.append(idx)
        wire.size_bytes.append(pkt.size_bytes)
        wire.hops.append(pkt.hops)
        wire.pid_host.append(pkt.pid[0])
        wire.pid_seq.append(pkt.pid[1])
        wire.src.append(pkt.src)
        wire.dst.append(pkt.dst)
        wire.payload.append(pkt.payload)
        wire.src_nic.append(pkt.src_nic)
        wire.dst_nic.append(pkt.dst_nic)
        wire.ctx.append(pkt.ctx)
        wire.span_id.append(None if span is None else span.span_id)
        wire.route_key.append(route.key)

    def _flush_staged(self) -> None:
        """Barrier-time flush: one columnar handoff per destination.

        Destinations are visited in rank order so the outbox — and
        therefore the coordinator's routing — is deterministic
        regardless of dict insertion order.
        """
        staged = self._staged_wire
        if not staged:
            return
        outbox = self.sim.outbox
        for dest in sorted(staged):
            wire = staged[dest]
            wire.freeze()
            outbox.append(Handoff(dest, float(wire.arrival.min()), pickle.dumps(wire)))
        staged.clear()

    def _inject_arrival(self, wire: _WireBatch) -> None:
        """Barrier-time injection handler (``kernel.on_inject``).

        Rebuilds one columnar window of in-flight packets against this
        replica's objects and schedules each next-hop arrival with the
        key the sending shard would have used locally (``sched_time`` =
        the hop's start time).
        """
        routes = self._routes()
        tracer = self.sim.obs.tracer
        schedule_keyed = self.sim.schedule_keyed
        hop = self._hop
        send_time = wire.send_time
        for i in range(len(wire.payload)):
            st = send_time[i]
            pkt = Packet(
                src=wire.src[i],
                dst=wire.dst[i],
                payload=wire.payload[i],
                size_bytes=int(wire.size_bytes[i]),
                src_nic=wire.src_nic[i],
                dst_nic=wire.dst_nic[i],
                pid=(int(wire.pid_host[i]), int(wire.pid_seq[i])),
                send_time=None if st != st else float(st),
                hops=int(wire.hops[i]),
                ctx=wire.ctx[i],
            )
            span_id = wire.span_id[i]
            if span_id is not None and tracer is not None:
                pkt.span = tracer._by_id.get(span_id)
            key = wire.route_key[i]
            route = routes.get(key)
            if route is None:
                host, ifindex, lids = key
                route = routes[key] = self._route_over(
                    self.hosts[host].nic(ifindex), [self.links[lid] for lid in lids]
                )
            idx = int(wire.idx[i])
            schedule_keyed(
                float(wire.arrival[i]),
                packet_origin(*pkt.pid),
                idx,
                hop,
                pkt,
                route,
                idx + 1,
                sched_time=float(wire.hop_start[i]),
            )

    def _deliver(self, pkt: Packet, nic: Nic) -> None:
        # Re-root from the packet-chain origin to the destination host's
        # origin: everything the delivery handler schedules (acks, token
        # passes, timers) must be keyed to the *host*, whose per-origin
        # counters advance identically in every shard layout.
        with self.sim.origin(host_origin(self.host_index[nic.host.name])):
            super()._deliver(pkt, nic)
