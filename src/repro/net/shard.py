"""Shard-aware network: partition-local delivery over replicated topology.

Each shard kernel owns a :class:`ShardedNetwork` holding a **full
replica** of the cluster topology, constructed in identical order in
every shard (deterministic link ids = list indices), but with protocol
stacks bound only on the hosts the shard *owns*.  Every hop of a packet
executes in the shard that owns the hop's *from*-device, so each
direction of each link — its serializer state, byte counters, and loss
draws — is driven by exactly one shard.  When a hop's receiver belongs
to another shard, the arrival is staged as a :class:`~repro.sim.shard.Handoff`
— the packet itself, by reference, plus the hop's timing and a
replica-stable name for its route — and injected at the start of the
next round with the exact
``(sched_time, origin, seq)`` key a local schedule would have produced,
which is what keeps the event schedule — and therefore every exported
artifact — independent of the shard layout.

Replica consistency is maintained by replicating *control* actions
(fault injection, recovery) into every kernel at identical keys
(:meth:`repro.sim.shard.ShardedSimulator.control_each`), so ``link.up``
and routing state agree across shards at all times.
"""

from __future__ import annotations

from typing import Any

from ..sim.shard import Handoff, ShardKernel, host_origin, packet_origin
from .device import Device
from .link import Link
from .network import Network, _Route
from .nic import Nic
from .node import Host
from .packet import Packet

__all__ = ["ShardedNetwork"]


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
        # A replica refuses batched windows: the per-hop route is what
        # stages cross-shard handoffs and keeps the keyed event schedule
        # layout-invariant.
        self.arm_faults()

    # -- replica-stable identities --------------------------------------

    def mint_lid(self) -> int:
        # Link ids are list indices in construction order — identical in
        # every replica, unlike the process-global default counter.
        return len(self.links)

    def mint_pid(self, host: Host) -> tuple:
        hi = self.host_index[host.name]
        return (hi, self.sim.mint_origin_seq(("pid", hi)))

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
        # Devices and links are named by replica-stable identities: a
        # route key is host name, NIC index and link ids (list indices).
        self.sim.stage(Handoff(dest, arrival, (arrival, now, idx, route.key, pkt)))

    def _inject_arrival(self, payload: tuple) -> None:
        """Injection handler (``kernel.on_inject``).

        Resolves the packet's route against this replica's objects and
        schedules its next-hop arrival with the key the sending shard
        would have used locally (``sched_time`` = the hop's start time).
        """
        arrival, hop_start, idx, key, pkt = payload
        routes = self._route_cache
        route = routes.get(key)
        if route is None:
            host, ifindex, lids = key
            route = routes[key] = self._route_over(
                self.hosts[host].nic(ifindex), [self.links[lid] for lid in lids]
            )
        self.sim.schedule_keyed(
            arrival,
            packet_origin(*pkt.pid),
            idx,
            self._hop,
            pkt,
            route,
            idx + 1,
            sched_time=hop_start,
        )

    def _deliver(self, pkt: Packet, nic: Nic) -> None:
        # Re-root from the packet-chain origin to the destination host's
        # origin: everything the delivery handler schedules (acks, token
        # passes, timers) must be keyed to the *host*, whose per-origin
        # counters advance identically in every shard layout.
        with self.sim.origin(host_origin(self.host_index[nic.host.name])):
            super()._deliver(pkt, nic)
