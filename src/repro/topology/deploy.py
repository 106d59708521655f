"""Instantiate a :class:`TopologyGraph` as a live simulated network.

Bridges the static analysis world (Sec. 2.1 constructions) and the
protocol world: :func:`wire` cables the same construction that was
analyzed for partition resistance, in
:meth:`~repro.topology.TopologyGraph.edge_ids` order, so an analysis
fault tag names one live element
(:meth:`repro.cluster.ShardedRainCluster.element`).
"""

from __future__ import annotations

from typing import Sequence

from ..net import Host, Network, Switch
from .graph import TopologyGraph

__all__ = ["wire"]


def wire(
    net: Network,
    topo: TopologyGraph,
    node_names: Sequence[str],
    switch_prefix: str,
    switch_ports: int,
) -> tuple[list[Host], list[Switch]]:
    """Build ``topo``'s switches, hosts, node links and switch links on
    ``net`` — in that order, so ``net.links`` follows
    ``topo.edge_ids()`` index for index.

    Host ``i`` gets one NIC per attachment, in the order the
    construction listed them; the switch port budget is ``switch_ports``
    raised to the construction's highest switch degree.  Returns
    ``(hosts, switches)``.
    """
    nd, sd = topo.degrees()
    ports = max(switch_ports, max(sd.values(), default=0))
    switches = [
        net.add_switch(f"{switch_prefix}{j}", ports=ports)
        for j in range(topo.num_switches)
    ]
    hosts = [
        net.add_host(node_names[i], nics=max(1, nd.get(i, 0)))
        for i in range(topo.num_nodes)
    ]
    next_nic = [0] * topo.num_nodes
    for n, s in topo.node_links:
        net.link(hosts[n].nic(next_nic[n]), switches[s])
        next_nic[n] += 1
    for a, b in topo.switch_links:
        net.link(switches[a], switches[b])
    return hosts, switches
