"""Instantiate a :class:`TopologyGraph` as a live simulated network.

Bridges the static analysis world (Sec. 2.1 constructions) and the
protocol world: the same diameter construction that was analyzed for
partition resistance can be deployed, loaded with RUDP/membership
traffic, and subjected to fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..net import FaultInjector, Host, Link, Network, Switch
from ..sim import Simulator
from .graph import TopologyGraph

__all__ = ["Deployment", "deploy", "wire"]


@dataclass
class Deployment:
    """A live network built from a topology graph.

    Keeps the graph↔network correspondence so experiments can translate
    analysis-level fault sets into injections on the live elements.
    """

    topo: TopologyGraph
    network: Network
    hosts: list[Host]
    switches: list[Switch]
    node_links: dict[tuple[int, int], Link]  # (node, k-th attachment) -> link
    switch_links: list[Link]
    faults: FaultInjector

    def host_of(self, node: int) -> Host:
        """Live host for compute node ``node``."""
        return self.hosts[node]

    def switch_of(self, j: int) -> Switch:
        """Live switch for switch index ``j``."""
        return self.switches[j]


def wire(
    net: Network,
    topo: TopologyGraph,
    node_names: Sequence[str],
    switch_prefix: str,
    switch_ports: int,
    **link_kwargs,
) -> tuple[list[Host], list[Switch], dict[tuple[int, int], Link], list[Link]]:
    """Build ``topo``'s switches, hosts, node links and switch links on
    ``net`` — in that order, which fixes every link id.

    Host ``i`` gets one NIC per attachment, in the order the
    construction listed them; the switch port budget is ``switch_ports``
    raised to the construction's highest switch degree.  Returns
    ``(hosts, switches, node_links, switch_links)``.
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
    node_links: dict[tuple[int, int], Link] = {}
    next_nic = [0] * topo.num_nodes
    for n, s in topo.node_links:
        k = next_nic[n]
        next_nic[n] += 1
        node_links[(n, k)] = net.link(hosts[n].nic(k), switches[s], **link_kwargs)
    switch_links = [
        net.link(switches[a], switches[b], **link_kwargs) for a, b in topo.switch_links
    ]
    return hosts, switches, node_links, switch_links


def deploy(
    topo: TopologyGraph,
    sim: Simulator,
    switch_ports: int = 8,
    **link_kwargs,
) -> Deployment:
    """Build hosts ``c<i>``, switches ``s<j>`` and cables matching
    ``topo`` on a fresh network (raise ``switch_ports`` for high-degree
    constructions; see :func:`wire`)."""
    net = Network(sim)
    names = [f"c{i}" for i in range(topo.num_nodes)]
    hosts, switches, node_links, switch_links = wire(
        net, topo, names, "s", switch_ports, **link_kwargs
    )
    gauges = sim.obs.metrics.gauge(
        "topology.deploy.elements", help="live elements built from the topology graph"
    )
    gauges.labels(kind="hosts").set(len(hosts))
    gauges.labels(kind="switches").set(len(switches))
    gauges.labels(kind="links").set(len(node_links) + len(switch_links))
    return Deployment(
        topo=topo,
        network=net,
        hosts=hosts,
        switches=switches,
        node_links=node_links,
        switch_links=switch_links,
        faults=FaultInjector(net),
    )
