"""Tests for cabling topology graphs as live networks."""

import pytest

from repro.cluster import ShardedRainCluster
from repro.net import Endpoint, FaultInjector, Network
from repro.sim import Simulator
from repro.topology import (
    FaultSet,
    analyze,
    constant_degree_diameter,
    diameter_ring,
    enumerate_elements,
    fig1_testbed,
    naive_ring,
    worst_case,
)
from repro.topology.deploy import wire


def _wired(topo, switch_ports=8):
    """``topo`` cabled on a fresh network: hosts ``c<i>``, switches ``s<j>``."""
    sim = Simulator()
    net = Network(sim)
    names = [f"c{i}" for i in range(topo.num_nodes)]
    hosts, switches = wire(net, topo, names, "s", switch_ports)
    return sim, net, hosts, switches, FaultInjector(net)


def test_deploy_element_counts():
    _, net, hosts, switches, _ = _wired(diameter_ring(6))
    assert len(hosts) == 6
    assert len(switches) == 6
    ends = [(lk.a.host, lk.b) for lk in net.links[:12]]
    assert ends == [(hosts[n], switches[s]) for n, s in diameter_ring(6).node_links]
    ring = [(switches[j], switches[(j + 1) % 6]) for j in range(6)]
    assert [(lk.a, lk.b) for lk in net.links[12:]] == ring
    assert all(len(h.nics) == 2 for h in hosts)


def test_deployed_network_carries_traffic():
    sim, _, hosts, *_ = _wired(diameter_ring(6))
    got = []
    hosts[3].bind(5, lambda p: got.append(p.payload))
    hosts[0].send(Endpoint("c3", 5), "ping")
    sim.run()
    assert got == ["ping"]


def test_live_faults_match_static_analysis():
    # The same fault set must yield the same reachability verdict in the
    # static analysis and on the cabled network.
    topo = diameter_ring(10)
    _, net, _, switches, faults = _wired(topo)
    # isolate node 0: kill s0 and s6
    faults.fail(switches[0])
    faults.fail(switches[6])
    report = analyze(topo, FaultSet(switches=frozenset({0, 6})))
    assert report.component_sizes == (9, 1)
    assert not net.host_reachable("c0", "c1")
    assert net.host_reachable("c1", "c5")


def test_switch_ports_sized_for_extra_nodes():
    topo = diameter_ring(10, num_nodes=30)  # switch degree 8
    _, _, _, switches, _ = _wired(topo)
    assert all(len(s.links) <= s.port_count for s in switches)


def test_naive_deploy_partition_behaviour():
    _, net, _, switches, faults = _wired(naive_ring(10))
    # Fig. 4b: two opposite switch failures split the cluster
    faults.fail(switches[0])
    faults.fail(switches[5])
    assert net.host_reachable("c1", "c2")
    assert not net.host_reachable("c1", "c6")


def _live_component_sizes(net, names) -> tuple:
    """Sizes of the classes of up hosts that reach each other, descending."""
    left = [name for name in names if net.hosts[name].up]
    sizes = []
    while left:
        first, *rest = left
        left = [name for name in rest if not net.host_reachable(first, name)]
        sizes.append(len(rest) - len(left) + 1)
    return tuple(sorted(sizes, reverse=True))


_RING10 = diameter_ring(10)


#: ``analyze`` joins two switches through any host cabled to both; a
#: live host never forwards, so with switches {0, 2, 6} down, c2 (on
#: s8) and c4 (on s4) are one component to the analysis, (8, 1, 1),
#: but cannot reach each other on the network, (7, 1, 1, 1).
_HOSTS_DO_NOT_RELAY = pytest.mark.xfail(
    strict=True, reason="the analysis relays through multi-homed hosts; the network does not"
)


@pytest.mark.parametrize(
    "kinds, pick",
    [
        (("switch", "node", "link"), "worst_faults"),
        pytest.param(("switch", "link"), "worst_faults", marks=_HOSTS_DO_NOT_RELAY),
        (("switch",), "split_example"),
        (("link",), "worst_faults"),
    ],
    ids=["worst", "fabric-worst", "switch-split", "link-worst"],
)
def test_worst_case_replayed_on_the_sharded_cluster(kinds, pick):
    """A fault set attaining ``worst_case``'s 3-fault maximum on
    ``diameter_ring(10)`` (or, for switches, one that partitions it),
    replayed with ``fail_at`` on two shards: every replica's
    reachability splits the surviving hosts exactly as ``analyze``'s
    components do."""
    worst = worst_case(_RING10, 3, kinds=kinds)
    faults = getattr(worst, pick)
    report = analyze(_RING10, faults)
    assert report.nodes_lost == worst.max_lost or report.is_partitioned
    cluster = ShardedRainCluster(_RING10, seed=7, shards=2)
    tags = (
        [("switch", j) for j in sorted(faults.switches)]
        + [("node", i) for i in sorted(faults.nodes)]
        + [("link", eid) for eid in sorted(faults.links)]
    )
    for tag in tags:
        cluster.fail_at(0.1, tag)
    cluster.run(0.2)
    for rep in cluster.replicas:
        assert _live_component_sizes(rep.net, cluster.names) == report.component_sizes


@pytest.mark.parametrize(
    "topo",
    [diameter_ring(10), fig1_testbed(), constant_degree_diameter(16, 6, 2, 40)],
    ids=lambda topo: topo.name,
)
def test_every_analysis_tag_names_its_live_element(topo):
    """On every replica a node tag is the host, a switch tag the switch,
    a link tag the cable between the edge's two ends, and a NIC tag the
    host's NIC: the resolver and ``wire()`` agree on ``edge_ids()``."""
    cluster = ShardedRainCluster(topo, seed=7, shards=2)
    for rep in cluster.replicas:
        seen = set()
        for tag in enumerate_elements(topo):
            element = cluster.element(rep, tag)
            kind, ident = tag
            if kind == "node":
                assert element is rep.hosts[ident]
            elif kind == "switch":
                assert element is rep.switches[ident]
            elif ident[0] == "ns":
                assert element.a.host is rep.hosts[ident[1]]
                assert element.b is rep.switches[ident[2]]
            else:
                assert {element.a, element.b} == {rep.switches[ident[1]], rep.switches[ident[2]]}
            seen.add(id(element))
        assert len(seen) == topo.num_nodes + topo.num_switches + len(topo.edge_ids())
        assert cluster.element(rep, ("nic", (3, 1))) is rep.hosts[3].nic(1)


@pytest.mark.parametrize(
    "tag",
    [
        ("router", 0),
        ("node", 6),
        ("node", -1),
        ("switch", 6),
        ("link", ("ss", 0, 3, 0)),
        ("link", ("ns", 0, 5)),
        ("nic", (0, 2)),
        ("nic", (6, 0)),
    ],
    ids=repr,
)
def test_unknown_tags_raise_at_registration(tag):
    """A bad tag fails when the script is written, leaving nothing
    scheduled in any kernel."""
    cluster = ShardedRainCluster(diameter_ring(6), seed=7, shards=2)
    queued = [k._n_queued for k in cluster.sharded.kernels]
    for script in (cluster.fail_at, cluster.repair_at):
        with pytest.raises(KeyError):
            script(0.5, tag)
    assert [k._n_queued for k in cluster.sharded.kernels] == queued
    cluster.run(1.0)
    assert all(not rep.faults.log for rep in cluster.replicas)
