"""Tests for the RainCluster facade."""

import pytest

from repro import ClusterConfig, RainCluster, Simulator
from repro.codes import XCode
from repro.membership import MembershipConfig
from repro.rudp import RudpTransport


def test_default_shape_matches_testbed_style():
    sim = Simulator(seed=1)
    cl = RainCluster(sim)
    assert len(cl.hosts) == 4
    assert all(len(h.nics) == 2 for h in cl.hosts)
    assert len(cl.switches) == 2
    # NIC j on plane j
    for h in cl.hosts:
        assert cl.network.find_link(h.nic(0), cl.switches[0]) is not None
        assert cl.network.find_link(h.nic(1), cl.switches[1]) is not None


def test_invalid_config_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        RainCluster(sim, ClusterConfig(nics=0))
    with pytest.raises(ValueError):
        RainCluster(sim, ClusterConfig(switches=0))


def test_names_and_lookups():
    sim = Simulator(seed=1)
    cl = RainCluster(sim, ClusterConfig(nodes=3))
    assert cl.names == ["node0", "node1", "node2"]
    assert cl.host(1).name == "node1"
    assert cl.member(2).name == "node2"
    assert cl.transport(0).host is cl.host(0)


def test_monitoring_enabled_by_default():
    sim = Simulator(seed=1)
    cl = RainCluster(sim)
    assert cl.transports[0].monitors is not None
    sim.run(until=1.0)
    assert cl.transports[0].monitors.path("node1", 0, 0).is_up


def test_monitoring_can_be_disabled():
    sim = Simulator(seed=1)
    cl = RainCluster(sim, ClusterConfig(monitor=None))
    assert cl.transports[0].monitors is None


def test_monitors_watch_only_other_members():
    # A host outside the cluster runs no LinkMonitorService and a path
    # from a node to itself crosses no cable: neither is watched, so no
    # hello goes unanswered.
    sim = Simulator(seed=1)
    cl = RainCluster(sim, ClusterConfig(nodes=3))
    outside = cl.network.add_host("outside", nics=2)
    cl.network.link(outside.nic(0), cl.switches[0])
    cl.network.link(outside.nic(1), cl.switches[1])
    got = []
    cl.transport(0).register("probe", lambda src, data: got.append(data))
    RudpTransport(outside).send("node0", "probe", "from outside")
    cl.transport(0).send("node0", "probe", "to itself")
    sim.run(until=3.0)
    assert sorted(got) == ["from outside", "to itself"]
    assert cl.network.stats.sums["dropped_no_handler"] == 0
    watched = {peer for tp in cl.transports for (peer, _, _) in tp.monitors.paths}
    assert watched == {"node0", "node1", "node2"}
    for tp in cl.transports:
        assert all(peer not in (tp.host.name, "outside") for (peer, _, _) in tp.monitors.paths)


def test_more_nics_than_switches_wraps():
    sim = Simulator(seed=1)
    cl = RainCluster(sim, ClusterConfig(nodes=2, nics=4, switches=2))
    h = cl.host(0)
    assert cl.network.find_link(h.nic(2), cl.switches[0]) is not None
    assert cl.network.find_link(h.nic(3), cl.switches[1]) is not None


def test_store_on_custom_nodes_subset():
    sim = Simulator(seed=1)
    cl = RainCluster(sim, ClusterConfig(nodes=6))
    sim.run(until=1.0)
    store = cl.store_on(0, XCode(5), nodes=cl.names[:5])
    data = b"subset placement"
    sim.run_process(store.store("s", data), until=sim.now + 10)
    assert "s" not in cl.storage_nodes[5].symbols
    out = sim.run_process(store.retrieve("s"), until=sim.now + 10)
    assert out == data


def test_crash_recover_roundtrip():
    sim = Simulator(seed=1)
    cl = RainCluster(sim, ClusterConfig(nodes=4))
    sim.run(until=2.0)
    cl.crash(2)
    assert not cl.host(2).up
    sim.run(until=8.0)
    assert cl.live_members_converged()
    cl.recover(2)
    sim.run(until=25.0)
    assert cl.live_members_converged()
    assert set(cl.member(0).membership) == set(cl.names)


def test_custom_membership_config_applied():
    cfg = ClusterConfig(membership=MembershipConfig(detection="conservative"))
    sim = Simulator(seed=1)
    cl = RainCluster(sim, cfg)
    from repro.membership import ConservativeDetection

    assert all(isinstance(m.policy, ConservativeDetection) for m in cl.membership)


def test_elections_attached_per_node():
    sim = Simulator(seed=1)
    cl = RainCluster(sim, ClusterConfig(nodes=3))
    sim.run(until=2.0)
    assert [e.leader for e in cl.elections] == ["node0"] * 3
