"""Routing edge cases: switch chains, parallel links, route changes."""

from collections import deque

import pytest

from repro.net import Endpoint, FaultInjector, Network, Nic, Switch
from repro.net.routing import Router
from repro.scenarios import CHURN_SMALL, SCENARIOS
from repro.sim import Simulator


def chain(n_switches=4, seed=1):
    """A -- s0 -- s1 -- ... -- s(n-1) -- B (single path)."""
    sim = Simulator(seed=seed)
    net = Network(sim)
    switches = [net.add_switch(f"s{i}") for i in range(n_switches)]
    for a, b in zip(switches, switches[1:]):
        net.link(a, b)
    ha = net.add_host("A")
    hb = net.add_host("B")
    net.link(ha.nic(0), switches[0])
    net.link(hb.nic(0), switches[-1])
    return sim, net, ha, hb, switches


def test_multihop_delivery_and_hop_count():
    sim, net, a, b, switches = chain(4)
    got = []
    b.bind(1, lambda p: got.append(p.hops))
    a.send(Endpoint("B", 1), "x", size_bytes=10)
    sim.run()
    assert got == [5]  # nic->s0, s0->s1, s1->s2, s2->s3, s3->nic


def test_mid_chain_switch_failure_breaks_route():
    sim, net, a, b, switches = chain(4)
    got = []
    b.bind(1, lambda p: got.append(p.payload))
    FaultInjector(net).fail(switches[2])
    a.send(Endpoint("B", 1), "x")
    sim.run()
    assert got == []
    assert net.stats.sums["dropped_unreachable"] == 1


def test_parallel_links_used_after_one_fails():
    # two cables between the same pair of switches: redundancy works
    sim = Simulator()
    net = Network(sim)
    s0, s1 = net.add_switch("s0"), net.add_switch("s1")
    l1 = net.link(s0, s1)
    l2 = net.link(s0, s1)
    a, b = net.add_host("A"), net.add_host("B")
    net.link(a.nic(0), s0)
    net.link(b.nic(0), s1)
    got = []
    b.bind(1, lambda p: got.append(p.payload))
    FaultInjector(net).fail(l1)
    a.send(Endpoint("B", 1), "via-l2")
    sim.run()
    assert got == ["via-l2"]


def test_route_recomputed_after_repair():
    sim, net, a, b, switches = chain(3)
    got = []
    b.bind(1, lambda p: got.append(p.payload))
    fi = FaultInjector(net)
    fi.fail(switches[1])
    a.send(Endpoint("B", 1), "lost")
    sim.run()
    fi.repair(switches[1])
    a.send(Endpoint("B", 1), "found")
    sim.run()
    assert got == ["found"]


def test_shortest_path_preferred():
    # diamond: A - s0 - {s1 | s2-s3} - s4 - B; direct branch is shorter
    sim = Simulator()
    net = Network(sim)
    s = [net.add_switch(f"s{i}") for i in range(5)]
    net.link(s[0], s[1])
    net.link(s[1], s[4])  # short branch: 2 inter-switch hops
    net.link(s[0], s[2])
    net.link(s[2], s[3])
    net.link(s[3], s[4])  # long branch: 3 inter-switch hops
    a, b = net.add_host("A"), net.add_host("B")
    net.link(a.nic(0), s[0])
    net.link(b.nic(0), s[4])
    got = []
    b.bind(1, lambda p: got.append(p.hops))
    a.send(Endpoint("B", 1), "x")
    sim.run()
    assert got == [4]  # nic, s0->s1, s1->s4, nic  (the short branch)


def test_latency_accumulates_over_chain():
    sim = Simulator()
    net = Network(sim, default_latency_s=1e-3, default_bandwidth_bps=1e12)
    switches = [net.add_switch(f"s{i}") for i in range(3)]
    for x, y in zip(switches, switches[1:]):
        net.link(x, y)
    a, b = net.add_host("A"), net.add_host("B")
    net.link(a.nic(0), switches[0])
    net.link(b.nic(0), switches[-1])
    arrivals = []
    b.bind(1, lambda p: arrivals.append(sim.now))
    a.send(Endpoint("B", 1), "x", size_bytes=1)
    sim.run()
    assert arrivals[0] == pytest.approx(4e-3, rel=0.01)  # 4 links x 1 ms


# -- the reference router ---------------------------------------------------
#
# The BFS ``Router`` ran before it kept trees over switches only: one walk
# from the source NIC over *every* device, a path list per visited vertex,
# nothing cached.  Kept verbatim as the oracle the switch-tree router must
# match link for link (``tests/test_property_suite.py`` draws the
# topologies and fault scripts).


def reference_bfs(src):
    """Single-source shortest paths; returns paths to every NIC."""
    paths = {}
    visited = {id(src)}
    frontier = deque([(src, [])])
    while frontier:
        device, links_so_far = frontier.popleft()
        # Only the source NIC and switches may be expanded.
        if device is not src and not isinstance(device, Switch):
            continue
        for link in device.links:
            if not link.up:
                continue
            nxt = link.other(device)
            if id(nxt) in visited or not nxt.usable:
                continue
            visited.add(id(nxt))
            new_path = links_so_far + [link]
            if isinstance(nxt, Nic):
                paths[id(nxt)] = new_path
            frontier.append((nxt, new_path))
    return paths


def reference_path(src, dst):
    if src is dst:
        return []
    if not (src.usable and src.connected and dst.usable and dst.connected):
        return None
    return reference_bfs(src).get(id(dst))


def all_nics(net):
    return [nic for host in net.hosts.values() for nic in host.nics]


def assert_matches_reference(net):
    """``Router.path`` is the reference BFS, link for link, on every pair."""
    nics = all_nics(net)
    for src in nics:
        want = reference_bfs(src) if src.usable and src.connected else {}
        for dst in nics:
            got = net.router.path(src, dst)
            if src is dst:
                assert got == []
            elif not (dst.usable and dst.connected):
                assert got is None
            else:
                # Link defines no __eq__: list equality is link identity
                assert got == want.get(id(dst)), (src, dst)


@pytest.fixture
def bfs_calls(monkeypatch):
    """Seed tuples of every ``Router._bfs`` call made during the test."""
    calls = []
    real = Router._bfs

    def counted(self, seeds):
        calls.append(seeds)
        return real(self, seeds)

    monkeypatch.setattr(Router, "_bfs", counted)
    return calls


def two_switch_fabric():
    """s0 -- s1; A and B on s0, C on s1, D dual-cabled to s1 then s0."""
    sim = Simulator(seed=1)
    net = Network(sim)
    s0, s1 = net.add_switch("s0"), net.add_switch("s1")
    trunk = net.link(s0, s1)
    hosts = [net.add_host(name, nics=2) for name in "ABCD"]
    a, b, c, d = (h.nic(0) for h in hosts)
    net.link(a, s0)
    net.link(b, s0)
    net.link(c, s1)
    far = net.link(d, s1)
    near = net.link(d, s0)
    return net, (s0, s1), trunk, (a, b, c, d), (far, near)


def test_destination_is_claimed_by_the_earliest_visited_switch():
    # D's *first* cable goes to s1, but a walk from A reaches s0 first and
    # s0 has a cable to D too: the one-hop route wins, not "dst.links[0]".
    net, _switches, _trunk, (a, _b, _c, d), (far, near) = two_switch_fabric()
    assert d.links == [far, near]
    assert net.router.path(a, d) == [a.links[0], near] == reference_path(a, d)
    FaultInjector(net).fail(near)
    assert net.router.path(a, d) == reference_path(a, d)
    assert net.router.path(a, d)[-1] is far
    assert_matches_reference(net)


def test_parallel_cables_claim_in_switch_port_order():
    sim = Simulator()
    net = Network(sim)
    s0 = net.add_switch("s0")
    a, b = net.add_host("A").nic(0), net.add_host("B", nics=2).nic(0)
    net.link(a, s0)
    first = net.link(s0, b)  # cabled from the switch side
    second = net.link(b, s0)
    direct = net.link(b, a)  # NIC-NIC, b's last cable and a's last cable
    fi = FaultInjector(net)
    assert net.router.path(a, b) == [direct]  # a direct cable wins outright
    fi.fail(direct)
    assert net.router.path(a, b) == [a.links[0], first]
    fi.fail(first)
    assert net.router.path(a, b) == [a.links[0], second]
    fi.repair(first)
    assert net.router.path(a, b) == [a.links[0], first]
    assert_matches_reference(net)


def test_multi_cabled_source_seeds_in_cable_order():
    # A hangs off s1 *then* s0; both reach C's switch s2 in one hop, so the
    # walk must leave over A's first cable, and over the second once s1 dies.
    sim = Simulator()
    net = Network(sim)
    s0, s1, s2 = (net.add_switch(f"s{i}") for i in range(3))
    net.link(s0, s2)
    net.link(s1, s2)
    a, c = net.add_host("A").nic(0), net.add_host("C").nic(0)
    via_s1 = net.link(a, s1)
    via_s0 = net.link(a, s0)
    net.link(c, s2)
    assert net.router.path(a, c)[0] is via_s1
    assert_matches_reference(net)
    FaultInjector(net).fail(s1)
    assert net.router.path(a, c)[0] is via_s0
    assert_matches_reference(net)


# -- what invalidates a tree, counted ---------------------------------------


def test_nics_on_one_switch_share_one_tree(bfs_calls):
    net, (s0, s1), _trunk, (a, b, c, _d), _ = two_switch_fabric()
    assert net.router.path(a, c) is not None
    assert net.router.path(b, c) is not None
    assert net.router.path(b, a) is not None
    assert bfs_calls == [(s0,)]
    assert net.router.path(c, a) is not None
    assert bfs_calls == [(s0,), (s1,)]


def test_host_and_nic_flips_leave_trees_standing(bfs_calls):
    net, _switches, _trunk, (a, b, c, d), _ = two_switch_fabric()
    fi = FaultInjector(net)
    assert_matches_reference(net)
    built = len(bfs_calls)
    fabric = net.fabric_version
    for element in (c.host, b, d.host, d):
        version = net._topo_version
        fi.fail(element)
        assert net._topo_version == version + 1  # _Route caches still drop
        assert_matches_reference(net)
        fi.repair(element)
        assert_matches_reference(net)
    assert net.fabric_version == fabric
    assert len(bfs_calls) == built
    fi.fail(c.host)
    assert net.router.path(a, c) is None and net.router.path(c, a) is None


def test_link_switch_and_cabling_changes_rebuild_on_next_use(bfs_calls):
    net, (s0, s1), trunk, (a, _b, c, _d), _ = two_switch_fabric()
    fi = FaultInjector(net)
    changes = [
        lambda: fi.fail(trunk),
        lambda: fi.repair(trunk),
        lambda: fi.fail(s1),
        lambda: fi.repair(s1),
        lambda: net.link(net.add_switch("s2"), s0),
        net.bump_topology,  # a bare bump stays the conservative "everything"
    ]
    assert net.router.path(a, c) is not None
    for change in changes:
        before = len(bfs_calls)
        fabric = net.fabric_version
        change()
        assert net.fabric_version > fabric
        assert len(bfs_calls) == before  # lazily: nothing until asked
        net.router.path(a, c)
        net.router.path(a, c)
        assert len(bfs_calls) == before + 1
        assert_matches_reference(net)


def test_churn_small_builds_at_most_one_tree_per_switch(bfs_calls):
    # 200 dual-homed nodes, 3 crashes and a recovery: host faults only, so
    # the whole run needs no more walks than the fabric has switches.
    cluster = SCENARIOS["churn-small"].run(seed=7)
    assert cluster.metrics().events["membership.node.token"] > 100
    assert 0 < len(bfs_calls) <= CHURN_SMALL["switches"]
    assert len(set(bfs_calls)) == len(bfs_calls)
