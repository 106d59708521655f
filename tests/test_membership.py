"""Tests for the token-ring group membership protocol (paper Sec. 3)."""

import pytest

from repro.membership import (
    AggressiveDetection,
    ConservativeDetection,
    MembershipConfig,
    Token,
    build_membership,
    make_policy,
    membership_converged,
)
from repro.net import FaultInjector, Network
from repro.sim import Simulator


def star_cluster(n=4, detection="aggressive", seed=1, config=None):
    """n single-NIC hosts named A.. on one big switch."""
    sim = Simulator(seed=seed)
    net = Network(sim)
    sw = net.add_switch("SW", ports=64)
    hosts = []
    for i in range(n):
        h = net.add_host(chr(ord("A") + i))
        net.link(h.nic(0), sw)
        hosts.append(h)
    cfg = config or MembershipConfig(detection=detection)
    nodes = build_membership(hosts, cfg)
    return sim, net, hosts, nodes


def mesh_cluster(n=4, detection="aggressive", seed=1):
    """Full mesh of direct NIC-to-NIC cables: individual pair links can
    be cut (needed for the Fig. 9 partial-disconnection scenarios)."""
    sim = Simulator(seed=seed)
    net = Network(sim)
    hosts = [net.add_host(chr(ord("A") + i), nics=n - 1) for i in range(n)]
    nic_next = [0] * n
    pair_links = {}
    for i in range(n):
        for j in range(i + 1, n):
            li, lj = nic_next[i], nic_next[j]
            nic_next[i] += 1
            nic_next[j] += 1
            pair_links[(hosts[i].name, hosts[j].name)] = net.link(
                hosts[i].nic(li), hosts[j].nic(lj)
            )
    nodes = build_membership(hosts, MembershipConfig(detection=detection))
    return sim, net, hosts, nodes, pair_links


class TestTokenDataclass:
    def test_next_after_wraps(self):
        t = Token(seq=1, ring=["A", "B", "C"])
        assert t.next_after("C") == "A"
        assert t.next_after("A") == "B"

    def test_next_after_alone_or_absent(self):
        t = Token(seq=1, ring=["A"])
        assert t.next_after("A") == "A"
        assert t.next_after("Z") == "Z"

    def test_remove_and_insert(self):
        t = Token(seq=1, ring=["A", "B", "C", "D"])
        t.remove("B")
        assert t.ring == ("A", "C", "D")
        t.insert_after("C", "B")
        assert t.ring == ("A", "C", "B", "D")
        t.insert_after("C", "B")  # idempotent
        assert t.ring == ("A", "C", "B", "D")

    def test_insert_after_missing_anchor_appends(self):
        t = Token(seq=1, ring=["A"])
        t.insert_after("Z", "B")
        assert t.ring == ("A", "B")

    def test_demote_swaps_with_successor(self):
        t = Token(seq=1, ring=["A", "B", "C", "D"])
        t.demote("B")
        assert t.ring == ("A", "C", "B", "D")  # the paper's Fig. 9c reorder

    def test_copy_is_independent(self):
        # The ring is immutable and shared; every edit replaces it on
        # the copy that made it and leaves the original untouched.
        t = Token(seq=1, ring=["A", "B", "C", "D"], attachments={"q": [1]})
        c = t.copy()
        assert c.ring is t.ring and c.members is t.members
        assert not hasattr(t.ring, "append")
        c.remove("B")
        c.insert_after("A", "E")
        c.demote("C")
        c.attachments["q"] = [2]
        assert c.ring == ("A", "E", "D", "C")
        assert t.ring == ("A", "B", "C", "D") and t.attachments == {"q": [1]}
        assert t.members == {"A", "B", "C", "D"}
        assert c.members == {"A", "C", "D", "E"}

    def test_demote_keeps_the_member_set(self):
        t = Token(seq=1, ring=["A", "B", "C"])
        members = t.members
        t.demote("A")
        assert t.ring == ("B", "A", "C") and t.members is members


class TestDetectionPolicies:
    def test_aggressive_removes_immediately(self):
        t = Token(seq=1, ring=["A", "B", "C"])
        assert AggressiveDetection().on_send_failure(t, "A", "B") == "B"
        assert t.ring == ("A", "C")

    def test_conservative_demotes_then_removes(self):
        t = Token(seq=1, ring=["A", "B", "C", "D"])
        pol = ConservativeDetection(threshold=2)
        assert pol.on_send_failure(t, "A", "B") is None
        assert t.ring == ("A", "C", "B", "D")
        assert pol.on_send_failure(t, "C", "B") == "B"
        assert t.ring == ("A", "C", "D")

    def test_conservative_success_resets_count(self):
        t = Token(seq=1, ring=["A", "B", "C", "D"])
        pol = ConservativeDetection(threshold=2)
        pol.on_send_failure(t, "A", "B")
        pol.on_send_success(t, "B")
        assert pol.on_send_failure(t, "C", "B") is None  # count restarted

    def test_policy_factory(self):
        assert isinstance(make_policy("aggressive"), AggressiveDetection)
        assert isinstance(make_policy("conservative"), ConservativeDetection)
        with pytest.raises(ValueError):
            make_policy("psychic")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MembershipConfig(detection="nope")
        with pytest.raises(ValueError):
            MembershipConfig(conservative_threshold=0)


class TestHealthyRing:
    def test_all_views_converge(self):
        sim, net, hosts, nodes = star_cluster(4)
        sim.run(until=5.0)
        assert membership_converged(nodes, "ABCD")

    def test_token_circulates_at_interval(self):
        sim, net, hosts, nodes = star_cluster(4)
        sim.run(until=5.0)
        # ~10 hops/sec across 4 nodes => each sees ~12 tokens in 5 s
        for n in nodes:
            assert 8 <= n.tokens_seen <= 16

    def test_single_token_uniqueness(self):
        # Reconstruct holding intervals from events: at any moment at most
        # one node holds the token (seqs strictly increase globally).
        sim, net, hosts, nodes = star_cluster(5)
        sim.run(until=10.0)
        receipts = []
        for n in nodes:
            receipts.extend(
                (e.time, e.subject, n.name) for e in n.events if e.kind == "token"
            )
        receipts.sort()
        seqs = [s for _, s, _ in receipts]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)  # no seq accepted twice

    def test_no_spurious_exclusions(self):
        sim, net, hosts, nodes = star_cluster(6)
        sim.run(until=20.0)
        for n in nodes:
            assert not [e for e in n.events if e.kind == "excluded"]

    def test_bootstrap_requires_self(self):
        sim, net, hosts, nodes = star_cluster(2)
        with pytest.raises(ValueError):
            nodes[0].bootstrap(["X", "Y"])


class TestCrashAndRejoin:
    def test_crashed_node_excluded(self):
        sim, net, hosts, nodes = star_cluster(4)
        sim.run(until=3.0)
        FaultInjector(net).fail(hosts[2])  # C dies
        sim.run(until=8.0)
        assert membership_converged(nodes, ["A", "B", "D"])

    def test_crash_of_token_holder_regenerates(self):
        sim, net, hosts, nodes = star_cluster(4)
        sim.run(until=3.0)
        # kill whichever node most recently received the token
        last = max(nodes, key=lambda n: n.last_token_time)
        FaultInjector(net).fail(last.host)
        sim.run(until=12.0)
        survivors = [n for n in nodes if n.host.up]
        expected = [n.name for n in survivors]
        assert membership_converged(survivors, expected)
        regens = [e for n in survivors for e in n.events if e.kind == "regen"]
        assert len(regens) >= 1  # 911 token regeneration fired

    def test_regeneration_unique_winner(self):
        # All nodes starve simultaneously (holder dies): only the node
        # with the most recent copy regenerates.
        sim, net, hosts, nodes = star_cluster(5)
        sim.run(until=3.0)
        last = max(nodes, key=lambda n: n.last_token_time)
        FaultInjector(net).fail(last.host)
        sim.run(until=15.0)
        survivors = [n for n in nodes if n.host.up]
        regen_nodes = {
            n.name for n in survivors for e in n.events if e.kind == "regen"
        }
        assert len(regen_nodes) == 1

    def test_transient_failure_auto_rejoin(self):
        sim, net, hosts, nodes = star_cluster(4)
        sim.run(until=3.0)
        fi = FaultInjector(net)
        fi.fail(hosts[1])  # B down
        sim.run(until=8.0)
        assert membership_converged(nodes, ["A", "C", "D"])
        fi.repair(hosts[1])
        sim.run(until=20.0)
        assert membership_converged(nodes, "ABCD")

    def test_multiple_sequential_crashes(self):
        sim, net, hosts, nodes = star_cluster(5)
        fi = FaultInjector(net)
        fi.fail_at(3.0, hosts[4])
        fi.fail_at(8.0, hosts[3])
        sim.run(until=16.0)
        survivors = [n for n in nodes[:3]]
        assert membership_converged(survivors, ["A", "B", "C"])

    def test_all_but_one_crash_leaves_singleton(self):
        sim, net, hosts, nodes = star_cluster(3)
        sim.run(until=2.0)
        fi = FaultInjector(net)
        fi.fail(hosts[1])
        fi.fail(hosts[2])
        sim.run(until=15.0)
        assert nodes[0].membership == ("A",)
        # singleton keeps a live token (keeps serving) in solo mode
        assert nodes[0].solo_mode
        assert nodes[0].holding is not None or nodes[0].tokens_seen > 0


class TestDynamicJoin:
    def test_new_node_joins_via_911(self):
        sim, net, hosts, nodes = star_cluster(3)
        sim.run(until=2.0)
        # wire a new host E into the network and have it join via C
        e = net.add_host("E")
        net.link(e.nic(0), net.switches["SW"])
        from repro.membership import MembershipNode
        from repro.rudp import RudpTransport

        tp = RudpTransport(e)
        enode = MembershipNode(e, tp, nodes[0].config)
        enode.join(contact="C")
        sim.run(until=10.0)
        assert membership_converged(nodes + [enode], ["A", "B", "C", "E"])
        assert "E" in enode.view and not enode.solo_mode

    def test_join_inserted_after_sponsor(self):
        sim, net, hosts, nodes = star_cluster(3)
        sim.run(until=2.0)
        e = net.add_host("E")
        net.link(e.nic(0), net.switches["SW"])
        from repro.membership import MembershipNode
        from repro.rudp import RudpTransport

        enode = MembershipNode(e, RudpTransport(e), nodes[0].config)
        enode.join(contact="B")
        sim.run(until=10.0)
        ring = list(nodes[0].membership)
        assert ring[(ring.index("B") + 1) % len(ring)] == "E"


class TestFig9LinkFailures:
    """Fig. 9: one link (A-B) fails; nodes are otherwise connected."""

    def test_aggressive_excludes_then_rejoins(self):
        sim, net, hosts, nodes, links = mesh_cluster(4, detection="aggressive")
        sim.run(until=3.0)
        FaultInjector(net).fail(links[("A", "B")])
        sim.run(until=30.0)
        # B must end re-included (911 join) even though A can't reach it.
        views = {n.name: set(n.membership) for n in nodes}
        assert views["C"] == {"A", "B", "C", "D"}
        excluded_b = [
            e for n in nodes for e in n.events
            if e.kind == "excluded" and e.subject == "B"
        ]
        join_b = [
            e for n in nodes for e in n.events
            if e.kind == "join_added" and e.subject == "B"
        ]
        assert excluded_b, "aggressive detection never excluded B"
        assert join_b, "911 join never re-added B"

    def test_aggressive_ring_becomes_acbd_shape(self):
        # After exclusion and rejoin, B sits after its sponsor, not after A.
        sim, net, hosts, nodes, links = mesh_cluster(4, detection="aggressive")
        sim.run(until=3.0)
        FaultInjector(net).fail(links[("A", "B")])
        sim.run(until=30.0)
        ring = list(nodes[2].membership)
        # A must not be immediately before B (A cannot deliver to B).
        assert ring[(ring.index("A") + 1) % len(ring)] != "B"

    def test_conservative_reorders_without_exclusion(self):
        sim, net, hosts, nodes, links = mesh_cluster(4, detection="conservative")
        sim.run(until=3.0)
        FaultInjector(net).fail(links[("A", "B")])
        sim.run(until=30.0)
        excluded = [
            e for n in nodes for e in n.events
            if e.kind == "excluded" and e.subject == "B" and e.time > 3.0
        ]
        assert not excluded, "conservative detection wrongly excluded B"
        views = {n.name: set(n.membership) for n in nodes}
        assert views["C"] == {"A", "B", "C", "D"}
        # ring reordered so someone other than A precedes B
        ring = list(nodes[2].membership)
        assert ring[(ring.index("A") + 1) % len(ring)] != "B"

    def test_conservative_removes_fully_dead_node(self):
        sim, net, hosts, nodes, links = mesh_cluster(4, detection="conservative")
        sim.run(until=3.0)
        FaultInjector(net).fail(hosts[1])  # B fully dead
        sim.run(until=15.0)
        survivors = [n for n in nodes if n.host.up]
        assert membership_converged(survivors, ["A", "C", "D"])


class TestPartitionHeal:
    def test_partition_forms_two_memberships_then_merges(self):
        # A,B on SW1; C,D on SW2; SW1-SW2 trunk cut and later repaired.
        sim = Simulator(seed=1)
        net = Network(sim)
        s1 = net.add_switch("S1")
        s2 = net.add_switch("S2")
        trunk = net.link(s1, s2)
        hosts = []
        for name, sw in (("A", s1), ("B", s1), ("C", s2), ("D", s2)):
            h = net.add_host(name)
            net.link(h.nic(0), sw)
            hosts.append(h)
        nodes = build_membership(hosts, MembershipConfig())
        sim.run(until=3.0)
        assert membership_converged(nodes, "ABCD")
        fi = FaultInjector(net)
        fi.fail(trunk)
        sim.run(until=15.0)
        assert set(nodes[0].membership) == {"A", "B"}
        assert set(nodes[2].membership) == {"C", "D"}
        fi.repair(trunk)
        sim.run(until=60.0)
        assert membership_converged(nodes, "ABCD")


class TestAttachments:
    def test_hold_hook_mutual_exclusion(self):
        sim, net, hosts, nodes = star_cluster(4)
        holds = []
        for n in nodes:
            n.on_hold(lambda tok, name=n.name: holds.append((sim.now, name)))
        sim.run(until=5.0)
        # never two different holders at the same instant
        times = {}
        for t, name in holds:
            assert times.setdefault(t, name) == name

    def test_attachment_travels_with_token(self):
        sim, net, hosts, nodes = star_cluster(3)
        seen = {}

        def writer(tok):
            tok.attachments["counter"] = tok.attachments.get("counter", 0) + 1

        def reader(name):
            def hook(tok):
                seen[name] = tok.attachments.get("counter", 0)

            return hook

        nodes[0].on_hold(writer)
        for n in nodes:
            n.on_hold(reader(n.name))
        sim.run(until=5.0)
        assert all(v > 0 for v in seen.values())
        assert seen["A"] >= seen["B"] - 1


def test_stop_halts_watchdog():
    sim, net, hosts, nodes = star_cluster(2)
    sim.run(until=1.0)
    for n in nodes:
        n.stop()
    # no 911 storms after stop even if we kill everything
    FaultInjector(net).fail(hosts[0])
    sim.run(until=10.0)
    regens = [e for e in nodes[1].events if e.kind == "regen"]
    assert regens == []
