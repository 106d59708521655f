"""Tests for the membership invariant checker, and invariant soak runs."""

from repro.membership import (
    InvariantReport,
    MembershipConfig,
    MembershipEvent,
    build_membership,
    check_invariants,
)
from repro.net import FaultInjector, Network
from repro.sim import Simulator


def cluster(n=4, seed=1, detection="aggressive"):
    sim = Simulator(seed=seed)
    net = Network(sim)
    sw = net.add_switch("SW", ports=32)
    hosts = []
    for i in range(n):
        h = net.add_host(chr(ord("A") + i))
        net.link(h.nic(0), sw)
        hosts.append(h)
    nodes = build_membership(hosts, MembershipConfig(detection=detection))
    return sim, net, hosts, nodes


def test_healthy_run_passes_all_invariants():
    sim, net, hosts, nodes = cluster()
    sim.run(until=15.0)
    report = check_invariants(nodes)
    assert report.ok, str(report)


def test_crash_and_regeneration_preserve_invariants():
    sim, net, hosts, nodes = cluster(5)
    sim.run(until=3.0)
    holder = max(nodes, key=lambda n: n.last_token_time)
    FaultInjector(net).fail(holder.host)
    sim.run(until=25.0)
    report = check_invariants(nodes)
    assert report.ok, str(report)


def test_crash_recover_cycles_preserve_invariants():
    sim, net, hosts, nodes = cluster(4, seed=2)
    fi = FaultInjector(net)
    for k in range(3):
        fi.outage(hosts[(k % 3) + 1], start=3.0 + 8.0 * k, duration=4.0)
    sim.run(until=40.0)
    report = check_invariants(nodes)
    assert report.ok, str(report)


def test_partition_run_checked_per_component():
    sim = Simulator(seed=3)
    net = Network(sim)
    s1, s2 = net.add_switch("S1"), net.add_switch("S2")
    trunk = net.link(s1, s2)
    hosts = []
    for name, sw in (("A", s1), ("B", s1), ("C", s2), ("D", s2)):
        h = net.add_host(name)
        net.link(h.nic(0), sw)
        hosts.append(h)
    nodes = build_membership(hosts, MembershipConfig())
    sim.run(until=3.0)
    FaultInjector(net).fail(trunk)
    sim.run(until=15.0)
    # during a partition, one token per component is the spec:
    report = check_invariants(nodes, require_agreement=False)
    assert report.seq_monotone_per_node
    # per component, views agree
    assert set(nodes[0].membership) == set(nodes[1].membership) == {"A", "B"}
    assert set(nodes[2].membership) == set(nodes[3].membership) == {"C", "D"}


def test_checker_flags_duplicate_acceptance():
    # synthetic trace corruption: the checker must notice
    sim, net, hosts, nodes = cluster(2, seed=4)
    sim.run(until=2.0)
    lineage = nodes[0].local_copy.lineage
    bogus = MembershipEvent(time=sim.now, node="B", kind="accept", subject=(lineage, 1))
    nodes[1].events.append(bogus)  # seq 1 was accepted by A at t=0
    report = check_invariants(nodes)
    assert not report.token_unique
    assert any("accepted by both" in v for v in report.violations)


def test_checker_flags_nonmonotone_seq():
    sim, net, hosts, nodes = cluster(2, seed=5)
    sim.run(until=2.0)
    nodes[0].events.append(
        MembershipEvent(time=sim.now, node="A", kind="token", subject=1)
    )
    report = check_invariants(nodes)
    assert not report.seq_monotone_per_node


def test_checker_flags_disagreement():
    sim, net, hosts, nodes = cluster(2, seed=6)
    sim.run(until=2.0)
    nodes[0].view = ("A",)
    report = check_invariants(nodes)
    assert not report.final_agreement
    assert "disagree" in str(report)


def test_report_str_ok():
    assert "OK" in str(InvariantReport())


# -- fabricated-trace violation paths ---------------------------------------
#
# No simulator: nodes are stubs carrying hand-written event traces, so
# each checker code path can be driven to its exact violation message.


class _FakeHost:
    def __init__(self, up=True):
        self.up = up


class _FakeNode:
    """The duck type check_invariants needs: name/events/membership/host."""

    def __init__(self, name, events=(), membership=("A", "B"), up=True):
        self.name = name
        self.events = list(events)
        self.membership = tuple(membership)
        self.host = _FakeHost(up)


def _ev(time, node, kind, subject):
    return MembershipEvent(time=time, node=node, kind=kind, subject=subject)


LINEAGE = (1, "A")


class TestFabricatedViolationPaths:
    def test_duplicate_seq_across_nodes_message(self):
        # seq 5 accepted by A and, later, by B within the same lineage:
        # token uniqueness is broken and neither copy is ever abandoned.
        a = _FakeNode("A", [_ev(1.0, "A", "accept", (LINEAGE, 5))])
        b = _FakeNode("B", [_ev(2.0, "B", "accept", (LINEAGE, 5))])
        report = check_invariants([a, b])
        assert not report.token_unique
        assert not report.ok
        assert any(
            "seq 5 accepted by both A and B" in v and "never abandoned" in v
            for v in report.violations
        ), report.violations

    def test_nonmonotone_per_node_sequence_message(self):
        # node accepts token seq 7 then 6: stale token was not rejected
        a = _FakeNode(
            "A",
            [_ev(1.0, "A", "token", 7), _ev(2.0, "A", "token", 6)],
        )
        b = _FakeNode("B")
        report = check_invariants([a, b])
        assert not report.seq_monotone_per_node
        assert any(
            v == "A: accepted token sequence not strictly increasing"
            for v in report.violations
        ), report.violations

    def test_resurrected_lineage_never_abandoned_message(self):
        # A accepts seq 5, B moves the lineage on to seq 6, then a stale
        # copy of seq 5 resurrects at A -- and A never abandons it nor
        # accepts anything fresher: the NACK mechanism failed.
        a = _FakeNode(
            "A",
            [
                _ev(1.0, "A", "accept", (LINEAGE, 5)),
                _ev(3.0, "A", "accept", (LINEAGE, 5)),
            ],
        )
        b = _FakeNode("B", [_ev(2.0, "B", "accept", (LINEAGE, 6))])
        report = check_invariants([a, b])
        assert not report.token_unique
        assert any(
            "A accepted stale seq 5" in v and "never abandoned" in v
            for v in report.violations
        ), report.violations

    def test_resurrection_followed_by_abandon_is_tolerated(self):
        # same trace, but A abandons the stale lineage afterwards: this
        # is the documented benign transient and must NOT be a violation.
        a = _FakeNode(
            "A",
            [
                _ev(1.0, "A", "accept", (LINEAGE, 5)),
                _ev(3.0, "A", "accept", (LINEAGE, 5)),
                _ev(3.5, "A", "abandon", 5),
            ],
        )
        b = _FakeNode("B", [_ev(2.0, "B", "accept", (LINEAGE, 6))])
        report = check_invariants([a, b])
        assert report.token_unique
        assert report.ok, report.violations

    def test_disagreeing_live_views_message(self):
        a = _FakeNode("A", membership=("A", "B"))
        b = _FakeNode("B", membership=("B",))
        report = check_invariants([a, b])
        assert not report.final_agreement
        assert any("live nodes disagree" in v for v in report.violations)

    def test_dead_nodes_views_are_ignored_for_agreement(self):
        a = _FakeNode("A", membership=("A",))
        b = _FakeNode("B", membership=("A", "B"), up=False)  # crashed, stale
        report = check_invariants([a, b])
        assert report.final_agreement
        assert report.ok, report.violations

    def test_violation_order_is_deterministic(self):
        # two lineages, one violation each: report order must not depend
        # on set iteration order
        lin2 = (2, "B")
        a = _FakeNode(
            "A",
            [
                _ev(1.0, "A", "accept", (LINEAGE, 5)),
                _ev(4.0, "A", "accept", (lin2, 9)),
            ],
        )
        b = _FakeNode(
            "B",
            [
                _ev(2.0, "B", "accept", (LINEAGE, 5)),
                _ev(5.0, "B", "accept", (lin2, 9)),
            ],
        )
        first = check_invariants([a, b]).violations
        second = check_invariants([a, b]).violations
        assert first == second
        assert len(first) == 2
