"""Tests for the network substrate: topology, delivery, timing, faults."""

import pytest

from repro.net import (
    Endpoint,
    FaultInjector,
    Network,
    NicAddr,
    Packet,
    PortsExhausted,
    HEADER_BYTES,
)
from repro.sim import Mailbox, Simulator


def two_switch_cluster(seed=1, loss=0.0):
    """A, B with two NICs each; S0, S1; NIC i on switch i; S0-S1 trunk."""
    sim = Simulator(seed=seed)
    net = Network(sim, default_loss_rate=loss)
    a = net.add_host("A", nics=2)
    b = net.add_host("B", nics=2)
    s0 = net.add_switch("S0")
    s1 = net.add_switch("S1")
    net.link(a.nic(0), s0)
    net.link(a.nic(1), s1)
    net.link(b.nic(0), s0)
    net.link(b.nic(1), s1)
    net.link(s0, s1)
    return sim, net, a, b, s0, s1


def test_basic_delivery():
    sim, net, a, b, s0, s1 = two_switch_cluster()
    got = []
    b.bind(7, lambda p: got.append(p.payload))
    a.send(Endpoint("B", 7), "hello", size_bytes=64)
    sim.run()
    assert got == ["hello"]


def _one_packet(loss, observe=False):
    sim, net, a, b, s0, s1 = two_switch_cluster(loss=loss)
    seen = sim.obs.bus.record("net.trace.*") if observe else None
    b.bind(7, lambda p: None)
    a.send(Endpoint("B", 7), "hello", size_bytes=64)
    sim.run()
    return sim.obs.bus, seen


def test_bus_counts_are_right_without_a_metrics_read_first():
    # Unobserved deliver/drop records are tallied off the bus and pushed
    # in by a flush hook; the bus's own reads must trigger it.
    bus, _ = _one_packet(loss=0.0)
    assert bus.count("net.trace.deliver") == 1
    bus, _ = _one_packet(loss=1.0)
    assert bus.topic_counts("net.trace") == {"net.trace.drop": 1}
    bus, _ = _one_packet(loss=0.0)
    assert bus.subsystems() == ("net",)


def test_trace_records_carry_rendered_messages_when_the_bus_is_observed():
    seen = [
        (e.topic, e.data["message"].split(" ", 1)[1])  # pids are process-global
        for loss in (0.0, 1.0)
        for e in _one_packet(loss, observe=True)[1]
    ]
    assert seen == [
        ("net.trace.deliver", "A:0->B:7 (64B)"),
        ("net.trace.drop", "A:0->B:7 (64B) (link_loss)"),
    ]


def test_delivery_latency_includes_hops():
    # nic0 -> S0 -> nic0: two links, each 1 ms latency plus serialization.
    sim = Simulator()
    net = Network(sim, default_latency_s=1e-3, default_bandwidth_bps=1e6)
    a = net.add_host("A")
    b = net.add_host("B")
    s = net.add_switch("S")
    net.link(a.nic(0), s)
    net.link(b.nic(0), s)
    arrivals = []
    b.bind(1, lambda p: arrivals.append(sim.now))
    a.send(Endpoint("B", 1), b"payload", size_bytes=1000 - HEADER_BYTES)
    sim.run()
    ser = 1000 * 8 / 1e6  # 8 ms per hop
    assert arrivals == [pytest.approx(2 * 1e-3 + 2 * ser)]


def test_fifo_serialization_contention():
    # Two back-to-back packets share the first link: second is delayed by
    # the first's serialization time.
    sim = Simulator()
    net = Network(sim, default_latency_s=0.0, default_bandwidth_bps=8e3)  # 1 B/ms
    a = net.add_host("A")
    b = net.add_host("B")
    s = net.add_switch("S")
    net.link(a.nic(0), s)
    net.link(b.nic(0), s)
    arrivals = []
    b.bind(1, lambda p: arrivals.append((p.payload, sim.now)))
    a.send(Endpoint("B", 1), "p1", size_bytes=100 - HEADER_BYTES)
    a.send(Endpoint("B", 1), "p2", size_bytes=100 - HEADER_BYTES)
    sim.run()
    # p1: 0.1s on link1 then 0.1s on link2 -> 0.2; p2 starts link1 at 0.1.
    assert arrivals[0] == ("p1", pytest.approx(0.2))
    assert arrivals[1] == ("p2", pytest.approx(0.3))


@pytest.mark.parametrize("armed", [False, True])
@pytest.mark.parametrize("traced", [False, True])
def test_shared_link_fifo_is_by_arrival_not_by_send_time(armed, traced):
    # far -- S1 -- S2 -- dst, near -- S2.  A 100 kB packet sent by `far` at
    # t=0 needs 800 us per hop; a 1 kB packet sent by `near` at t=100 us
    # reaches S2 long before it and must take the shared S2->dst link
    # first -- whether or not an idle FaultInjector exists, traced or not.
    sim = Simulator(seed=1)
    net = Network(sim)
    far, near, dst = (net.add_host(name) for name in ("far", "near", "dst"))
    s1 = net.add_switch("S1")
    s2 = net.add_switch("S2")
    net.link(far.nic(0), s1)
    net.link(s1, s2)
    net.link(near.nic(0), s2)
    net.link(s2, dst.nic(0))
    if armed:
        FaultInjector(net)
    ctx = None
    if traced:
        ctx = sim.obs.install_tracer().start("test.root").ctx
    got = []
    dst.bind(7, lambda p: got.append((p.payload, round(sim.now * 1e6, 1))))
    far.send(Endpoint("dst", 7), "far", size_bytes=100_000, ctx=ctx)
    sim.call_in(
        100e-6, lambda: near.send(Endpoint("dst", 7), "near", size_bytes=1_000, ctx=ctx)
    )
    sim.run(until=1.0)
    assert got == [("near", 216.7), ("far", 2551.0)]
    assert dict(net.stats.sums) == {"packets_sent": 2.0, "packets_delivered": 2.0}


def test_unknown_endpoint_raises():
    sim, net, a, *_ = two_switch_cluster()
    with pytest.raises(ValueError):
        a.send(Endpoint("NOPE", 1), "x")


def test_unbound_port_drops():
    sim, net, a, b, *_ = two_switch_cluster()
    a.send(Endpoint("B", 99), "x")
    sim.run()
    assert net.stats.sums["dropped_no_handler"] == 1


def test_mailbox_port():
    sim, net, a, b, *_ = two_switch_cluster()
    box = Mailbox(sim)
    b.bind(9, box.put)
    a.send(Endpoint("B", 9), "m1")

    def reader(sim):
        pkt = yield box.get()
        return pkt.payload

    assert sim.run_process(reader(sim)) == "m1"


def test_switch_port_budget_enforced():
    sim = Simulator()
    net = Network(sim)
    s = net.add_switch("S", ports=2)
    h1 = net.add_host("H1")
    h2 = net.add_host("H2")
    h3 = net.add_host("H3")
    net.link(h1.nic(0), s)
    net.link(h2.nic(0), s)
    with pytest.raises(PortsExhausted):
        net.link(h3.nic(0), s)
    assert len(s.links) == s.port_count


def test_refused_cable_leaves_no_phantom_on_the_first_end():
    # link(a, b) attaches a first: a full switch at b must not leave the
    # cable on a.links, where routing would expand it from a's side
    sim = Simulator()
    net = Network(sim)
    s = net.add_switch("S", ports=1)
    h1 = net.add_host("H1")
    h2 = net.add_host("H2")
    net.link(h1.nic(0), s)
    nic = h2.nic(0)
    cables, version = len(net.links), net.fabric_version
    with pytest.raises(PortsExhausted):
        net.link(nic, s)
    assert nic.links == []
    assert nic.connected is False
    assert len(net.links) == cables
    assert net.fabric_version == version
    assert not net.host_reachable("H2", "H1")


def test_duplicate_names_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_host("X")
    with pytest.raises(ValueError):
        net.add_host("X")
    with pytest.raises(ValueError):
        net.add_switch("X")


def test_self_link_rejected():
    sim = Simulator()
    net = Network(sim)
    s = net.add_switch("S")
    with pytest.raises(ValueError):
        net.link(s, s)


class TestFaults:
    def test_switch_failure_reroutes_via_other_nic(self):
        sim, net, a, b, s0, s1 = two_switch_cluster()
        got = []
        b.bind(7, lambda p: got.append(p.payload))
        FaultInjector(net).fail(s0)
        a.send(Endpoint("B", 7), "rerouted")
        sim.run()
        assert got == ["rerouted"]

    def test_both_switches_down_unreachable(self):
        sim, net, a, b, s0, s1 = two_switch_cluster()
        fi = FaultInjector(net)
        fi.fail(s0)
        fi.fail(s1)
        a.send(Endpoint("B", 7), "lost")
        sim.run()
        assert net.stats.sums["dropped_unreachable"] == 1
        assert not net.host_reachable("A", "B")

    def test_pinned_nic_does_not_failover(self):
        sim, net, a, b, s0, s1 = two_switch_cluster()
        got = []
        b.bind(7, lambda p: got.append(p.payload))
        FaultInjector(net).fail(s0)
        a.send(Endpoint("B", 7), "pinned", src_nic=0, dst_nic=0)
        sim.run()
        assert got == []
        assert net.stats.sums["dropped_unreachable"] == 1

    def test_link_dies_in_flight_drops_packet(self):
        sim = Simulator()
        net = Network(sim, default_latency_s=1.0)
        a = net.add_host("A")
        b = net.add_host("B")
        s = net.add_switch("S")
        l1 = net.link(a.nic(0), s)
        net.link(b.nic(0), s)
        got = []
        b.bind(1, lambda p: got.append(p.payload))
        fi = FaultInjector(net)
        a.send(Endpoint("B", 1), "doomed")
        fi.fail_at(0.5, l1)  # packet still propagating on l1
        sim.run()
        assert got == []
        assert net.stats.sums["drop_link_died_in_flight"] == 1

    def test_dst_host_down_drops(self):
        sim, net, a, b, *_ = two_switch_cluster()
        got = []
        b.bind(7, lambda p: got.append(p.payload))
        FaultInjector(net).fail(b)
        a.send(Endpoint("B", 7), "x")
        sim.run()
        assert got == []

    def test_src_host_down_drops(self):
        sim, net, a, b, *_ = two_switch_cluster()
        FaultInjector(net).fail(a)
        a.send(Endpoint("B", 7), "x")
        sim.run()
        assert net.stats.sums["dropped_src_down"] == 1

    def test_outage_then_repair(self):
        sim, net, a, b, s0, s1 = two_switch_cluster()
        got = []
        b.bind(7, lambda p: got.append(p.payload))
        fi = FaultInjector(net)
        fi.outage(s0, start=1.0, duration=2.0)
        fi.outage(s1, start=1.0, duration=2.0)
        sim.call_at(2.0, lambda: a.send(Endpoint("B", 7), "during"))
        sim.call_at(4.0, lambda: a.send(Endpoint("B", 7), "after"))
        sim.run()
        assert got == ["after"]
        assert len(fi.log) == 4

    def test_fault_log_records(self):
        sim, net, a, b, s0, s1 = two_switch_cluster()
        fi = FaultInjector(net)
        fi.fail(s0)
        fi.repair(s0)
        assert [(e.action, e.name) for e in fi.log] == [
            ("fail", "S0"),
            ("repair", "S0"),
        ]

    def test_idempotent_fail(self):
        sim, net, a, b, s0, s1 = two_switch_cluster()
        fi = FaultInjector(net)
        fi.fail(s0)
        fi.fail(s0)
        assert len(fi.log) == 1

    def test_nic_failure(self):
        sim, net, a, b, s0, s1 = two_switch_cluster()
        got = []
        b.bind(7, lambda p: got.append(p.payload))
        fi = FaultInjector(net)
        fi.fail(a.nic(0))
        a.send(Endpoint("B", 7), "via-nic1")
        sim.run()
        assert got == ["via-nic1"]
        assert not a.nic(0).usable


class TestLoss:
    def test_lossy_link_drops_some(self):
        sim, net, a, b, *_ = two_switch_cluster(loss=0.5)
        got = []
        b.bind(7, lambda p: got.append(p.payload))
        for i in range(200):
            a.send(Endpoint("B", 7), i)
        sim.run()
        assert 0 < len(got) < 200
        assert net.stats.sums["drop_link_loss"] == 200 - len(got)

    def test_loss_deterministic_under_seed(self):
        def run(seed):
            sim, net, a, b, *_ = two_switch_cluster(seed=seed, loss=0.3)
            got = []
            b.bind(7, lambda p: got.append(p.payload))
            for i in range(50):
                a.send(Endpoint("B", 7), i)
            sim.run()
            return got

        assert run(5) == run(5)
        assert run(5) != run(6)


def test_packet_wire_bytes():
    p = Packet(src=Endpoint("A", 1), dst=Endpoint("B", 2), payload=None, size_bytes=100)
    assert p.wire_bytes == 100 + HEADER_BYTES


def test_nic_addr_resolution():
    sim, net, a, *_ = two_switch_cluster()
    nic = net.nic(NicAddr("A", 1))
    assert nic is a.nic(1)


def test_find_link():
    sim, net, a, b, s0, s1 = two_switch_cluster()
    lk = net.find_link(a.nic(0), s0)
    assert lk is not None and lk.other(s0) is a.nic(0)
    assert net.find_link(a.nic(0), s1) is None


def test_loopback_same_host():
    sim, net, a, *_ = two_switch_cluster()
    got = []
    a.bind(3, lambda p: got.append(p.payload))
    a.send(Endpoint("A", 3), "self")
    sim.run()
    assert got == ["self"]
