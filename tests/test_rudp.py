"""Tests for RUDP: reliable datagrams over bundled interfaces."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import MonitorConfig
from repro.cluster import ShardedRainCluster
from repro.net import FaultInjector, Network
from repro.rudp import UNPINNED, PathBundle, RudpConfig, RudpTransport
from repro.scenarios import SCENARIOS
from repro.sim import Simulator
from repro.topology import diameter_ring


def dual_path_cluster(seed=1, loss=0.0, monitor=None):
    sim = Simulator(seed=seed)
    net = Network(sim, default_loss_rate=loss)
    a = net.add_host("A", nics=2)
    b = net.add_host("B", nics=2)
    s0 = net.add_switch("S0")
    s1 = net.add_switch("S1")
    net.link(a.nic(0), s0)
    net.link(b.nic(0), s0)
    net.link(a.nic(1), s1)
    net.link(b.nic(1), s1)
    cfg = RudpConfig(monitor=monitor)
    ta = RudpTransport(a, cfg)
    tb = RudpTransport(b, cfg)
    return sim, net, ta, tb


PATHS = [(0, 0), (1, 1)]


def test_reliable_in_order_delivery():
    sim, net, ta, tb = dual_path_cluster()
    got = []
    tb.register("app", lambda src, data: got.append((src, data)))
    ta.connect("B", paths=PATHS)
    tb.connect("A", paths=PATHS)
    for i in range(20):
        ta.send("B", "app", i)
    sim.run(until=5.0)
    assert got == [("A", i) for i in range(20)]


def test_reliable_over_lossy_links():
    sim, net, ta, tb = dual_path_cluster(seed=4, loss=0.3)
    got = []
    tb.register("app", lambda src, data: got.append(data))
    ta.connect("B", paths=PATHS)
    tb.connect("A", paths=PATHS)
    for i in range(50):
        ta.send("B", "app", i)
    # ~51% end-to-end loss over two lossy hops: the retransmission tail
    # is long, so give the horizon slack over the observed completion.
    sim.run(until=120.0)
    assert got == list(range(50))


def test_service_multiplexing():
    sim, net, ta, tb = dual_path_cluster()
    alpha, beta = [], []
    tb.register("alpha", lambda s, d: alpha.append(d))
    tb.register("beta", lambda s, d: beta.append(d))
    ta.send("B", "alpha", 1)
    ta.send("B", "beta", 2)
    ta.send("B", "alpha", 3)
    sim.run(until=2.0)
    assert alpha == [1, 3] and beta == [2]


def test_duplicate_service_registration_rejected():
    sim, net, ta, tb = dual_path_cluster()
    ta.register("x", lambda s, d: None)
    with pytest.raises(ValueError):
        ta.register("x", lambda s, d: None)


def test_failover_masks_single_switch_failure():
    mon = MonitorConfig(ping_interval=0.05, timeout=0.2)
    sim, net, ta, tb = dual_path_cluster(monitor=mon)
    got = []
    tb.register("app", lambda src, data: got.append(data))
    ta.connect("B", paths=PATHS)
    tb.connect("A", paths=PATHS)
    FaultInjector(net).fail_at(1.0, net.switches["S0"])

    def sender(sim):
        for i in range(40):
            ta.send("B", "app", i)
            yield sim.timeout(0.1)

    sim.process(sender(sim))
    sim.run(until=30.0)
    assert got == list(range(40))  # nothing lost across the failover


def test_total_outage_stalls_then_resumes():
    mon = MonitorConfig(ping_interval=0.05, timeout=0.2)
    sim, net, ta, tb = dual_path_cluster(monitor=mon)
    got = []
    tb.register("app", lambda src, data: got.append((sim.now, data)))
    ta.connect("B", paths=PATHS)
    tb.connect("A", paths=PATHS)
    fi = FaultInjector(net)
    fi.outage(net.switches["S0"], start=1.0, duration=5.0)
    fi.outage(net.switches["S1"], start=1.0, duration=5.0)
    sim.call_at(2.0, lambda: ta.send("B", "app", "during-outage"))
    sim.run(until=30.0)
    assert [d for _, d in got] == ["during-outage"]
    assert got[0][0] >= 6.0  # delivered only after repair


class TestLocalDelivery:
    """A send to this host is delivered locally: no connection, no packet."""

    def _self_counted(self, ta):
        return ta.sim.obs.metrics.value("rudp.transport.messages_delivered", node="A")

    def test_in_send_order_and_counted(self):
        sim, net, ta, tb = dual_path_cluster()
        got = []
        ta.register("app", lambda src, data: got.append((src, data, sim.now)))
        sim.call_at(1.0, lambda: [ta.send("A", "app", i) for i in range(5)])
        sim.run(until=2.0)
        assert got == [("A", i, 1.0) for i in range(5)]
        assert self._self_counted(ta) == 5
        assert ta.connections == {}
        assert net.stats.sums["packets_sent"] == 0

    def test_dropped_when_the_host_crashes_before_delivery(self):
        sim, net, ta, tb = dual_path_cluster()
        got = []
        ta.register("app", lambda src, data: got.append(data))
        faults = FaultInjector(net)

        def send_then_crash():
            ta.send("A", "app", "lost")
            faults.fail(ta.host)
            ta.send("A", "app", "sent while down")

        sim.call_at(1.0, send_then_crash)
        sim.call_at(2.0, faults.repair, ta.host)
        sim.call_at(3.0, ta.send, "A", "app", "after repair")
        sim.run(until=4.0)
        assert got == ["after repair"]
        assert self._self_counted(ta) == 1

    def test_a_traced_send_opens_and_closes_its_span(self):
        sim, net, ta, tb = dual_path_cluster()
        tracer = sim.obs.install_tracer()
        seen = []
        ta.register("app", lambda src, data: seen.append(tracer.current))
        ta.send("A", "app", "x")
        sim.run(until=1.0)
        (span,) = tracer.by_name("rudp.send")
        assert span.attrs["peer"] == "A" and span.status == "ok"
        assert seen == [span.ctx]  # the handler ran under the send's context
        assert tracer.by_name("net.packet") == []


def test_connect_bundles_the_mirrored_pairs_both_hosts_have():
    sim, net, ta, tb = dual_path_cluster()
    c = net.add_host("C")
    net.link(c.nic(0), net.switches["S0"])
    assert ta.connect("B").bundle.paths == [(0, 0), (1, 1)]
    assert ta.connect("C").bundle.paths == [(0, 0)]
    # planes cabled together: a crossed route may outlive both pairs
    net.link(net.switches["S0"], net.switches["S1"])
    assert tb.connect("A").bundle.paths == [(0, 0), (1, 1), UNPINNED]


def test_connect_monitors_only_other_members():
    sim, net, ta, tb = dual_path_cluster(monitor=MonitorConfig())
    c = net.add_host("C", nics=2)
    net.link(c.nic(0), net.switches["S0"])
    net.link(c.nic(1), net.switches["S1"])
    tc = RudpTransport(c, RudpConfig(monitor=MonitorConfig()), members=frozenset({"B", "C"}))
    for peer in ("A", "B", "C"):
        tc.connect(peer)
    assert sorted(tc.monitors.paths) == [("B", 0, 0), ("B", 1, 1)]
    ta.connect("A")
    ta.connect("C")  # no member set: every other host is watched
    assert sorted(ta.monitors.paths) == [("C", 0, 0), ("C", 1, 1)]


def _failovers(cluster) -> float:
    family = cluster.metrics().to_dict()["metrics"].get("rudp.bundle.failovers")
    return sum(s["value"] for s in family["series"]) if family else 0.0


def test_a_crashed_peer_is_no_failover():
    # node4's crash sends its ring predecessor's bundle onto the unpinned
    # tail and back: no switch between two NIC pairs, so no failover.
    scenario = SCENARIOS["membership"]
    cluster = scenario.build(7, 1)
    cluster.run(scenario.horizon)
    assert _failovers(cluster) == 0


def test_a_dead_nic_is_a_failover():
    cluster = ShardedRainCluster(diameter_ring(6), seed=7)
    cluster.fail_at(1.0, ("nic", (2, 0)))
    cluster.run(3.0)
    assert _failovers(cluster) >= 1


def test_striping_uses_both_paths():
    sim, net, ta, tb = dual_path_cluster()
    got = []
    tb.register("app", lambda src, data: got.append(data))
    ta.connect("B", paths=PATHS, policy="stripe")
    tb.connect("A", paths=PATHS)
    for i in range(40):
        ta.send("B", "app", i, size_bytes=1000)
    sim.run(until=10.0)
    assert got == list(range(40))
    # traffic appeared on both of A's NIC links
    l0 = net.find_link(net.hosts["A"].nic(0), net.switches["S0"])
    l1 = net.find_link(net.hosts["A"].nic(1), net.switches["S1"])
    sent0 = l0.end_from(net.hosts["A"].nic(0)).packets_carried
    sent1 = l1.end_from(net.hosts["A"].nic(1)).packets_carried
    assert sent0 > 5 and sent1 > 5


class TestPathBundle:
    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            PathBundle("B", [])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            PathBundle("B", [(0, 0)], policy="quantum")

    def test_unmonitored_bundle_assumes_up(self):
        b = PathBundle("B", [(0, 0), (1, 1)])
        assert b.up_paths() == [(0, 0), (1, 1)]

    def test_failover_prefers_first(self):
        b = PathBundle("B", [(0, 0), (1, 1)], policy="failover")
        assert b.pick() == (0, 0)
        assert b.pick() == (0, 0)

    def test_stripe_round_robins(self):
        b = PathBundle("B", [(0, 0), (1, 1)], policy="stripe")
        assert [b.pick() for _ in range(4)] == [(0, 0), (1, 1), (0, 0), (1, 1)]

    def test_all_down_still_returns_path(self):
        mon_cfg = MonitorConfig(ping_interval=0.05, timeout=0.2)
        sim, net, ta, tb = dual_path_cluster(monitor=mon_cfg)
        conn = ta.connect("B", paths=PATHS)
        tb.connect("A", paths=PATHS)
        fi = FaultInjector(net)
        fi.fail(net.switches["S0"])
        fi.fail(net.switches["S1"])
        sim.run(until=2.0)
        assert conn.bundle.up_paths() == []
        assert conn.bundle.pick() in PATHS  # optimistic send still possible

    def test_all_down_before_first_contact_tries_each_path(self):
        # No monitor has heard the peer: Down may only mean its end is not
        # open yet, so the paths take turns and no switch is reported.
        monitors = _StubMonitors()
        switches = []
        b = PathBundle("B", PATHS, monitors, on_switch=lambda *a: switches.append(a))
        assert b.pick() == (0, 0)
        for mon in monitors.paths.values():
            mon.is_up, mon.last_heard = False, None
        assert [b.pick() for _ in range(4)] == [(1, 1), (0, 0), (1, 1), (0, 0)]
        assert switches == []
        monitors.paths[(0, 0)].last_heard = 1.0  # the peer answered once
        assert [b.pick() for _ in range(2)] == [(0, 0), (0, 0)]


class _ListPickBundle(PathBundle):
    """``pick`` as it was: build the Up-path list, then choose from it."""

    def pick(self):
        candidates = self.up_paths() or self.paths
        if self.policy == "failover":
            path = candidates[0]
            if self._last_pick is not None and path != self._last_pick:
                if self.on_switch is not None:
                    self.on_switch(self._last_pick, path)
            self._last_pick = path
            return path
        path = candidates[self._rr % len(candidates)]
        self._rr += 1
        return path


class _StubMonitors:
    """One flippable monitor per pinned path, shared by every watcher;
    each has heard its peer, so an all-Down bundle falls back to its
    first path."""

    def __init__(self):
        self.paths = {}

    def watch(self, peer, local_if, remote_if):
        return self.paths.setdefault(
            (local_if, remote_if), SimpleNamespace(is_up=True, last_heard=0.0)
        )


_PATH = st.sampled_from([(0, 0), (1, 1), (2, 2), (0, 1), (None, None), (1, None)])


@settings(max_examples=100, deadline=None)
@given(
    paths=st.lists(_PATH, min_size=1, max_size=4, unique=True),
    policy=st.sampled_from(["failover", "stripe"]),
    ops=st.lists(st.tuples(st.integers(0, 3), st.booleans()) | st.just(None), max_size=40),
)
def test_pick_matches_the_candidate_list_pick(paths, policy, ops):
    monitors = _StubMonitors()
    got_switches, want_switches = [], []
    got = PathBundle("B", paths, monitors, policy, lambda *a: got_switches.append(a))
    want = _ListPickBundle("B", paths, monitors, policy, lambda *a: want_switches.append(a))
    pinned = list(monitors.paths.values())
    for op in ops:
        if op is None or not pinned:
            assert got.pick() == want.pick()
        else:  # a monitor flips Up or Down
            pinned[op[0] % len(pinned)].is_up = op[1]
        assert got_switches == want_switches
