"""Tests for ping-based link monitoring on the simulated network."""


from repro.channel import ChannelView, LinkMonitorService, MonitorConfig
from repro.net import FaultInjector, Network
from repro.sim import Simulator


def build_pair(seed=1, nics=2, loss=0.0, cfg=None):
    """Two dual-NIC hosts on two switches, monitors on path (0,0)."""
    sim = Simulator(seed=seed)
    net = Network(sim, default_loss_rate=loss)
    a = net.add_host("A", nics=nics)
    b = net.add_host("B", nics=nics)
    s0 = net.add_switch("S0")
    net.link(a.nic(0), s0)
    net.link(b.nic(0), s0)
    if nics > 1:
        s1 = net.add_switch("S1")
        net.link(a.nic(1), s1)
        net.link(b.nic(1), s1)
    cfg = cfg or MonitorConfig()
    sa = LinkMonitorService(a, cfg)
    sb = LinkMonitorService(b, cfg)
    return sim, net, sa, sb


def views(mon):
    return [t.view for t in mon.history]


def test_healthy_path_stays_up():
    sim, net, sa, sb = build_pair()
    ma = sa.watch("B", 0, 0)
    mb = sb.watch("A", 0, 0)
    sim.run(until=10.0)
    assert ma.is_up and mb.is_up
    assert ma.history == [] and mb.history == []


def test_outage_seen_identically_both_ends():
    sim, net, sa, sb = build_pair()
    ma = sa.watch("B", 0, 0)
    mb = sb.watch("A", 0, 0)
    link = net.find_link(net.hosts["A"].nic(0), net.switches["S0"])
    fi = FaultInjector(net)
    fi.outage(link, start=2.0, duration=3.0)
    sim.run(until=20.0)
    assert views(ma) == [ChannelView.DOWN, ChannelView.UP]
    assert views(mb) == [ChannelView.DOWN, ChannelView.UP]
    assert ma.is_up and mb.is_up


def test_repeated_outages_consistent_history():
    sim, net, sa, sb = build_pair()
    ma = sa.watch("B", 0, 0)
    mb = sb.watch("A", 0, 0)
    link = net.find_link(net.hosts["A"].nic(0), net.switches["S0"])
    fi = FaultInjector(net)
    for k in range(4):
        fi.outage(link, start=5.0 + 10.0 * k, duration=3.0)
    sim.run(until=60.0)
    assert views(ma) == views(mb)
    assert len(ma.history) == 8  # four Down/Up cycles
    assert ma.is_up and mb.is_up


def test_one_way_failure_detected_via_tokens():
    # Kill only the A->B direction is not expressible on a single
    # bidirectional link; emulate asymmetry by silencing A's monitor
    # traffic with a dead NIC on A while B->A hellos keep flowing via
    # the other switch: instead we test that a switch outage (cutting
    # both directions) still converges — and that both ends flip even
    # though only one may first observe silence.
    sim, net, sa, sb = build_pair()
    ma = sa.watch("B", 0, 0)
    mb = sb.watch("A", 0, 0)
    fi = FaultInjector(net)
    fi.outage(net.switches["S0"], start=2.0, duration=2.0)
    sim.run(until=15.0)
    assert views(ma) == views(mb) == [ChannelView.DOWN, ChannelView.UP]


def test_permanent_failure_stays_down():
    sim, net, sa, sb = build_pair()
    ma = sa.watch("B", 0, 0)
    mb = sb.watch("A", 0, 0)
    FaultInjector(net).fail_at(1.0, net.switches["S0"])
    sim.run(until=30.0)
    assert not ma.is_up and not mb.is_up
    assert views(ma) == views(mb) == [ChannelView.DOWN]


def test_bundled_paths_fail_independently():
    sim, net, sa, sb = build_pair()
    ma0 = sa.watch("B", 0, 0)
    ma1 = sa.watch("B", 1, 1)
    mb0 = sb.watch("A", 0, 0)
    mb1 = sb.watch("A", 1, 1)
    FaultInjector(net).fail_at(2.0, net.switches["S0"])
    sim.run(until=10.0)
    assert not ma0.is_up and not mb0.is_up
    assert ma1.is_up and mb1.is_up


def test_lossy_channel_does_not_flap():
    # 20% loss: hellos still get through often enough that no tout fires.
    cfg = MonitorConfig(ping_interval=0.1, timeout=1.0)
    sim, net, sa, sb = build_pair(loss=0.2, cfg=cfg)
    ma = sa.watch("B", 0, 0)
    mb = sb.watch("A", 0, 0)
    sim.run(until=60.0)
    assert ma.is_up and mb.is_up
    assert len(ma.history) == 0


def test_heavy_loss_histories_still_consistent():
    # 70% loss: flaps will happen; both ends must still agree.
    cfg = MonitorConfig(ping_interval=0.1, timeout=0.4)
    sim, net, sa, sb = build_pair(seed=3, loss=0.7, cfg=cfg)
    ma = sa.watch("B", 0, 0)
    mb = sb.watch("A", 0, 0)
    sim.run(until=120.0)
    va, vb = views(ma), views(mb)
    shorter, longer = (va, vb) if len(va) <= len(vb) else (vb, va)
    assert longer[: len(shorter)] == shorter
    assert abs(len(va) - len(vb)) <= cfg.slack


def test_transition_subscription():
    sim, net, sa, sb = build_pair()
    ma = sa.watch("B", 0, 0)
    sb.watch("A", 0, 0)
    events = []
    ma.subscribe(lambda mon, tr: events.append((mon.peer, tr.view)))
    FaultInjector(net).outage(net.switches["S0"], start=1.0, duration=2.0)
    sim.run(until=10.0)
    assert events == [("B", ChannelView.DOWN), ("B", ChannelView.UP)]


def test_watch_idempotent():
    sim, net, sa, sb = build_pair()
    m1 = sa.watch("B", 0, 0)
    m2 = sa.watch("B", 0, 0)
    assert m1 is m2


def test_stop_halts_pinging():
    sim, net, sa, sb = build_pair()
    ma = sa.watch("B", 0, 0)
    sb.watch("A", 0, 0)
    sim.run(until=1.0)
    ma.stop()
    sent_before = net.stats.sums["packets_sent"]
    sim.run(until=2.0)
    # only B's monitor still sends
    sent_after = net.stats.sums["packets_sent"]
    assert sent_after - sent_before <= 12  # ~10 hellos from B alone


def test_down_host_stops_pinging():
    """Fail-stop: a crashed host's monitors send nothing while it is
    down (none of its hellos is dropped at the source), its peer keeps
    pinging into it, and both ends see Down then Up across the outage."""
    sim, net, sa, sb = build_pair()
    ma = sa.watch("B", 0, 0)
    mb = sb.watch("A", 0, 0)
    FaultInjector(net).outage(net.hosts["A"], start=1.0, duration=2.0)
    sim.run(until=6.0)
    snap = sim.obs.metrics.snapshot()
    assert "net.network.dropped_src_down" not in snap
    assert snap["net.network.dropped_unreachable"]["series"][0]["value"] > 0
    assert views(ma) == views(mb) == [ChannelView.DOWN, ChannelView.UP]


def test_detection_time_tracks_timeout_config():
    for timeout, bound in ((0.3, 1.0), (1.5, 2.5)):
        cfg = MonitorConfig(ping_interval=0.1, timeout=timeout)
        sim, net, sa, sb = build_pair(cfg=cfg)
        ma = sa.watch("B", 0, 0)
        sb.watch("A", 0, 0)
        FaultInjector(net).fail_at(5.0, net.switches["S0"])
        sim.run(until=20.0)
        assert ma.history, "outage never detected"
        detect_delay = ma.history[0].time - 5.0
        assert 0 < detect_delay <= bound
