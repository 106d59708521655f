"""Tests for the vectorized struct-of-arrays data plane.

Covers the batch module itself (LossStream stream parity, FIFO closed
form), the batched pipeline end to end, the equivalence contract the
batched route must keep with the same packets sent one by one (same
drop decisions, same logical kernel event counts, same metrics), and
the rules that keep windows and scalar packets apart.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.net import HEADER_BYTES, FaultInjector, Network, PortInUse
from repro.net.batch import LossStream, fifo_finish_times
from repro.net.link import LinkEnd
from repro.sim import Simulator


def two_host_net(seed: int = 11, loss: float = 0.0):
    sim = Simulator(seed=seed)
    net = Network(sim, default_loss_rate=loss)
    a = net.add_host("A")
    b = net.add_host("B")
    s = net.add_switch("S")
    net.link(a.nic(0), s)
    net.link(b.nic(0), s)
    return sim, net, a, b


# -- LossStream: vectorized draws consume the per-packet stream -------------


def _fresh_stream(seed: int = 9):
    return Simulator(seed=seed).rng.stream("test.loss")


@pytest.mark.parametrize("pattern", [
    [1] * 40,
    [7, 1, 1, 300, 5, 256, 1, 90],
    [512, 1, 512],
    # across the block edge (LossStream.BLOCK = 4096) and past two blocks
    [4095, 2, 8193, 1],
    [1, 4096, 4095, 1, 1, 256],
    [256] * 40,
])
def test_lossstream_draw_matches_scalar_stream(pattern):
    ls = LossStream(_fresh_stream())
    ref = _fresh_stream()
    got = []
    for k in pattern:
        if k == 1:
            got.append(ls.one())
        else:
            got.extend(ls.draw(k))
    want = [ref.random() for _ in range(sum(pattern))]
    assert got == want  # bit-exact, not approx


def test_lossstream_draw_views_are_read_only():
    ls = LossStream(_fresh_stream())
    view = ls.draw(256)  # inside the block: a view of it
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0] = 0.0
    straddle = ls.draw(LossStream.BLOCK)  # crosses the block edge: a copy
    assert straddle.flags.writeable
    straddle[0] = 0.0
    ref = _fresh_stream()
    ref.random(256)
    assert ls.one() == ref.random(LossStream.BLOCK + 1)[-1]


@pytest.mark.parametrize("loss_rate", [0.03, 0.15, 0.5, 0.97])
def test_vectorized_drop_set_matches_per_packet_loop(loss_rate):
    n = 1000
    ls = LossStream(_fresh_stream())
    vec_drops = set(np.flatnonzero(ls.draw(n) < loss_rate))
    ref = _fresh_stream()
    loop_drops = {i for i in range(n) if ref.random() < loss_rate}
    assert vec_drops == loop_drops
    assert 0 < len(vec_drops) < n


def test_zero_loss_rate_short_circuits_the_stream():
    # loss_rate == 0 must not consume (or even create) a loss stream, on
    # either the per-object or the batched route.
    sim, net, a, b = two_host_net(loss=0.0)
    a.send(b.endpoint(5), payload="x")
    a.send_batch(b.endpoint(5), [None] * 32)
    sim.run(until=1.0)
    assert net._dir_loss_streams == {}


# -- serialization_delay: scalar/array transparency -------------------------


def test_serialization_delay_scalar_and_array_agree():
    sim, net, a, b = two_host_net()
    link = net.links[0]
    wire = np.array([42, 1066, 8234], dtype=np.int64)
    vec = link.serialization_delay(wire)
    assert isinstance(vec, np.ndarray) and vec.shape == wire.shape
    for i, w in enumerate(wire):
        # bit-identical to the scalar path, not just close
        assert vec[i] == link.serialization_delay(int(w))
    assert link.serialization_delay(1000) == 1000 * 8.0 / link.bandwidth_bps


# -- fifo_finish_times: closed form == scalar reservation loop --------------


def _reserve(end, now, ser_delay):
    """The scalar serializer claim ``Network.transmit`` makes per packet."""
    end.busy_until = max(now, end.busy_until) + ser_delay
    return end.busy_until


def test_fifo_finish_times_matches_scalar_reserve_loop():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        ready = np.sort(rng.random(n))
        ser = rng.random(n) * 0.1
        busy = float(rng.random())
        end = LinkEnd()
        end.busy_until = busy
        want = np.array([_reserve(end, ready[i], ser[i]) for i in range(n)])
        got = fifo_finish_times(ready, ser, busy)
        # The closed form reassociates the additions, so agreement is to
        # rounding error, not bit-exact — drop decisions never depend on
        # these times, only FIFO shape does.
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.all(np.diff(got) > 0)


def _fifo_finish_times_unfused(ready, ser, busy_until):
    """The closed form as first written (four temporaries): the in-place
    version must reproduce it bit for bit, not just to rounding."""
    cum = np.cumsum(ser)
    shifted = np.empty_like(cum)
    shifted[0] = 0.0
    shifted[1:] = cum[:-1]
    base = ready - shifted
    if busy_until > base[0]:
        base = base.copy()
        base[0] = busy_until
    return np.maximum.accumulate(base) + cum


def test_fifo_finish_times_is_bit_identical_to_the_unfused_form():
    rng = np.random.default_rng(30)
    cases = []
    for _ in range(300):
        k = int(rng.choice([1, 2, 3, int(rng.integers(4, 300))]))
        ready = np.sort(rng.random(k)) * 1e-2
        if rng.random() < 0.5:  # ties: packets ready at the same instant
            ready = np.round(ready, 3)
        ser = np.full(k, 4138 * 8.0 / 1e9) if rng.random() < 0.5 else rng.random(k) * 1e-4
        for busy in (0.0, ready[0] - 1e-3, ready[0], ready[0] + 1e-3 * rng.random()):
            cases.append((ready, ser, float(busy)))
    for ready, ser, busy in cases:
        want = _fifo_finish_times_unfused(ready, ser, busy)
        ready_before = ready.copy()
        got = fifo_finish_times(ready, ser, busy)
        assert np.array_equal(got, want)
        assert np.array_equal(ready, ready_before)  # inputs are not written


# -- batched pipeline end to end --------------------------------------------


def test_batch_delivery_whole_window():
    sim, net, a, b = two_host_net()
    seen = []
    b.bind_batch(7, lambda batch: seen.append(batch))
    sent = a.send_batch(b.endpoint(7), [f"m{i}" for i in range(100)], size_bytes=512)
    sim.run(until=1.0)
    assert len(seen) == 1 and seen[0] is sent
    assert sent.n_alive == 100
    assert int(net.stats.sums["packets_delivered"]) == 100
    assert b.delivered == 100
    arr = sent.arrival
    assert np.all(np.diff(arr) > 0)  # FIFO through the shared serializer
    assert np.all(sent.hops == 2)
    # pids minted consecutively in send order from the global counter
    pids = list(sent.pid)
    assert pids == list(range(pids[0], pids[0] + 100))


def test_batch_drops_clear_alive_mask_only():
    sim, net, a, b = two_host_net(seed=3, loss=0.3)
    b.bind_batch(7, lambda batch: None)
    sent = a.send_batch(b.endpoint(7), [None] * 400)
    sim.run(until=2.0)
    assert len(sent) == 400  # columns never shrink
    survivors = sent.n_alive
    assert 0 < survivors < 400
    assert int(net.stats.sums["packets_delivered"]) == survivors
    assert int(net.stats.sums["packets_dropped"]) == 400 - survivors
    assert int(net.stats.sums["drop_link_loss"]) == 400 - survivors


@pytest.mark.parametrize("observed", [False, True])
def test_batched_windows_count_one_trace_record_per_packet(observed):
    sim, net, a, b = two_host_net(seed=3, loss=0.3)
    seen = sim.obs.bus.record("net.trace.*") if observed else None
    b.bind_batch(7, lambda batch: None)
    sent = a.send_batch(b.endpoint(7), [None] * 400)
    sim.run(until=2.0)
    dropped = 400 - sent.n_alive
    assert sim.obs.bus.topic_counts("net.trace") == {
        "net.trace.deliver": sent.n_alive,
        "net.trace.drop": dropped,
    }
    if observed:  # rendered per row, drops carrying their reason
        messages = [e.data["message"] for e in seen]
        assert len(messages) == 400 and all(m.startswith("pkt#") for m in messages)
        assert sum(m.endswith("(link_loss)") for m in messages) == dropped


def test_hop_batch_survives_a_lost_window_tail():
    """Tail loss on an idle hop must not schedule in the past.

    50 us links and 4 KiB packets (33 us serialization, so three lost
    tail packets outweigh one link latency): when the last packets of a
    window die on the second hop, the survivors' last arrival precedes
    the hop callback's own time.  The window is delivered at that
    callback's time; the per-packet ``arrival`` column keeps the true
    arrivals.
    """
    sim = Simulator(seed=3)
    net = Network(sim)
    a = net.add_host("A")
    b = net.add_host("B")
    s = net.add_switch("S")
    first = net.link(a.nic(0), s, latency_s=50e-6)
    net.link(s, b.nic(0), latency_s=50e-6, loss_rate=0.9)
    seen = []
    b.bind_batch(7, lambda batch: seen.append(sim.now))
    sent = a.send_batch(b.endpoint(7), [None] * 32, size_bytes=4096)
    sim.run(until=1.0)
    alive = sent.alive_indices()
    # the scenario this seed was picked for: survivors, and a dead tail
    assert 0 < len(alive) and alive[-1] < 32 - 3
    ser = first.serialization_delay(4096 + HEADER_BYTES)
    window_at_switch = 32 * ser + 50e-6
    assert sent.arrival[alive[-1]] < window_at_switch  # landed before the callback
    assert seen == [pytest.approx(window_at_switch)]
    assert int(net.stats.sums["packets_delivered"]) == len(alive)


# -- equivalence: a window vs the same packets sent one by one --------------


def _run_flow(batched: bool, loss: float = 0.2, n: int = 300):
    """``n`` 256-byte packets from A to B at t = 0: one window to a
    ``bind_batch`` handler, or ``n`` scalar sends to a ``bind`` handler.
    Returns the delivered positions (pid minus the first pid), the
    network's sums and the kernel's event count."""
    sim, net, a, b = two_host_net(seed=21, loss=loss)
    got = []
    if batched:
        b.bind_batch(7, lambda batch: got.extend(
            int(batch.pid[i]) - base for i in batch.alive_indices()))
        base = int(a.send_batch(b.endpoint(7), [None] * n, size_bytes=256).pid[0])
    else:
        b.bind(7, lambda pkt: got.append(pkt.pid - base))
        base = a.send(b.endpoint(7), None, size_bytes=256).pid
        for _ in range(n - 1):
            a.send(b.endpoint(7), None, size_bytes=256)
    sim.run(until=2.0)
    events = int(sim.obs.metrics.value("sim.kernel.events"))
    return got, dict(net.stats.sums), events


def test_batched_route_matches_scalar_sends():
    """Single flow: same drop set, same stats, same *logical* event count.

    With one sender, serializer reservation order is identical on both
    routes, so the per-direction loss streams assign the same draws to
    the same packets — and the batched route credits exactly the
    callbacks it elides.
    """
    fast_pos, fast_stats, fast_events = _run_flow(True)
    slow_pos, slow_stats, slow_events = _run_flow(False)
    assert 0 < len(fast_pos) < 300  # the loss actually bit
    assert fast_pos == slow_pos  # identical drop decisions, window order
    assert fast_stats == slow_stats
    assert fast_events == slow_events


# -- the rules that keep windows and scalar packets apart -------------------


def test_send_batch_on_a_sharded_replica_raises():
    """A sharded replica is fault-armed from construction, so a window
    is refused before anything is scheduled."""
    from repro.net.shard import ShardedNetwork
    from repro.sim.shard import ShardedSimulator

    ss = ShardedSimulator(seed=5, shards=2, lookahead=40e-6)
    owner = {"A": 0, "S": 1, "B": 1}
    host_index = {"A": 0, "B": 1}
    nets = []
    for kernel in ss.kernels:
        net = ShardedNetwork(kernel, owner, host_index)
        a = net.add_host("A")
        b = net.add_host("B")
        s = net.add_switch("S")
        net.link(a.nic(0), s)
        net.link(b.nic(0), s)
        nets.append(net)
    with pytest.raises(RuntimeError, match="shard replica"):
        nets[0].hosts["A"].send_batch(nets[1].hosts["B"].endpoint(7), ["x"] * 6)
    assert [k.peek() for k in ss.kernels] == [float("inf")] * 2
    assert "packets_sent" not in nets[0].stats.sums


def test_send_batch_on_a_network_with_a_fault_injector_raises():
    sim, net, a, b = two_host_net()
    FaultInjector(net)
    b.bind_batch(7, lambda batch: None)
    with pytest.raises(RuntimeError, match="FaultInjector"):
        a.send_batch(b.endpoint(7), [None] * 8)
    assert sim.peek() == float("inf")
    assert "packets_sent" not in net.stats.sums


def test_a_window_to_a_bind_port_and_a_packet_to_a_bind_batch_port_are_dropped():
    sim, net, a, b = two_host_net()
    got = []
    b.bind(7, got.append)
    b.bind_batch(8, got.append)
    a.send_batch(b.endpoint(7), [None] * 5)
    a.send(b.endpoint(8), None)
    sim.run(until=1.0)
    assert got == [] and b.delivered == 0
    sums = net.stats.sums
    assert sums["packets_delivered"] == 6.0  # the network delivered them...
    assert sums["dropped_no_handler"] == 6.0  # ...and the host had no handler


def test_a_port_holds_one_handler_of_either_kind():
    sim, net, a, b = two_host_net()
    b.bind(7, lambda pkt: None)
    b.bind_batch(8, lambda batch: None)
    with pytest.raises(PortInUse):
        b.bind_batch(7, lambda batch: None)
    with pytest.raises(PortInUse):
        b.bind(8, lambda pkt: None)


def test_manual_mid_flight_link_kill_is_exact_per_hop():
    """A link killed by hand (no FaultInjector) drops exactly the packet
    that meets it: ``element_down`` if the packet has yet to start that
    hop, ``link_died_in_flight`` if it is already on the wire."""
    hop = (10_000_000 + HEADER_BYTES) * 8.0 / 1e9 + 50e-6  # one hop of the 10 MB packet

    def run(kill_at: float) -> dict:
        sim, net, a, b = two_host_net()
        delivered = []
        b.bind(7, delivered.append)
        a.send(b.endpoint(7), payload="doomed", size_bytes=10_000_000)

        def kill_link() -> None:
            net.links[1].up = False  # S <-> B, the second hop
            net.bump_topology()

        sim.call_in(kill_at, kill_link)
        sim.run(until=5.0)
        assert delivered == []
        assert int(net.stats.sums["packets_dropped"]) == 1
        return {k: v for k, v in net.stats.sums.items() if k.startswith("drop_")}

    assert run(0.5 * hop) == {"drop_element_down": 1.0}
    assert run(1.5 * hop) == {"drop_link_died_in_flight": 1.0}


# -- golden: a flood-shaped network on the batched route ---------------------


def _small_flood(seed: int = 7):
    """8 hosts on an 8-switch ring, 2 % loss, 128-packet windows to the host
    three switches on every 20 ms for 1 simulated s, then drained: the
    contended, lossy shape of the e2e ``flood`` workload at a tenth of
    its size."""
    from repro.obs import ClusterReport

    sim = Simulator(seed=seed)
    net = Network(sim, default_latency_s=500e-6, default_loss_rate=0.02)
    n = 8
    switches = [net.add_switch(f"S{i}") for i in range(n)]
    for i in range(n):
        net.link(switches[i], switches[(i + 1) % n])
    hosts = [net.add_host(f"H{i}") for i in range(n)]
    for i, host in enumerate(hosts):
        net.link(host.nic(0), switches[i])
        host.bind_batch(9000, lambda batch: None)

    def pump(i):
        hosts[i].send_batch(hosts[(i + 3) % n].endpoint(9000), [None] * 128, size_bytes=4096)
        if sim.now + 0.02 < 1.0:
            sim.call_in(0.02, pump, i)

    for i in range(n):
        sim.call_in(0.0, pump, i)
    sim.run()
    return ClusterReport.capture(sim, scenario="flood-small")


# Moved once, by clamping batched queue waits at 0: the report's queue-wait
# min went from -1.1102230246251565e-16 to 0.0, nothing else changed.
SMALL_FLOOD_SHA256 = "4560bc12e22dbeb10cf3e3ff84a3c98ffefe178d051e7df0c7f86daf3fef5eff"


def test_small_flood_report_golden():
    report = _small_flood()
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == SMALL_FLOOD_SHA256


def test_batched_queue_waits_are_never_negative():
    # The closed-form reservation rounds: finish - ser - ready can come out
    # at -1.1e-16 for a packet that did not wait.  The scalar route clamps
    # its wait at 0, and the batched route must report the same quantity.
    (wait,) = _small_flood().metrics["net.link.queue_wait"]["series"]
    assert wait["count"] > 0 and wait["max"] > 0.0
    assert wait["min"] == 0.0
