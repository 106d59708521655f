"""Tests for the sliding-window reliable messaging layer."""

import pytest

from repro.channel import ReliableEndpoint, Segment, WindowFull
from repro.sim import Simulator


class LossyWire:
    """Connects two endpoints with configurable delay/loss/duplication."""

    def __init__(self, sim, delay=0.01, loss=0.0, seed=0):
        self.sim = sim
        self.delay = delay
        self.loss = loss
        self.rng = sim.rng.stream(f"wire{seed}")
        self.a = None
        self.b = None
        self.down = False

    def tx_from_a(self, seg):
        self._tx(seg, self.b)

    def tx_from_b(self, seg):
        self._tx(seg, self.a)

    def _tx(self, seg, dst):
        if self.down or (self.loss and self.rng.random() < self.loss):
            return
        self.sim.call_in(self.delay, dst.on_segment, seg)


def make_pair(sim, loss=0.0, rto=0.05, window=32, **kw):
    wire = LossyWire(sim, loss=loss)
    got_a, got_b = [], []
    a = ReliableEndpoint(sim, wire.tx_from_a, got_a.append, rto=rto, window=window, **kw)
    b = ReliableEndpoint(sim, wire.tx_from_b, got_b.append, rto=rto, window=window, **kw)
    wire.a, wire.b = a, b
    return wire, a, b, got_a, got_b


def test_in_order_delivery_clean_wire():
    sim = Simulator()
    wire, a, b, got_a, got_b = make_pair(sim)
    for i in range(10):
        a.send(f"m{i}")
    sim.run(until=5.0)
    assert got_b == [f"m{i}" for i in range(10)]
    assert a.inflight == 0 and a.backlog == 0
    assert a.retransmissions == 0


def test_bidirectional():
    sim = Simulator()
    wire, a, b, got_a, got_b = make_pair(sim)
    a.send("from-a")
    b.send("from-b")
    sim.run(until=1.0)
    assert got_b == ["from-a"] and got_a == ["from-b"]


def test_reliable_over_lossy_wire():
    sim = Simulator(seed=2)
    wire, a, b, got_a, got_b = make_pair(sim, loss=0.4)
    msgs = [f"m{i}" for i in range(100)]
    for m in msgs:
        a.send(m)
    sim.run(until=60.0)
    assert got_b == msgs
    assert a.retransmissions > 0
    assert b.duplicates_dropped >= 0


def test_no_duplicates_despite_retransmission():
    sim = Simulator(seed=3)
    wire, a, b, got_a, got_b = make_pair(sim, loss=0.5)
    for i in range(50):
        a.send(i)
    sim.run(until=60.0)
    assert got_b == list(range(50))  # exactly once, in order


def test_outage_then_recovery_delivers_everything():
    sim = Simulator()
    wire, a, b, got_a, got_b = make_pair(sim)
    for i in range(5):
        a.send(i)
    def cut():
        wire.down = True

    def mend():
        wire.down = False

    sim.call_at(0.001, cut)
    sim.call_at(2.0, mend)
    sim.call_at(1.0, lambda: a.send(5))  # queued during the outage
    sim.run(until=10.0)
    assert got_b == [0, 1, 2, 3, 4, 5]
    assert a.inflight == 0 and a.backlog == 0


def test_window_limits_inflight():
    sim = Simulator()
    wire, a, b, got_a, got_b = make_pair(sim, window=4)
    wire.down = True  # nothing gets through
    for i in range(20):
        a.send(i)
    assert a.inflight == 4
    assert a.backlog == 16
    wire.down = False
    sim.run(until=30.0)
    assert got_b == list(range(20))


def test_buffer_cap_raises():
    sim = Simulator()
    wire, a, b, *_ = make_pair(sim, max_buffer=5)
    wire.down = True
    for i in range(5 + a.window):
        a.send(i)
    with pytest.raises(WindowFull):
        a.send("overflow")


def test_ack_only_segments_not_data():
    seg = Segment(seq=0, ack=7)
    assert not seg.is_data
    assert "ACK" in str(seg)
    assert "DATA#3" in str(Segment(seq=3, ack=0, payload="x"))


def test_delayed_ack_batches():
    sim = Simulator()
    wire, a, b, got_a, got_b = make_pair(sim)
    for i in range(10):
        a.send(i)
    sim.run(until=2.0)
    assert got_b == list(range(10))
    # the ten segments land in one instant and share one ACK
    assert b.segments_sent == 1


def test_throughput_stats():
    sim = Simulator()
    wire, a, b, got_a, got_b = make_pair(sim)
    for i in range(3):
        a.send(i, size_bytes=1000)
    sim.run(until=1.0)
    assert a.segments_sent >= 3
    assert a.inflight == 0 and a.backlog == 0


def test_interleaved_bidirectional_lossy():
    sim = Simulator(seed=9)
    wire, a, b, got_a, got_b = make_pair(sim, loss=0.3)

    def driver(sim):
        for i in range(30):
            a.send(("a", i))
            b.send(("b", i))
            yield sim.timeout(0.01)

    sim.process(driver(sim))
    sim.run(until=60.0)
    assert got_b == [("a", i) for i in range(30)]
    assert got_a == [("b", i) for i in range(30)]


def _record(endpoint):
    """Log (time, segment) for everything ``endpoint`` transmits."""
    log = []
    transmit = endpoint.transmit

    def tap(seg):
        log.append((endpoint.sim.now, seg))
        transmit(seg)

    endpoint.transmit = tap
    return log


def test_ack_rides_on_data_sent_within_delta():
    sim = Simulator()
    wire, a, b, got_a, got_b = make_pair(sim)  # rto 0.05, so delta = 0.005
    sent_b = _record(b)
    a.send("ping")  # lands at b at 0.01
    sim.call_at(0.012, b.send, "pong")  # a reply 2 ms into delta
    sim.run(until=1.0)
    assert got_b == ["ping"] and got_a == ["pong"]
    # the reply carried the ack; no pure ack ever went
    assert [(s.seq, s.ack) for _, s in sent_b] == [(1, 1)]
    assert a.inflight == 0 and b.inflight == 0
    assert a.retransmissions == 0


def test_one_pure_ack_at_delta_when_no_data_follows():
    sim = Simulator()
    wire, a, b, got_a, got_b = make_pair(sim)
    sent_b = _record(b)
    a.send("x")
    sim.call_at(0.0005, a.send, "y")  # lands 0.5 ms after x, inside delta
    sim.run(until=1.0)
    assert got_b == ["x", "y"]
    # exactly one pure ack, delta after the first delivery, covering both
    ((t, seg),) = sent_b
    assert not seg.is_data and seg.ack == 2
    assert t == pytest.approx(0.01 + b.rto / 10)
    assert a.inflight == 0 and a.retransmissions == 0


def test_a_reply_from_inside_deliver_leaves_no_pure_ack():
    sim = Simulator()
    wire = LossyWire(sim)
    got_a = []
    a = ReliableEndpoint(sim, wire.tx_from_a, got_a.append, rto=0.05)
    b = ReliableEndpoint(sim, wire.tx_from_b, lambda m: b.send(("re", m)), rto=0.05)
    wire.a, wire.b = a, b
    sent_b = _record(b)
    for i in range(3):
        a.send(i)
    sim.run(until=1.0)
    assert got_a == [("re", i) for i in range(3)]
    assert all(seg.is_data for _, seg in sent_b)


def test_duplicate_is_reacked_at_once():
    sim = Simulator()
    b = ReliableEndpoint(sim, lambda seg: None, lambda m: None, rto=0.05)
    sent_b = _record(b)
    b.on_segment(Segment(seq=1, ack=0, payload="x"))
    sim.call_at(0.001, b.on_segment, Segment(seq=1, ack=0, payload="x"))
    sim.run(until=1.0)
    assert b.duplicates_dropped == 1
    # the duplicate pulled the pending delta ack forward to its instant
    assert [(t, s.seq, s.ack) for t, s in sent_b] == [(0.001, 0, 1)]


def test_half_a_window_delivered_unacked_is_acked_at_once():
    sim = Simulator()
    b = ReliableEndpoint(sim, lambda seg: None, lambda m: None, window=8, rto=0.05)
    sent_b = _record(b)
    for seq in range(1, 5):  # four of a window of eight
        sim.call_at(seq * 1e-4, b.on_segment, Segment(seq=seq, ack=0, payload=seq))
    sim.run(until=1.0)
    assert [(t, s.ack) for t, s in sent_b] == [(4e-4, 4)]
