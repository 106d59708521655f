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
