"""Property-based tests for the reliable messaging layer.

Hypothesis drives adversarial loss patterns and traffic shapes; the
invariant is always the same: exactly-once, in-order delivery once the
channel lets anything through.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import ReliableEndpoint
from repro.sim import Simulator


class ScriptedWire:
    """Drops segments per scripted boolean masks (cycled).

    Each direction cycles its own mask, as two physical fibres would.
    (A single mask indexed by *global* transmission count can phase-lock
    every ACK onto a drop slot forever — an adversary no real channel
    implements and no timer-based protocol can beat.)
    """

    def __init__(self, sim, mask, delay=0.01):
        self.sim = sim
        self.mask = mask or [False]
        self.i_ab = 0
        self.i_ba = 0
        self.delay = delay
        self.a = None
        self.b = None

    def tx_from_a(self, seg):
        drop = self.mask[self.i_ab % len(self.mask)]
        self.i_ab += 1
        if not drop:
            self.sim.call_in(self.delay, self.b.on_segment, seg)

    def tx_from_b(self, seg):
        drop = self.mask[self.i_ba % len(self.mask)]
        self.i_ba += 1
        if not drop:
            self.sim.call_in(self.delay, self.a.on_segment, seg)


@given(
    mask=st.lists(st.booleans(), min_size=1, max_size=40),
    n_messages=st.integers(min_value=0, max_value=60),
    window=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=120, deadline=None)
def test_exactly_once_in_order_under_scripted_loss(mask, n_messages, window):
    # bound the loss rate at ~75% so worst-case recovery fits the time
    # horizon (the channel must be fair-lossy, not adversarially dead)
    mask = mask + [False] * max(1, len(mask) // 3)
    sim = Simulator()
    wire = ScriptedWire(sim, mask)
    got = []
    a = ReliableEndpoint(sim, wire.tx_from_a, lambda m: None, window=window, rto=0.05)
    b = ReliableEndpoint(sim, wire.tx_from_b, got.append, window=window, rto=0.05)
    wire.a, wire.b = a, b
    for i in range(n_messages):
        a.send(i)
    # generous horizon: high-loss masks at window 1 need several
    # backoff-spaced rounds per message
    sim.run(until=600.0)
    assert got == list(range(n_messages))
    assert a.inflight == 0 and a.backlog == 0


@given(
    burst_sizes=st.lists(st.integers(min_value=1, max_value=10), max_size=8),
    gap=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_bursty_bidirectional_traffic(burst_sizes, gap):
    sim = Simulator()
    wire = ScriptedWire(sim, [False, True, False])  # drop every 2nd of 3
    got_a, got_b = [], []
    a = ReliableEndpoint(sim, wire.tx_from_a, got_a.append, rto=0.05)
    b = ReliableEndpoint(sim, wire.tx_from_b, got_b.append, rto=0.05)
    wire.a, wire.b = a, b
    sent_a, sent_b = [], []

    def driver(sim):
        for k, burst in enumerate(burst_sizes):
            for j in range(burst):
                a.send(("a", k, j))
                sent_a.append(("a", k, j))
                b.send(("b", k, j))
                sent_b.append(("b", k, j))
            yield sim.timeout(gap + 0.001)

    sim.process(driver(sim))
    sim.run(until=200.0)
    assert got_b == sent_a
    assert got_a == sent_b


class ReorderingWire(ScriptedWire):
    """A :class:`ScriptedWire` whose per-segment delay cycles through a
    drawn list, so a later segment can overtake an earlier one."""

    def __init__(self, sim, mask, delays):
        super().__init__(sim, mask)
        self.delays = delays

    def tx_from_a(self, seg):
        self._tx(seg, self.b, self.i_ab)
        self.i_ab += 1

    def tx_from_b(self, seg):
        self._tx(seg, self.a, self.i_ba)
        self.i_ba += 1

    def _tx(self, seg, dst, i):
        if not self.mask[i % len(self.mask)]:
            self.sim.call_in(self.delays[i % len(self.delays)], dst.on_segment, seg)


def _replying_pair(wire, window, rto, every):
    """a sends; b answers every ``every``-th message from inside deliver,
    so some acks ride on replies and the rest go pure after delta."""
    got_a, got_b = [], []

    def b_deliver(m):
        got_b.append(m)
        if m % every == 0:
            b.send(("re", m))

    a = ReliableEndpoint(wire.sim, wire.tx_from_a, got_a.append, window=window, rto=rto)
    b = ReliableEndpoint(wire.sim, wire.tx_from_b, b_deliver, window=window, rto=rto)
    wire.a, wire.b = a, b
    return a, b, got_a, got_b


@given(
    mask=st.lists(st.booleans(), min_size=1, max_size=30),
    delays=st.lists(st.floats(min_value=0.0, max_value=0.2), min_size=1, max_size=12),
    n_messages=st.integers(min_value=0, max_value=50),
    window=st.integers(min_value=1, max_value=16),
    every=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=120, deadline=None)
def test_exactly_once_in_order_under_loss_and_reordering(mask, delays, n_messages, window, every):
    mask = mask + [False] * max(1, len(mask) // 3)
    sim = Simulator()
    wire = ReorderingWire(sim, mask, delays)
    a, b, got_a, got_b = _replying_pair(wire, window, rto=0.05, every=every)

    def driver(sim):
        for i in range(n_messages):
            a.send(i)
            yield sim.timeout(delays[i % len(delays)] / 4)

    sim.process(driver(sim))
    sim.run(until=600.0)
    assert got_b == list(range(n_messages))
    assert got_a == [("re", i) for i in range(n_messages) if i % every == 0]
    assert a.inflight == 0 and a.backlog == 0 and b.inflight == 0


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=0.02), min_size=1, max_size=12),
    n_messages=st.integers(min_value=1, max_value=50),
    every=st.integers(min_value=1, max_value=4),
    gap=st.floats(min_value=0.0, max_value=0.1),
)
@settings(max_examples=60, deadline=None)
def test_a_delayed_ack_beats_the_rto(delays, n_messages, every, gap):
    # The ack bound: a pure ack waits at most delta = rto/10, so with a
    # one-way delay under 0.45 rto (here 0.4) the ack reaches the sender
    # within delta + one RTT < RTO, and a loss-free channel never
    # retransmits, however the segments reorder.
    sim = Simulator()
    wire = ReorderingWire(sim, [False], delays)
    a, b, got_a, got_b = _replying_pair(wire, window=64, rto=0.05, every=every)

    def driver(sim):
        for i in range(n_messages):
            a.send(i)
            yield sim.timeout(gap)

    sim.process(driver(sim))
    sim.run(until=60.0)
    assert got_b == list(range(n_messages))
    assert a.retransmissions == 0 and b.retransmissions == 0
