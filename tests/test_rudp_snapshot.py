"""Tests for transparent checkpointing of RUDP state (paper Sec. 2.5)."""

import pytest

from repro.net import FaultInjector, Network
from repro.channel import WindowFull
from repro.rudp import RudpTransport, freeze, thaw
from repro.sim import Simulator


def pair(seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim)
    s = net.add_switch("S")
    a = net.add_host("A")
    b = net.add_host("B")
    net.link(a.nic(0), s)
    net.link(b.nic(0), s)
    ta = RudpTransport(a)
    tb = RudpTransport(b)
    ta.connect("B")
    tb.connect("A")
    return sim, net, a, b, ta, tb


def test_freeze_is_local_and_complete():
    sim, net, a, b, ta, tb = pair()
    got = []
    tb.register("app", lambda s, d: got.append(d))
    for i in range(5):
        ta.send("B", "app", i)
    snap = freeze(ta)  # instantaneous: nothing has even been delivered
    assert "B" in snap.connections
    st = snap.connections["B"]
    assert st.next_seq == 6 and st.send_base == 1
    assert len(st.inflight) == 5


def test_checkpoint_restore_resumes_exactly_once():
    """The paper's core claim: snapshot program + channel state, crash,
    restore — messages sent after the snapshot are deduplicated by the
    receiver, nothing is lost, nothing is doubled."""
    sim, net, a, b, ta, tb = pair()
    received = []
    tb.register("app", lambda s, d: received.append(d))

    # phase 1: send 0..9 and let them arrive
    for i in range(10):
        ta.send("B", "app", i)
    sim.run(until=2.0)
    assert received == list(range(10))

    # coordinated checkpoint of A's side (app state: next message = 10)
    snap = freeze(ta)
    app_next = 10

    # phase 2 (after the checkpoint, will be rolled back): send 10..14
    for i in range(10, 15):
        ta.send("B", "app", i)
    sim.run(until=4.0)
    assert received == list(range(15))

    # A crashes and reboots: fresh transport, thawed channel state,
    # app restarts from its checkpoint and re-sends 10..14 (and more)
    fi = FaultInjector(net)
    fi.fail(a)
    sim.run(until=6.0)
    fi.repair(a)
    a.unbind(ta.port)
    ta2 = RudpTransport(a)  # no services needed on the sender side
    thaw(ta2, snap)
    for i in range(app_next, 20):  # re-runs its post-checkpoint sends
        ta2.send("B", "app", i)
    sim.run(until=12.0)

    # receiver saw every message exactly once, in order
    assert received == list(range(15)) + list(range(15, 20))


def test_restore_retransmits_unacked():
    sim, net, a, b, ta, tb = pair()
    got = []
    tb.register("app", lambda s, d: got.append(d))
    fi = FaultInjector(net)
    fi.fail(b)  # receiver down: sends stay in flight
    for i in range(4):
        ta.send("B", "app", i)
    sim.run(until=1.0)
    snap = freeze(ta)
    # A reboots while B is still down
    fi.fail(a)
    sim.run(until=2.0)
    fi.repair(a)
    fi.repair(b)
    a.unbind(ta.port)
    ta2 = RudpTransport(a)
    thaw(ta2, snap)
    sim.run(until=8.0)
    assert got == [0, 1, 2, 3]  # delivered by the restored endpoint


def test_receiver_state_preserved_across_thaw():
    # inbound reorder state also survives: B checkpoints, reboots, and
    # the stream continues without duplication
    sim, net, a, b, ta, tb = pair()
    got = []
    tb.register("app", lambda s, d: got.append(d))
    for i in range(6):
        ta.send("B", "app", i)
    sim.run(until=2.0)
    snap_b = freeze(tb)
    fi = FaultInjector(net)
    fi.fail(b)
    sim.run(until=3.0)
    fi.repair(b)
    b.unbind(tb.port)
    tb2 = RudpTransport(b)
    got2 = []
    tb2.register("app", lambda s, d: got2.append(d))
    thaw(tb2, snap_b)
    for i in range(6, 10):
        ta.send("B", "app", i)
    sim.run(until=10.0)
    assert got == list(range(6))
    assert got2 == list(range(6, 10))  # no replay of pre-checkpoint data


def test_thaw_wrong_host_rejected():
    sim, net, a, b, ta, tb = pair()
    snap = freeze(ta)
    with pytest.raises(ValueError):
        thaw(tb, snap)


def test_snapshot_deep_copies_buffers():
    sim, net, a, b, ta, tb = pair()
    payload = {"mutable": [1, 2]}
    ta.send("B", "app", payload)
    snap = freeze(ta)
    payload["mutable"].append(3)  # mutate after the checkpoint
    st = snap.connections["B"]
    (env, _size, _ctx) = st.inflight[1]
    assert env.data == {"mutable": [1, 2]}  # snapshot unaffected


def test_full_backlog_drains_in_order_across_freeze_thaw():
    """A send buffer filled to ``max_buffer`` (10,000 queued messages
    behind a full window) is checkpointed, the sender crashes and is
    restored from the checkpoint, and the whole backlog still arrives
    exactly once, in order.  Draining takes the backlog's front in O(1),
    and an endpoint with no backlog holds no buffer at all."""
    sim, net, a, b, ta, tb = pair()
    got = []
    tb.register("app", lambda s, d: got.append(d))
    ep = ta.connections["B"].endpoint
    assert ep._unsent is None  # nothing allocated while there is no backlog
    sent = 0
    with pytest.raises(WindowFull):
        while True:
            ta.send("B", "app", sent)
            sent += 1
    assert ep.backlog == ep.max_buffer == 10_000
    assert sent == ep.window + ep.max_buffer

    snap = freeze(ta)
    st = snap.connections["B"]
    assert [m.data for m, _, _ in st.unsent] == list(range(ep.window, sent))
    fi = FaultInjector(net)
    fi.fail(a)
    sim.run(until=1.0)
    fi.repair(a)
    a.unbind(ta.port)
    ta2 = RudpTransport(a)
    thaw(ta2, snap)
    ep2 = ta2.connections["B"].endpoint
    assert ep2.backlog == 10_000
    sim.run(until=60.0)
    assert got == list(range(sent))
    assert ep2.all_acked and ep2._unsent is None
