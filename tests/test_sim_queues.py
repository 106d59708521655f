"""Tests for the Mailbox blocking FIFO."""

from repro.sim import Mailbox, QueueClosed, Simulator


def test_put_then_get():
    sim = Simulator()
    box = Mailbox(sim)
    box.put("a")
    box.put("b")

    def proc(sim):
        x = yield box.get()
        y = yield box.get()
        return [x, y]

    assert sim.run_process(proc(sim)) == ["a", "b"]


def test_get_blocks_until_put():
    sim = Simulator()
    box = Mailbox(sim)

    def getter(sim):
        item = yield box.get()
        return (sim.now, item)

    sim.call_in(3.0, box.put, "late")
    assert sim.run_process(getter(sim)) == (3.0, "late")


def test_fifo_order_across_getters():
    sim = Simulator()
    box = Mailbox(sim)
    results = []

    def getter(sim, tag):
        item = yield box.get()
        results.append((tag, item))

    sim.process(getter(sim, "g1"))
    sim.process(getter(sim, "g2"))
    sim.call_in(1.0, box.put, "first")
    sim.call_in(2.0, box.put, "second")
    sim.run()
    assert results == [("g1", "first"), ("g2", "second")]


def test_capacity_drops_when_full():
    sim = Simulator()
    box = Mailbox(sim, capacity=2)
    assert box.put(1)
    assert box.put(2)
    assert not box.put(3)
    assert box.dropped == 1
    assert len(box) == 2


def test_close_rejects_puts_and_fails_getters():
    sim = Simulator()
    box = Mailbox(sim)

    def getter(sim):
        try:
            yield box.get()
        except QueueClosed:
            return "closed"

    proc = sim.process(getter(sim))
    proc._defused = True
    sim.call_in(1.0, box.close)
    sim.run()
    assert proc.value == "closed"
    assert not box.put("nope")
    assert box.dropped == 1


def test_get_after_close_drains_then_fails():
    sim = Simulator()
    box = Mailbox(sim)
    box.put("remaining")
    box.close()

    def proc(sim):
        first = yield box.get()
        try:
            yield box.get()
        except QueueClosed:
            return (first, "closed")

    assert sim.run_process(proc(sim)) == ("remaining", "closed")


def test_clear_returns_count():
    sim = Simulator()
    box = Mailbox(sim)
    for i in range(4):
        box.put(i)
    assert box.clear() == 4
    assert len(box) == 0


def test_interrupted_getter_does_not_consume_item():
    sim = Simulator()
    box = Mailbox(sim)
    outcome = []

    def getter(sim, tag):
        try:
            item = yield box.get()
            outcome.append((tag, item))
        except Exception:
            outcome.append((tag, "interrupted"))

    p1 = sim.process(getter(sim, "g1"))
    sim.process(getter(sim, "g2"))
    sim.call_in(1.0, p1.interrupt)
    sim.call_in(2.0, box.put, "item")
    sim.run()
    assert ("g2", "item") in outcome
    assert ("g1", "interrupted") in outcome
