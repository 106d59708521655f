"""Unit tests for the sharded kernel: keyed ordering, origins, barriers.

The cluster-level acceptance bar (shards=N byte-identical to shards=1)
lives in ``test_shard_golden.py``; this file pins the mechanisms that
make it possible, plus the barrier edge cases the issue calls out.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hb import HbMonitor
from repro.obs.merge import (
    merge_event_counts,
    merge_metric_snapshots,
    merge_span_snapshots,
)
from repro.sim import SimulationError
from repro.sim.shard import (
    CONTROL_ORIGIN,
    SPAN_STRIDE,
    Handoff,
    ShardKernel,
    ShardedSimulator,
    host_origin,
    packet_origin,
)


class TestKeyedOrdering:
    def test_equal_time_events_run_in_key_order_not_fifo(self):
        k = ShardKernel(seed=1)
        order = []
        # inserted in reverse key order; keys must win over insertion order
        k.schedule_keyed(1.0, host_origin(2), 0, order.append, "c")
        k.schedule_keyed(1.0, host_origin(1), 1, order.append, "b")
        k.schedule_keyed(1.0, host_origin(1), 0, order.append, "a")
        k.run(until=2.0)
        assert order == ["a", "b", "c"]

    def test_sched_time_orders_before_origin(self):
        k = ShardKernel(seed=1)
        order = []
        # an event scheduled earlier (smaller sched_time) sorts first even
        # if its origin tuple is larger
        k.schedule_keyed(1.0, host_origin(9), 0, order.append, "early", sched_time=0.0)
        k.schedule_keyed(1.0, host_origin(1), 0, order.append, "late", sched_time=0.5)
        k.run(until=2.0)
        assert order == ["early", "late"]

    def test_nested_scheduling_inherits_current_origin(self):
        k = ShardKernel(seed=1)
        seen = []

        def outer():
            seen.append(k._cur_origin)
            k.call_in(0.5, inner)

        def inner():
            seen.append(k._cur_origin)

        k.schedule_keyed(1.0, host_origin(3), 0, outer)
        k.run(until=3.0)
        assert seen == [host_origin(3), host_origin(3)]

    def test_keyed_event_in_the_past_rejected(self):
        k = ShardKernel(seed=1)
        k.schedule_keyed(1.0, host_origin(0), 0, lambda: None)
        k.run(until=2.0)
        with pytest.raises(SimulationError, match="in the past"):
            k.schedule_keyed(1.0, host_origin(0), 1, lambda: None)

    def test_origin_scope_restores_ambient_origin(self):
        k = ShardKernel(seed=1)
        assert k._cur_origin == CONTROL_ORIGIN
        with k.origin(host_origin(4)):
            assert k._cur_origin == host_origin(4)
        assert k._cur_origin == CONTROL_ORIGIN

    def test_layout_invariant_schedule_across_kernels(self):
        # the same keyed events produce the same execution order whether
        # they share one kernel or are split across two
        def run_in(kernels, assign):
            order = []
            for name, (rank, t, origin, seq) in assign.items():
                kernels[rank].schedule_keyed(t, origin, seq, order.append, name)
            for k in kernels:
                k.run(until=5.0)
            return order

        events = {
            "a": (0, 1.0, host_origin(0), 0),
            "b": (0, 1.0, host_origin(1), 0),
            "c": (0, 2.0, host_origin(0), 1),
        }
        one = run_in([ShardKernel(seed=3)], {n: (0, *v[1:]) for n, v in events.items()})
        split = {n: v for n, v in events.items()}
        split["b"] = (1, *events["b"][1:])
        two_kernels = [ShardKernel(seed=3, rank=r, shards=2) for r in range(2)]
        two = run_in(two_kernels, split)
        # per-kernel suffixes of the global order: a,c in kernel 0; b in 1
        assert one == ["a", "b", "c"]
        assert two == ["a", "c", "b"]  # kernel 0 fully drains first (serial)


# -- the one drain loop, driven every way it can be ---------------------------
#
# ShardKernel only *inserts* differently; peek/step/run/run_events/_compact
# are Simulator's.  The schedules below collide on a five-instant grid, mix
# control, host and packet-chain origins, spawn children at the current
# instant on both sides of the rest of the bucket, and cancel more than
# Simulator._COMPACT_MIN calls from inside a callback so compaction rebuilds
# keyed deque buckets while the loop is draining them.

_GRID = (0.25, 0.5, 0.75, 1.0, 1.25)
_HORIZON = 1.0  # the 1.25 instant stays queued: the bound is part of the test
_ORIGINS = (
    (0, 3),
    (0, 8),
    host_origin(0),
    host_origin(1),
    packet_origin(0, 2),
    packet_origin(1, 0),
)
#: a child is ("after-parent" | "minted", delay): keyed right behind its
#: parent (ahead of everything else pending at that instant), or minted by
#: call_in under the parent's origin (behind every build-time key)
_CHILDREN = st.lists(
    st.tuples(st.sampled_from(("after-parent", "minted")), st.sampled_from((0.0, 0.25))),
    max_size=2,
)
_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(_GRID),
        st.sampled_from(_ORIGINS),
        st.sampled_from((0.0, 0.125)),  # sched_time: below every instant
        _CHILDREN,
    ),
    min_size=4,
    max_size=40,
)
_DOOMED = st.lists(
    st.tuples(st.sampled_from(_GRID), st.sampled_from(_ORIGINS)), min_size=65, max_size=90
)


def _drive_run(k):
    k.run(until=_HORIZON)


def _drive_step(k):
    while k.peek() <= _HORIZON and k.step():
        pass


def _drive_sanitized(k):
    k._hb = HbMonitor(1, None)
    k.run(until=_HORIZON)
    assert k._hb.events[0] > 0  # it really took the instrumented path


def _drive_chunks(chunks):
    def drive(k):
        for n in itertools.cycle(chunks):
            if k.run_events(n, until=_HORIZON) < n:
                break

    return drive


def _play(events, doomed, drive):
    """Build the schedule on a fresh kernel, drive it, and return
    ``(executed (time, key) list, sim.kernel.events, compaction times)``."""
    k = ShardKernel(seed=1)
    log = []
    compactions = []
    compact = k._compact
    k._compact = lambda: (compactions.append(k.now), compact())

    def run(key, children):
        assert k._cur_origin == key[1]
        log.append((k.now, key))
        sched, origin, seq = key
        for j, (kind, delay) in enumerate(children):
            if kind == "minted":
                call = k.call_in(delay, lambda: log.append((k.now, call.key)))
            else:
                after = (sched, origin, seq + 1 + j)
                k.schedule_keyed(k.now + delay, origin, after[2], run, after, (), sched_time=sched)

    for i, (t, origin, sched, children) in enumerate(events):
        key = (sched, origin, 1000 * i)
        k.schedule_keyed(t, origin, key[2], run, key, children, sched_time=sched)
    handles = [
        k.schedule_keyed(t, origin, 1000 * (len(events) + i), log.append, "doomed", sched_time=0.0)
        for i, (t, origin) in enumerate(doomed)
    ]
    # first event of the run: cancels every doomed call from inside the loop
    k.schedule_keyed(0.125, (0, 0), 0, lambda: [h.cancel() for h in handles], sched_time=0.0)
    drive(k)
    assert k._cur_origin == CONTROL_ORIGIN
    return log, k.obs.metrics.value("sim.kernel.events"), compactions


@settings(max_examples=60, deadline=None)
@given(events=_EVENTS, doomed=_DOOMED, chunks=st.lists(st.integers(1, 7), min_size=1, max_size=4))
def test_one_drain_loop_runs_keyed_schedules_identically_however_driven(
    events, doomed, chunks
):
    log, n_events, compactions = _play(events, doomed, _drive_run)
    # (a) exactly the surviving calls, in ascending (time, key) order
    assert "doomed" not in log
    assert log == sorted(log)
    survivors = [t for t, _, _, _ in events if t <= _HORIZON] + [
        t + delay
        for t, _, _, children in events
        for _, delay in children
        if t + delay <= _HORIZON
    ]
    assert sorted(t for t, _ in log) == sorted(survivors)
    # compaction ran inside the canceller's callback, i.e. mid-drain
    assert compactions and compactions[0] == 0.125
    # control-origin events (and what they mint) are not kernel events
    assert n_events == sum(1 for _, key in log if key[1][0] != 0)
    # (b) same sequence and same event metric however the loop is driven
    for drive in (_drive_step, _drive_chunks(chunks), _drive_sanitized):
        assert _play(events, doomed, drive) == (log, n_events, compactions)


@pytest.mark.parametrize("drive", [_drive_run, _drive_step, _drive_sanitized])
def test_origin_returns_to_the_ambient_one_when_a_callback_raises(drive):
    k = ShardKernel(seed=1)

    def boom():
        raise RuntimeError("boom")

    k.schedule_keyed(0.5, host_origin(2), 0, boom)
    with k.origin(host_origin(7)):  # e.g. a delivery re-rooting around run()
        with pytest.raises(RuntimeError, match="boom"):
            drive(k)
        assert k._cur_origin == host_origin(7)
    assert k._cur_origin == CONTROL_ORIGIN


class TestSpanAndPacketIds:
    def test_control_origin_spans_use_code_zero(self):
        k = ShardKernel(seed=1)
        assert k.mint_span_id() == 0
        assert k.mint_span_id() == 1

    def test_host_origin_spans_are_strided_by_rank(self):
        k = ShardKernel(seed=1)
        with k.origin(host_origin(2)):
            assert k.mint_span_id() == 3 * SPAN_STRIDE
            assert k.mint_span_id() == 3 * SPAN_STRIDE + 1

    def test_packet_origin_spans_rejected(self):
        k = ShardKernel(seed=1)
        with k.origin(packet_origin(0, 7)):
            with pytest.raises(SimulationError, match="packet-chain origin"):
                k.mint_span_id()

    def test_per_origin_seq_counters_are_independent(self):
        k = ShardKernel(seed=1)
        assert k.mint_origin_seq(("pid", 0)) == 0
        assert k.mint_origin_seq(("pid", 1)) == 0
        assert k.mint_origin_seq(("pid", 0)) == 1


class TestBarrierProtocol:
    def test_event_exactly_at_the_barrier_runs_in_that_window(self):
        sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)
        fired = []
        # t = 0.1 is exactly the end of the first window (inclusive)
        sharded.kernels[0].schedule_keyed(0.1, host_origin(0), 0, fired.append, 0.1)
        sharded.run(0.1)
        assert fired == [0.1]
        assert sharded.now == 0.1

    def test_handoff_inside_the_window_raises(self):
        sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)
        sharded.kernels[1].on_inject = lambda payload: None

        def stage():
            sharded.kernels[0].stage(Handoff(dest=1, time=0.05, payload="too-early"))

        sharded.kernels[0].schedule_keyed(0.01, host_origin(0), 0, stage)
        with pytest.raises(SimulationError, match="conservative window violated"):
            sharded.run(0.2)

    def test_handoff_exactly_at_window_end_raises(self):
        # arrival <= the destination's bound is a violation: the receiver
        # may already have run through that instant.  Shard 1's bound is
        # shard 0's earliest event plus the lookahead, 0.01 + 0.1.
        sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)
        sharded.kernels[1].on_inject = lambda payload: None

        def stage():
            sharded.kernels[0].stage(
                Handoff(dest=1, time=0.01 + 0.1, payload="at-barrier")
            )

        sharded.kernels[0].schedule_keyed(0.01, host_origin(0), 0, stage)
        with pytest.raises(SimulationError, match="conservative window violated"):
            sharded.run(0.2)

    def test_valid_handoff_is_injected_after_the_barrier(self):
        sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)
        got = []
        sharded.kernels[1].on_inject = got.append

        def stage():
            sharded.kernels[0].stage(Handoff(dest=1, time=0.15, payload=("pkt", 42)))

        sharded.kernels[0].schedule_keyed(0.01, host_origin(0), 0, stage)
        sharded.run(0.3)
        assert got == [("pkt", 42)]

    def test_handoff_survives_a_split_run(self):
        # a handoff staged by the last window of one run() call waits in
        # the coordinator and is injected by the next call's first step
        def deliveries(*untils):
            sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)
            got = []

            def inject(payload):
                # schedule the arrival the way a network layer would
                sharded.kernels[1].schedule_keyed(
                    payload[1], host_origin(1), 0, got.append, payload,
                    sched_time=0.01,
                )

            sharded.kernels[1].on_inject = inject

            def stage():
                sharded.kernels[0].stage(
                    Handoff(dest=1, time=0.15, payload=("pkt", 0.15))
                )

            sharded.kernels[0].schedule_keyed(0.01, host_origin(0), 0, stage)
            for until in untils:
                sharded.run(until)
            return got, sharded.now

        assert deliveries(0.3) == ([("pkt", 0.15)], 0.3)
        assert deliveries(0.12, 0.3) == deliveries(0.3)
        # not yet delivered when the first call returns, and not lost
        assert deliveries(0.12) == ([], 0.12)

    def test_a_kernel_ends_its_round_at_the_event_that_stages(self):
        # the stop is at the one staging point, so a hand-built stage
        # obeys it: shard 0's later event waits for the next round even
        # though it lies inside shard 0's bound
        sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)
        got, ran = [], []
        sharded.kernels[1].on_inject = got.append

        def stage():
            sharded.kernels[0].stage(Handoff(dest=1, time=0.15, payload="x"))

        sharded.kernels[0].schedule_keyed(0.01, host_origin(0), 0, stage)
        sharded.kernels[0].schedule_keyed(0.02, host_origin(0), 1, ran.append, 0.02)
        sharded._resume(0.3)
        sharded._advance_window(0.3)
        assert (sharded.kernels[0].now, ran, got) == (0.01, [], [])
        sharded._advance_window(0.3)
        assert (ran, got) == ([0.02], ["x"])

    def test_one_kernel_runs_one_round_per_run(self):
        sharded = ShardedSimulator(seed=1, shards=1)
        fired = []
        for t in (0.1, 0.2, 0.3):
            sharded.kernels[0].schedule_keyed(t, host_origin(0), 0, fired.append, t)
        assert sharded._grants.bounds(0.5) == [0.5]
        sharded._resume(0.5)
        assert sharded._advance_window(0.5) == 0.5
        assert fired == [0.1, 0.2, 0.3]

    def test_missing_injection_handler_raises(self):
        sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)

        def stage():
            sharded.kernels[0].stage(Handoff(dest=1, time=0.15, payload="x"))

        sharded.kernels[0].schedule_keyed(0.01, host_origin(0), 0, stage)
        with pytest.raises(SimulationError, match="no injection handler"):
            sharded.run(0.3)

    def test_single_shard_with_staged_handoff_raises(self):
        sharded = ShardedSimulator(seed=1, shards=1)

        def stage():
            sharded.kernels[0].stage(Handoff(dest=0, time=0.5, payload="x"))

        sharded.kernels[0].schedule_keyed(0.01, host_origin(0), 0, stage)
        with pytest.raises(SimulationError, match="shards=1"):
            sharded.run(0.2)

    def test_multi_shard_requires_positive_lookahead(self):
        with pytest.raises(SimulationError, match="positive lookahead"):
            ShardedSimulator(seed=1, shards=2, lookahead=None)
        with pytest.raises(SimulationError, match="positive lookahead"):
            ShardedSimulator(seed=1, shards=2, lookahead=0.0)


class TestControlScripts:
    def test_control_each_replicates_to_every_kernel(self):
        sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)
        hits = []
        sharded.control_each(0.05, lambda k: (hits.append, (k.rank,)))
        sharded.run(0.1)
        assert sorted(hits) == [0, 1]

    def test_control_at_targets_one_kernel(self):
        sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)
        hits = []
        sharded.control_at(0.05, 1, hits.append, "only-rank-1")
        sharded.run(0.1)
        assert hits == ["only-rank-1"]

    def test_control_events_not_counted_as_kernel_events(self):
        sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)
        sharded.control_each(0.05, lambda k: ((lambda: None), ()))
        sharded.kernels[0].schedule_keyed(0.05, host_origin(0), 0, lambda: None)
        sharded.run(0.1)
        merged, _ = sharded.merged_observability()
        # the replicated control action ran twice but counts zero times;
        # only the host-origin event is a simulation event
        assert merged["sim.kernel.events"]["series"][0]["value"] == 1.0


class TestMerge:
    def test_counters_sum_exactly(self):
        a = ShardKernel(seed=1, rank=0, shards=2)
        b = ShardKernel(seed=1, rank=1, shards=2)
        a.obs.metrics.counter("x.count").labels().inc(0.1)
        b.obs.metrics.counter("x.count").labels().inc(0.2)
        merged = merge_metric_snapshots(
            [a.obs.metrics.snapshot(), b.obs.metrics.snapshot()]
        )
        series = merged["x.count"]["series"][0]
        assert series["value"] == pytest.approx(0.3)
        assert "_partials" not in series  # internal state stripped from output

    def test_gauges_must_agree(self):
        a = ShardKernel(seed=1, rank=0, shards=2)
        b = ShardKernel(seed=1, rank=1, shards=2)
        a.obs.metrics.gauge("x.shape").labels().set(5.0)
        b.obs.metrics.gauge("x.shape").labels().set(6.0)
        with pytest.raises(ValueError, match="gauge"):
            merge_metric_snapshots([a.obs.metrics.snapshot(), b.obs.metrics.snapshot()])

    def test_event_counts_sum_by_topic(self):
        merged = merge_event_counts([{"a": 2, "b": 1}, {"a": 3, "c": 4}])
        assert merged == {"a": 5, "b": 1, "c": 4}

    def test_span_snapshots_merge_sorted_by_span_id(self):
        snap_a = {
            "spans": [{"span_id": 5, "trace_id": 1, "name": "x"}],
            "open": [],
            "n_spans": 1,
            "n_dropped": 0,
            "traces": [1],
        }
        snap_b = {
            "spans": [{"span_id": 2, "trace_id": 1, "name": "y"}],
            "open": [],
            "n_spans": 1,
            "n_dropped": 0,
            "traces": [1],
        }
        merged = merge_span_snapshots([snap_a, snap_b])
        assert [s["span_id"] for s in merged["spans"]] == [2, 5]
