"""Unit tests for the sharded kernel: keyed ordering, origins, barriers.

The cluster-level acceptance bar (shards=N byte-identical to shards=1)
lives in ``test_shard_golden.py``; this file pins the mechanisms that
make it possible, plus the barrier edge cases the issue calls out.
"""

import pickle

import pytest

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
            sharded.kernels[0].outbox.append(
                Handoff(dest=1, time=0.05, blob=pickle.dumps("too-early"))
            )

        sharded.kernels[0].schedule_keyed(0.01, host_origin(0), 0, stage)
        with pytest.raises(SimulationError, match="conservative window violated"):
            sharded.run(0.2)

    def test_handoff_exactly_at_window_end_raises(self):
        # arrival <= window end is a violation: the receiver already ran
        # through that instant
        sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)
        sharded.kernels[1].on_inject = lambda payload: None

        def stage():
            sharded.kernels[0].outbox.append(
                Handoff(dest=1, time=0.1, blob=pickle.dumps("at-barrier"))
            )

        sharded.kernels[0].schedule_keyed(0.01, host_origin(0), 0, stage)
        with pytest.raises(SimulationError, match="conservative window violated"):
            sharded.run(0.2)

    def test_valid_handoff_is_injected_after_the_barrier(self):
        sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)
        got = []
        sharded.kernels[1].on_inject = got.append

        def stage():
            sharded.kernels[0].outbox.append(
                Handoff(dest=1, time=0.15, blob=pickle.dumps(("pkt", 42)))
            )

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
                sharded.kernels[0].outbox.append(
                    Handoff(dest=1, time=0.15, blob=pickle.dumps(("pkt", 0.15)))
                )

            sharded.kernels[0].schedule_keyed(0.01, host_origin(0), 0, stage)
            for until in untils:
                sharded.run(until)
            return got, sharded.now

        assert deliveries(0.3) == ([("pkt", 0.15)], 0.3)
        assert deliveries(0.12, 0.3) == deliveries(0.3)
        # not yet delivered when the first call returns, and not lost
        assert deliveries(0.12) == ([], 0.12)

    def test_missing_injection_handler_raises(self):
        sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.1)

        def stage():
            sharded.kernels[0].outbox.append(
                Handoff(dest=1, time=0.15, blob=pickle.dumps("x"))
            )

        sharded.kernels[0].schedule_keyed(0.01, host_origin(0), 0, stage)
        with pytest.raises(SimulationError, match="no injection handler"):
            sharded.run(0.3)

    def test_single_shard_with_staged_handoff_raises(self):
        sharded = ShardedSimulator(seed=1, shards=1)

        def stage():
            sharded.kernels[0].outbox.append(
                Handoff(dest=0, time=0.5, blob=pickle.dumps("x"))
            )

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
