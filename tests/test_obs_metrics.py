"""Tests for the observability layer: metrics, bus, and reports.

Instrument semantics are checked against a hand-rolled clock; the
integration tests drive a real cluster and assert the snapshots are
non-trivial and byte-identical across same-seed runs.
"""

import json
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, RainCluster, Simulator
from repro.obs import (
    EventBus,
    LabelCardinalityError,
    MetricsRegistry,
)
from repro.obs.metrics import DeferredHistogram, exact_add


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def registry():
    return MetricsRegistry()


# -- counter ---------------------------------------------------------------


def test_counter_accumulates(registry):
    c = registry.counter("net.packets.sent").labels()
    c.inc()
    c.inc(4)
    assert c.value == 5.0
    assert registry.value("net.packets.sent") == 5.0


def test_counter_rejects_decrement(registry):
    c = registry.counter("net.packets.sent").labels()
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_label_series_are_independent(registry):
    fam = registry.counter("net.packets.dropped")
    fam.labels(reason="loss").inc(3)
    fam.labels(reason="down").inc(1)
    assert registry.value("net.packets.dropped", reason="loss") == 3.0
    assert registry.value("net.packets.dropped", reason="down") == 1.0
    # same label set, any argument order -> same series
    fam2 = registry.counter("net.link.io")
    fam2.labels(a="1", b="2").inc()
    fam2.labels(b="2", a="1").inc()
    assert registry.value("net.link.io", a="1", b="2") == 2.0


# -- gauge -----------------------------------------------------------------


def test_gauge_set_and_add(registry):
    g = registry.gauge("sim.queue.depth").labels()
    g.set(10)
    g.add(-3)
    assert g.value == 7.0


# -- histogram -------------------------------------------------------------


def test_histogram_stats(registry):
    h = registry.histogram("membership.token.rtt", buckets=(0.1, 1.0)).labels()
    for v in (0.05, 0.5, 2.0):
        h.observe(v)
    assert h.count == 3
    assert h.sum == pytest.approx(2.55)
    assert h.min == 0.05 and h.max == 2.0
    assert h.mean() == pytest.approx(0.85)
    snap = h._snapshot()
    assert snap["buckets"] == {"0.1": 1, "1.0": 1, "+inf": 1}


def test_histogram_empty_mean_is_zero(registry):
    h = registry.histogram("x.y.z").labels()
    assert h.mean() == 0.0


# The deferred accumulator is the one place that mirrors Histogram.observe:
# flushed, it must be indistinguishable from observing every sample directly,
# with a running float (plain registry) and with Shewchuk partials (exact).
_SAMPLES = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
    | st.sampled_from((0.0, 1e-6, 2.5e-6, 0.1, 1e16, 1.0)),  # bucket edges, cancellation
    max_size=40,
)


@pytest.mark.parametrize("exact", [False, True], ids=["plain", "exact"])
@given(samples=_SAMPLES, split=st.integers(0, 40))
def test_deferred_histogram_flushes_to_what_direct_observation_gives(exact, samples, split):
    registry = MetricsRegistry(exact_sums=exact)
    direct = registry.histogram("x.direct").labels()
    series = registry.histogram("x.deferred").labels()
    deferred = DeferredHistogram(series)
    for v in samples[:split]:
        direct.observe(v)
        deferred.observe(v)
    deferred.flush()  # a mid-run read; accumulation carries on after it
    for v in samples[split:]:
        direct.observe(v)
        deferred.observe(v)
    deferred.flush()
    deferred.flush()  # idempotent
    assert series._snapshot() == direct._snapshot()


@pytest.mark.parametrize("exact", [False, True], ids=["plain", "exact"])
@given(samples=_SAMPLES.filter(len))
def test_deferred_histogram_window_matches_sample_by_sample(exact, samples):
    registry = MetricsRegistry(exact_sums=exact)
    direct = registry.histogram("x.direct").labels()
    series = registry.histogram("x.window").labels()
    for v in samples:
        direct.observe(v)
    window = DeferredHistogram(series)
    window.observe_many(np.array(samples))
    window.flush()
    got, want = series._snapshot(), direct._snapshot()
    if not exact:  # numpy sums a window pairwise, not left to right
        assert got.pop("sum") == pytest.approx(want.pop("sum"))
    assert got == want


class _BinEveryWindow:
    """The accumulator as it was before windows were buffered: each
    ``observe_many`` bins its window and folds its min/max on arrival.
    The buffered one must flush to the same snapshot bit for bit."""

    def __init__(self, series):
        self.series = series
        self.bounds = series.bounds
        self.counts = [0] * (len(self.bounds) + 1)
        self.n = 0
        self.sum = 0.0
        self.partials = [] if hasattr(series, "partials") else None
        self.min = self.max = None

    def observe(self, value):
        self.counts[bisect_left(self.bounds, value)] += 1
        self.n += 1
        if self.partials is None:
            self.sum += value
        else:
            exact_add(self.partials, value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values):
        binned = np.bincount(np.searchsorted(self.bounds, values), minlength=len(self.counts))
        for i in binned.nonzero()[0]:
            self.counts[i] += int(binned[i])
        self.n += len(values)
        if self.partials is None:
            self.sum += float(values.sum())
        else:
            for v in values.tolist():
                exact_add(self.partials, v)
        lo, hi = float(values.min()), float(values.max())
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    def flush(self):
        if not self.n:
            return
        h = self.series
        h.bucket_counts = list(self.counts)
        h.count, h.min, h.max = self.n, self.min, self.max
        if self.partials is None:
            h.sum = self.sum
        else:
            h.partials = list(self.partials)
            h.sum = math.fsum(self.partials)


class _TinyBuffer(DeferredHistogram):
    __slots__ = ()
    BUFFER = 7  # nearly every window overflows it, many exceed it alone


# Queue-wait-like samples: exact zeros, closed-form rounding residue just
# below zero, bucket edges and exponential waits.  NaN and -0.0 are left
# out: a window's min/max is numpy's reduce, which does not order them.
_SPECIAL = (0.0, -1.1102230246251565e-16, 1e-6, 2.5e-6, 1e-3, 0.1, 1.0, 1e16)
_OP = (
    st.tuples(st.just("one"), st.sampled_from(_SPECIAL) | st.floats(-1.0, 1e6))
    | st.tuples(
        st.just("many"),
        st.sampled_from((1, 2, 256, 4096, 16383, 16384, 16385, 20000)) | st.integers(1, 600),
        st.integers(0, 2**32 - 1),
    )
    | st.tuples(st.just("flush"))
)
_OPS = st.lists(_OP, max_size=8)


def _window(size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.exponential(rng.choice([1e-6, 1e-3, 1.0]), size)
    special = rng.random(size) < 0.3
    values[special] = rng.choice(_SPECIAL, int(special.sum()))
    return values


@pytest.mark.parametrize("kind", [DeferredHistogram, _TinyBuffer], ids=["buffer", "tiny"])
@pytest.mark.parametrize("exact", [False, True], ids=["plain", "exact"])
@settings(max_examples=40, deadline=None)
@given(ops=_OPS)
def test_buffered_windows_flush_to_the_bin_every_window_snapshot(kind, exact, ops):
    registry = MetricsRegistry(exact_sums=exact)
    want_series = registry.histogram("x.want").labels()
    got_series = registry.histogram("x.got").labels()
    want, got = _BinEveryWindow(want_series), kind(got_series)
    for op in ops + [("flush",)]:
        if op[0] == "one":
            want.observe(op[1])
            got.observe(op[1])
        elif op[0] == "many":
            values = _window(op[1], op[2])
            want.observe_many(values)
            got.observe_many(values.copy())
        else:  # a mid-run read: accumulation carries on after it
            want.flush()
            got.flush()
            assert got_series._snapshot() == want_series._snapshot()


@pytest.mark.parametrize("kind", [DeferredHistogram, _TinyBuffer], ids=["buffer", "tiny"])
@pytest.mark.parametrize("exact", [False, True], ids=["plain", "exact"])
@settings(max_examples=25, deadline=None)
@given(ops=st.lists(st.just(("zero",)) | _OP, max_size=12))
def test_tallied_zeros_flush_to_the_observe_each_snapshot(kind, exact, ops):
    # The parent of the zero tally observed every zero-wait hop as
    # observe(0.0); _BinEveryWindow is bit-exact with that accumulator
    # (test above).  observe(0.0) on ``got`` still takes the binned path.
    registry = MetricsRegistry(exact_sums=exact)
    want_series = registry.histogram("x.want").labels()
    got_series = registry.histogram("x.got").labels()
    want, got = _BinEveryWindow(want_series), kind(got_series)
    for op in ops + [("flush",)]:
        if op[0] == "zero":
            want.observe(0.0)
            got.observe_zero()
        elif op[0] == "one":
            want.observe(op[1])
            got.observe(op[1])
        elif op[0] == "many":
            values = _window(op[1], op[2])
            want.observe_many(values)
            got.observe_many(values.copy())
        else:  # a mid-run read: accumulation carries on after it
            want.flush()
            got.flush()
            assert got_series._snapshot() == want_series._snapshot()


# -- registry semantics ----------------------------------------------------


def test_kind_mismatch_is_an_error(registry):
    registry.counter("a.b.c")
    with pytest.raises(TypeError):
        registry.gauge("a.b.c")


def test_label_cardinality_capped(registry):
    fam = registry.counter("a.b.c", max_series=8)
    for i in range(8):
        fam.labels(i=i).inc()
    with pytest.raises(LabelCardinalityError, match=r"label set \{i=8\}.* cap of 8 series"):
        fam.labels(i=8)


def test_series_cap_fires_on_the_1025th_observed_series(registry):
    # A series is created by its first labels() call — owners make it on
    # the first observation — so the cap counts observed label sets.
    fam = registry.counter("rudp.transport.retransmissions")
    for i in range(1024):
        fam.labels(node=f"node{i}").inc()
    with pytest.raises(LabelCardinalityError, match=r"\{node=node1024\}.*1024 series"):
        fam.labels(node="node1024")
    assert len(fam.series) == 1024
    fam.labels(node="node0").inc()  # existing series keep working
    assert registry.value("rudp.transport.retransmissions", node="node0") == 2.0


def test_cluster_past_the_series_cap_names_the_node_label():
    # Per-node series are bound on first observation, so a 1,025-node
    # cluster builds; the cap fires on the 1,025th node to be observed
    # and names that node's label set.
    from repro.scenarios import build_churn_cluster

    cluster = build_churn_cluster(nodes=1025, switches=64)
    transports = cluster.replicas[0].transports
    assert len(transports) == 1025
    for i in range(1024):
        transports[i]._count_retransmission()
    with pytest.raises(LabelCardinalityError, match=r"\{node=node1024\}.*1024 series"):
        transports[1024]._count_retransmission()


def test_fresh_1k_cluster_holds_no_per_node_series():
    # Nothing has been observed yet: only the kernel's and the shape's
    # series exist, not eight per node.
    from repro.scenarios import build_churn_cluster

    cluster = build_churn_cluster(7)
    registries = [rep.kernel.obs.metrics for rep in cluster.replicas]
    held = sum(len(reg.get(name).series) for reg in registries for name in reg.names())
    assert held <= 16


def test_subsystems_and_names(registry):
    registry.counter("net.x.y").labels().inc()
    registry.gauge("sim.x.y").labels().set(1)
    registry.counter("unused.x.y")  # no series -> not a subsystem
    assert registry.subsystems() == {"net", "sim"}
    assert registry.names() == ["net.x.y", "sim.x.y", "unused.x.y"]


def test_snapshot_skips_empty_families(registry):
    registry.counter("a.b.c")
    assert registry.snapshot() == {}
    registry.counter("a.b.c").labels().inc()
    assert list(registry.snapshot()) == ["a.b.c"]


# -- event bus -------------------------------------------------------------


def test_bus_counts_without_subscribers(clock):
    bus = EventBus(clock)
    assert bus.publish("m.n.o", x=1) is None  # nobody listening
    assert bus.count("m.n.o") == 1
    assert bus.subsystems() == ("m",)


def test_bus_prefix_and_exact_subscription(clock):
    bus = EventBus(clock)
    seen_all = bus.record("*")
    seen_m = bus.record("m.*")
    seen_exact = bus.record("m.n.o")
    clock.t = 3.0
    bus.publish("m.n.o", x=1)
    bus.publish("q.r.s")
    assert [e.topic for e in seen_all] == ["m.n.o", "q.r.s"]
    assert [e.topic for e in seen_m] == ["m.n.o"]
    assert seen_exact[0].time == 3.0 and seen_exact[0].data == {"x": 1}


def test_bus_unsubscribe(clock):
    bus = EventBus(clock)
    seen = []
    bus.subscribe("m.*", seen.append)
    bus.publish("m.a")
    bus.unsubscribe("m.*", seen.append)
    bus.publish("m.b")
    assert [e.topic for e in seen] == ["m.a"]


def test_bus_unsubscribe_multi_star_pattern(clock):
    """Regression: subscribe keyed prefixes as ``pattern[:-1]`` while
    unsubscribe stripped *all* trailing stars — so a ``"m.**"`` pattern
    could never be removed and ``has_subscribers`` stayed stuck on."""
    bus = EventBus(clock)
    seen = []
    bus.subscribe("m.**", seen.append)
    assert bus.has_subscribers
    bus.publish("m.*x")  # the prefix is the literal "m.*"
    bus.unsubscribe("m.**", seen.append)
    assert not bus.has_subscribers
    bus.publish("m.*y")
    assert [e.topic for e in seen] == ["m.*x"]


def test_bus_unsubscribe_wildcard_and_exact(clock):
    bus = EventBus(clock)
    seen = []
    bus.subscribe("*", seen.append)
    bus.subscribe("m.n.o", seen.append)
    bus.unsubscribe("*", seen.append)
    bus.unsubscribe("m.n.o", seen.append)
    assert not bus.has_subscribers
    bus.publish("m.n.o")
    assert seen == []


def test_bus_unsubscribe_unknown_is_a_noop(clock):
    bus = EventBus(clock)
    bus.subscribe("m.*", lambda e: None)
    bus.unsubscribe("m.*", lambda e: None)  # different fn object: no removal
    assert bus.has_subscribers


def test_bus_subsystems_sorted_tuple(clock):
    bus = EventBus(clock)
    for topic in ("zeta.a", "alpha.b", "mid.c", "alpha.d"):
        bus.publish(topic)
    assert bus.subsystems() == ("alpha", "mid", "zeta")


# -- cluster integration ---------------------------------------------------


def run_cluster(seed=7, until=12.0):
    sim = Simulator(seed=seed)
    cl = RainCluster(sim, ClusterConfig(nodes=4))
    sim.run(until=until)
    return sim, cl


def test_membership_run_fills_token_rtt_histogram():
    sim, cl = run_cluster()
    fam = sim.obs.metrics.get("membership.token.rtt")
    assert fam is not None and fam.series
    total = sum(s.count for s in fam.series.values())
    assert total > 0, "no token round-trips observed"
    for series in fam.series.values():
        assert series.min is None or series.min > 0


def test_cluster_report_covers_core_subsystems():
    sim, cl = run_cluster()
    report = cl.metrics("integration")
    assert {"membership", "net", "rudp", "sim"} <= set(report.subsystems())
    assert report.series_count() > 0
    parsed = json.loads(report.to_json())
    assert parsed["scenario"] == "integration"


def test_same_seed_snapshots_are_byte_identical():
    sim_a, cl_a = run_cluster(seed=7)
    sim_b, cl_b = run_cluster(seed=7)
    json_a = cl_a.metrics("det").to_json()
    json_b = cl_b.metrics("det").to_json()
    assert json_a == json_b


def test_report_render_mentions_series():
    sim, cl = run_cluster()
    text = cl.metrics("render-test", note="hello").render()
    assert "membership.token.rtt" in text
    assert "note = hello" in text
