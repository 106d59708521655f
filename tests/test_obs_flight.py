"""Tests for the flight recorder: bounded ring, crash reports (also on
a membership invariant violation), and the pytest failure-report wiring."""

import itertools
import json
from pathlib import Path

from repro import ClusterConfig, RainCluster, Simulator
from repro.membership.invariants import check_invariants
from repro.net import packet as packet_mod

pytest_plugins = ["pytester"]


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_ring_is_bounded_but_counts_everything():
    sim = Simulator(seed=1)
    rec = sim.obs.install_flight_recorder(capacity=8)
    for i in range(20):
        sim.obs.bus.publish("a.b.c", i=i)
    assert rec.n_seen == 20
    window = rec.events()
    assert len(window) == 8
    assert [e.data["i"] for e in window] == list(range(12, 20))


def test_close_restores_no_subscriber_fast_path():
    sim = Simulator(seed=1)
    rec = sim.obs.install_flight_recorder()
    assert sim.obs.bus.has_subscribers
    rec.close()
    assert not sim.obs.bus.has_subscribers
    sim.obs.bus.publish("a.b.c")
    assert rec.n_seen == 0


def test_dump_includes_open_spans_and_sorted_detail():
    sim = Simulator(seed=1)
    tracer = sim.obs.install_tracer()
    rec = sim.obs.install_flight_recorder(capacity=4)
    span = tracer.start("fs.write", node="node0", path="/x")
    sim.obs.bus.publish("m.n.o", x=1)
    report = rec.dump("exception", zebra=1, alpha=2)
    assert report["reason"] == "exception"
    assert list(report["detail"]) == ["alpha", "zebra"]
    assert report["n_events_retained"] == 1
    assert [s["span_id"] for s in report["open_spans"]] == [span.span_id]
    # closing the span empties the in-flight section of later dumps
    tracer.end(span)
    assert rec.dump("exception")["open_spans"] == []


def test_dump_without_tracer_has_empty_open_spans():
    sim = Simulator(seed=1)
    rec = sim.obs.install_flight_recorder()
    assert rec.dump("exception")["open_spans"] == []


def soak_cluster(seed=81, corrupt=False):
    """A short fault-storm soak; optionally corrupt one node's view so
    the final-agreement invariant trips mid-flight."""
    packet_mod._packet_ids = itertools.count(1)
    sim = Simulator(seed=seed)
    sim.obs.install_tracer()
    cluster = RainCluster(sim, ClusterConfig(nodes=5))
    rec = sim.obs.install_flight_recorder(capacity=256)
    sim.run(until=2.0)
    cluster.faults.outage(cluster.switches[0], start=3.0, duration=4.0)
    sim.run(until=10.0)
    if corrupt:
        # simulate a protocol bug: a live node silently forgets a peer
        cluster.member(1).view = ("node1",)
    return sim, cluster, rec


def check_membership(rec, nodes):
    """Run the Sec. 3 invariant checker; a crash dump when it trips."""
    report = check_invariants(nodes)
    return None if report.ok else rec.dump("invariant", violations=list(report.violations))


def canonical(report):
    return json.dumps(report, indent=2, sort_keys=True, default=str)


def test_check_membership_clean_run_returns_none():
    sim, cluster, rec = soak_cluster()
    assert check_membership(rec, cluster.membership) is None


def test_invariant_violation_dumps_event_window():
    sim, cluster, rec = soak_cluster(corrupt=True)
    report = check_membership(rec, cluster.membership)
    assert report is not None
    assert report["reason"] == "invariant"
    assert any("disagree" in v for v in report["detail"]["violations"])
    topics = {e["topic"] for e in report["events"]}
    # the window shows the token circulation leading up to the failure
    assert "membership.node.token" in topics
    assert report["n_events_seen"] >= report["n_events_retained"] > 0


def test_violation_dumps_are_byte_identical_across_runs():
    _, cl_a, rec_a = soak_cluster(corrupt=True)
    _, cl_b, rec_b = soak_cluster(corrupt=True)
    report_a = check_membership(rec_a, cl_a.membership)
    report_b = check_membership(rec_b, cl_b.membership)
    assert canonical(report_a) == canonical(report_b)
    assert canonical(rec_a.dump("invariant")) == canonical(rec_b.dump("invariant"))


def test_failing_test_report_carries_flight_dump(pytester):
    """The conftest hookwrapper attaches the dump to failing tests."""
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile(
        """
        from repro import Simulator

        def test_boom(flight_recorder):
            sim = Simulator(seed=5)
            flight_recorder.attach(sim, capacity=4, label="boom-sim")
            sim.obs.bus.publish("x.y.z", n=1)
            assert False, "intentional"

        def test_fine(flight_recorder):
            sim = Simulator(seed=5)
            flight_recorder.attach(sim)
            assert True
        """
    )
    result = pytester.runpytest_inprocess("-q")
    result.assert_outcomes(failed=1, passed=1)
    reports = [
        r
        for r in result.reprec.getreports("pytest_runtest_logreport")
        if r.when == "call" and r.failed
    ]
    assert len(reports) == 1
    sections = dict(reports[0].sections)
    assert "flight recorder (boom-sim)" in sections
    dump = json.loads(sections["flight recorder (boom-sim)"])
    assert dump["reason"] == "test-failure"
    assert dump["detail"]["test"].endswith("test_boom")
    assert [e["topic"] for e in dump["events"]] == ["x.y.z"]


def test_passing_test_report_has_no_dump(pytester):
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile(
        """
        from repro import Simulator

        def test_fine(flight_recorder):
            sim = Simulator(seed=5)
            flight_recorder.attach(sim)
        """
    )
    result = pytester.runpytest_inprocess("-q")
    result.assert_outcomes(passed=1)
    reports = result.reprec.getreports("pytest_runtest_logreport")
    assert all(not r.sections for r in reports)
