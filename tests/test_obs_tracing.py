"""Tests for causal span tracing: tracer semantics, cross-layer
propagation, exporters, and timeline reconstruction.

The acceptance scenario mirrors the ISSUE: a fixed-seed token
circulation with a crash must produce a trace tree in which every
membership transition caused by a remote message has the causing
RUDP/packet span as an ancestor, and the canonical snapshot must be
byte-identical across two same-seed runs.
"""

import json

import pytest

from repro import ClusterConfig, RainCluster, Simulator
from repro.obs import (
    SpanContext,
    SpanTracer,
    channel_timelines,
    render_channel_timelines,
    render_token_timeline,
    timelines_to_dict,
    token_path,
    token_timeline,
    validate_chrome_trace,
)
from repro.obs.timeline import TimelineRecorder


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def tracer(clock):
    return SpanTracer(clock)


def has_ancestor(tracer, span, name):
    """Whether any ancestor of ``span`` is called ``name``."""
    return any(a.name == name for a in tracer.ancestors(span))


def children(tracer, span):
    """Direct children of ``span``, in start order."""
    return [s for s in tracer.spans if s.parent_id == span.span_id]


def chrome_json(tracer):
    """The Chrome trace export, serialized canonically."""
    return json.dumps(tracer.to_chrome_trace(), indent=2, sort_keys=True, default=str)


# -- tracer unit semantics ---------------------------------------------------


def test_root_span_starts_its_own_trace(tracer, clock):
    span = tracer.start("a.root", node="n0")
    assert span.trace_id == span.span_id == 1
    assert span.parent_id is None and span.open
    clock.t = 2.5
    tracer.end(span, bytes=10)
    assert span.end == 2.5 and span.status == "ok"
    assert span.attrs == {"bytes": 10}


def test_explicit_parent_and_ambient_inheritance(tracer):
    root = tracer.start("a.root")
    child = tracer.start("a.child", parent=root.ctx)
    assert child.trace_id == root.trace_id and child.parent_id == root.span_id
    with tracer.activate(child.ctx):
        grandchild = tracer.start("a.grandchild")
    assert grandchild.parent_id == child.span_id
    # outside the activation the ambient context is gone
    orphan = tracer.start("a.orphan")
    assert orphan.parent_id is None and orphan.trace_id == orphan.span_id


def test_span_objects_accepted_as_parents(tracer):
    root = tracer.start("a.root")
    child = tracer.start("a.child", parent=root)
    assert child.parent_id == root.span_id


def test_activation_nests_and_unwinds(tracer):
    assert tracer.current is None
    with tracer.activate(SpanContext(1, 1)):
        assert tracer.current == (1, 1)
        with tracer.activate(None):
            assert tracer.current is None
        assert tracer.current == (1, 1)
    assert tracer.current is None


def test_end_is_idempotent_and_end_id_tolerant(tracer, clock):
    span = tracer.start("a.b")
    clock.t = 1.0
    tracer.end(span, status="error", reason="x")
    clock.t = 9.0
    tracer.end(span)  # no-op: already closed
    assert span.end == 1.0 and span.status == "error"
    tracer.end_id(span.span_id)  # closed -> no-op
    tracer.end_id(12345)  # unknown -> no-op


def test_ancestry_queries(tracer):
    a = tracer.start("l1.op")
    b = tracer.start("l2.op", parent=a)
    c = tracer.start("l3.op", parent=b)
    assert [s.span_id for s in tracer.ancestors(c)] == [b.span_id, a.span_id]
    assert has_ancestor(tracer, c, "l1.op")
    assert not has_ancestor(tracer, c, "nope")
    assert children(tracer, a) == [b]
    assert tracer.trace(a.trace_id) == [a, b, c]
    assert tracer.trace_ids() == [a.trace_id]


def test_max_spans_cap_drops_but_counts(clock):
    tracer = SpanTracer(clock, max_spans=2)
    tracer.start("a.one")
    tracer.start("a.two")
    dropped = tracer.start("a.three")
    assert dropped.status == "dropped" and not dropped.open
    assert tracer.n_dropped == 1 and len(tracer.spans) == 2


def test_clear_resets_everything(tracer):
    span = tracer.start("a.b")
    tracer._stack.append(span.ctx)  # simulate a stale activation
    tracer.clear()
    assert tracer.spans == [] and tracer.open_spans() == []
    assert tracer.current is None and tracer.n_dropped == 0
    assert tracer.start("fresh.start").span_id == 1  # counter reset


def test_snapshot_lists_open_spans(tracer):
    a = tracer.start("a.open")
    b = tracer.start("a.closed")
    tracer.end(b)
    snap = tracer.snapshot()
    assert snap["open"] == [a.span_id]
    assert snap["n_spans"] == 2
    assert [s["name"] for s in snap["spans"]] == ["a.open", "a.closed"]


def test_install_tracer_is_idempotent():
    sim = Simulator(seed=1)
    assert sim.obs.tracer is None
    t1 = sim.obs.install_tracer()
    t2 = sim.obs.install_tracer()
    assert t1 is t2 is sim.obs.tracer


# -- chrome export -----------------------------------------------------------


def test_chrome_trace_structure_and_validation(tracer, clock):
    root = tracer.start("fs.write", node="node0")
    clock.t = 0.5
    child = tracer.start("rudp.send", parent=root, node="node0")
    clock.t = 1.0
    tracer.end(child)
    tracer.end(root)
    still_open = tracer.start("net.packet", node="node1")
    doc = tracer.to_chrome_trace()
    assert validate_chrome_trace(doc) == []
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in xs} == {"fs.write", "rudp.send", "net.packet"}
    by_name = {e["name"]: e for e in xs}
    assert by_name["fs.write"]["dur"] == pytest.approx(1e6)
    assert by_name["fs.write"]["cat"] == "fs"
    assert by_name["net.packet"]["args"]["open"] is True
    assert still_open.open
    # metadata rows name each trace and node lane
    ms = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert {e["name"] for e in ms} == {"process_name", "thread_name"}


def test_validate_chrome_trace_rejects_malformed():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) == ["missing or non-array 'traceEvents'"]
    bad = {"traceEvents": [{"ph": "Q", "name": "", "pid": "x", "tid": 0}]}
    problems = validate_chrome_trace(bad)
    assert any("bad phase" in p for p in problems)
    assert any("missing name" in p for p in problems)
    assert any("pid must be an int" in p for p in problems)


# -- cross-layer acceptance scenario ----------------------------------------


def token_scenario(seed=7):
    """Fixed-seed token circulation with a crash/recover cycle."""
    import itertools

    from repro.net import packet as packet_mod

    # Packet ids come from a process-global counter and appear as span
    # attributes; pin it so runs are independent of what ran before.
    packet_mod._packet_ids = itertools.count(1)
    sim = Simulator(seed=seed)
    sim.obs.install_tracer()
    rec = TimelineRecorder(sim.obs)
    cluster = RainCluster(sim, ClusterConfig(nodes=5))
    sim.run(until=3.0)
    cluster.crash(2)
    sim.run(until=10.0)
    cluster.recover(2)
    sim.run(until=20.0)
    rec.close()
    return sim, cluster, rec


def test_remote_adoptions_have_transport_ancestry():
    """Every membership adoption caused by a remote token message sits
    under the rudp.send (and net.packet) spans that carried it."""
    sim, cluster, rec = token_scenario()
    tracer = sim.obs.tracer
    adoptions = tracer.by_name("membership.adopt")
    assert len(adoptions) > 50
    remote = [s for s in adoptions if s.attrs.get("src") != s.node]
    assert remote, "no remote adoptions traced"
    for span in remote:
        assert has_ancestor(tracer, span, "rudp.send"), span
    # the carrying packets hang off the same rudp.send spans as children
    sends = [
        a for s in remote for a in tracer.ancestors(s) if a.name == "rudp.send"
    ]
    assert sends
    for send in sends[:20]:
        child_names = {c.name for c in children(tracer, send)}
        assert "net.packet" in child_names, send
    # membership transitions inherit the adoption's causal chain
    for span in tracer.by_name("membership.token"):
        parent = tracer.get(span.parent_id) if span.parent_id else None
        assert parent is not None and parent.name == "membership.adopt"


def test_token_lineages_map_to_traces():
    """Genesis adoption roots one trace; a 911 regeneration roots
    another — traces are token lineages.  Crashing the node that holds
    the token guarantees the token is lost and must be regenerated."""
    sim = Simulator(seed=7)
    sim.obs.install_tracer()
    cluster = RainCluster(sim, ClusterConfig(nodes=5))
    sim.run(until=3.0)
    holder = next(
        (i for i, m in enumerate(cluster.membership) if m.holding is not None), None
    )
    while holder is None:
        sim.run(until=sim.now + 0.01)
        holder = next(
            (i for i, m in enumerate(cluster.membership) if m.holding is not None),
            None,
        )
    cluster.crash(holder)
    sim.run(until=sim.now + 20.0)
    tracer = sim.obs.tracer
    regens = tracer.by_name("membership.regen")
    assert len(regens) >= 1, "token-holder crash did not trigger regeneration"
    genesis_roots = [
        s for s in tracer.by_name("membership.adopt") if s.parent_id is None
    ]
    assert genesis_roots
    # genesis lineage and regenerated lineage live in different traces
    assert len(tracer.trace_ids()) >= 2
    regen_traces = {s.trace_id for s in regens}
    genesis_traces = {s.trace_id for s in genesis_roots if s.attrs.get("src") == s.node}
    assert regen_traces, genesis_traces


def test_trace_snapshot_byte_identical_across_runs():
    sim_a, _, rec_a = token_scenario(seed=7)
    sim_b, _, rec_b = token_scenario(seed=7)
    assert sim_a.obs.tracer.to_json() == sim_b.obs.tracer.to_json()
    assert chrome_json(sim_a.obs.tracer) == chrome_json(sim_b.obs.tracer)
    json_a = json.dumps(
        timelines_to_dict(rec_a.channel_events, rec_a.membership_events),
        sort_keys=True,
        default=str,
    )
    json_b = json.dumps(
        timelines_to_dict(rec_b.channel_events, rec_b.membership_events),
        sort_keys=True,
        default=str,
    )
    assert json_a == json_b


def test_untraced_simulation_records_nothing():
    sim = Simulator(seed=7)
    cluster = RainCluster(sim, ClusterConfig(nodes=4))
    sim.run(until=5.0)
    assert sim.obs.tracer is None  # nothing installed anything behind our back


def test_fs_write_trace_tree():
    """A RAINfs write produces one tree: fs.write -> fs.rpc + storage.store
    -> rudp.send -> net.packet."""
    from repro.codes import BCode
    from repro.fs import RainFsNode

    sim = Simulator(seed=61)
    sim.obs.install_tracer()
    cluster = RainCluster(sim, ClusterConfig(nodes=6))
    fs = [
        RainFsNode(cluster.member(i), cluster.elections[i], cluster.store_on(i, BCode(6)))
        for i in range(6)
    ]
    sim.run(until=2.0)

    def script():
        yield from fs[0].write("/t.bin", b"x" * 10000)
        return (yield from fs[1].read("/t.bin"))

    out = sim.run_process(script(), until=sim.now + 60)
    assert out == b"x" * 10000
    tracer = sim.obs.tracer
    writes = tracer.by_name("fs.write")
    assert len(writes) == 1 and writes[0].status == "ok"
    write_trace = writes[0].trace_id
    in_tree = {s.name for s in tracer.trace(write_trace)}
    assert {"fs.write", "fs.rpc", "storage.store", "rudp.send", "net.packet"} <= in_tree
    stores = [s for s in tracer.by_name("storage.store") if s.trace_id == write_trace]
    assert stores and all(has_ancestor(tracer, s, "fs.write") for s in stores)
    reads = tracer.by_name("fs.read")
    assert len(reads) == 1 and reads[0].status == "ok"
    retrieves = [
        s for s in tracer.by_name("storage.retrieve")
        if s.trace_id == reads[0].trace_id
    ]
    assert retrieves and all(has_ancestor(tracer, s, "fs.read") for s in retrieves)


def test_retransmits_attach_to_original_send():
    """Segments re-sent after an RTO show up as channel.retransmit
    instants parented to the original rudp.send span."""
    sim = Simulator(seed=42)
    sim.obs.install_tracer()
    cluster = RainCluster(sim, ClusterConfig(nodes=4))
    sim.run(until=2.0)
    cluster.crash(2)
    sim.run(until=8.0)
    tracer = sim.obs.tracer
    retrans = tracer.by_name("channel.retransmit")
    assert retrans, "crash produced no traced retransmissions"
    for span in retrans:
        parent = tracer.get(span.parent_id)
        assert parent is not None and parent.name == "rudp.send"


# -- timeline reconstruction -------------------------------------------------


def test_channel_timelines_group_and_render():
    sim, cluster, rec = token_scenario()
    timelines = channel_timelines(rec.channel_events)
    assert timelines, "crash produced no channel transitions"
    assert list(timelines) == sorted(timelines)
    for path, history in timelines.items():
        assert "->" in path
        indices = [h["index"] for h in history]
        assert indices == sorted(indices)
        assert all(h["view"] in ("up", "down") for h in history)
    # Fig. 6 property: both endpoints of a path record the same view
    # sequence (within slack; after quiescence they agree exactly).
    def flip(path):
        a, b = path.split("->")
        return f"{b}->{a}"

    for path, history in timelines.items():
        peer = timelines.get(flip(path))
        if peer is not None:
            assert [h["view"] for h in history] == [h["view"] for h in peer]
    text = render_channel_timelines(timelines)
    assert "Fig. 6" in text and "#0" in text


def test_token_timeline_and_path():
    sim, cluster, rec = token_scenario()
    timeline = token_timeline(rec.membership_events)
    assert timeline
    times = [e["time"] for e in timeline]
    assert times == sorted(times)
    kinds = {e["kind"] for e in timeline}
    assert "token" in kinds and "excluded" in kinds
    hops = token_path(timeline)
    assert len(hops) > 10
    assert all(h1 != h2 for h1, h2 in zip(hops, hops[1:]))
    text = render_token_timeline(timeline)
    assert "Fig. 9" in text and "token path:" in text


def test_empty_timelines_render_placeholders():
    assert "no channel transitions" in render_channel_timelines({})
    assert "no membership events" in render_token_timeline([])


def test_timeline_recorder_close_detaches():
    sim = Simulator(seed=3)
    rec = TimelineRecorder(sim.obs)
    sim.obs.bus.publish("membership.node.token", node="n0", subject=1)
    rec.close()
    sim.obs.bus.publish("membership.node.token", node="n0", subject=2)
    assert len(rec.membership_events) == 1
    assert not sim.obs.bus.has_subscribers
