"""Self-time arithmetic of the layer collector on synthetic call trees.

The clock is a tick list: ``spend(range(n))`` is a C call that advances it
by ``n`` without opening a Python frame, so every expected figure below is
an exact integer.
"""

import pytest

from e2ebench.collector import INHERIT, LayerCollector

from repro.obs.tracing import validate_chrome_trace

LAYERS = ("A", "B", "other")


def make_collector(layer_by_name, watched=(), max_spans=100):
    ticks: list = []
    index = {name: i for i, name in enumerate(LAYERS)}

    def classify(code) -> int:
        layer = layer_by_name.get(code.co_name, "other")
        return INHERIT if layer == "inherit" else index[layer]

    collector = LayerCollector(
        LAYERS, classify, watched=watched, max_spans=max_spans, clock=lambda: float(len(ticks))
    )
    return collector, ticks.extend


def run_traced(collector, fn):
    collector.start()
    collector.take(record_spans=True)
    try:
        fn()
    finally:
        out = collector.stop()
    return out


def test_nested_calls_c_time_and_inherited_frames():
    layers = {"mid_a": "A", "leaf_b": "B", "helper": "inherit"}

    def leaf_b():
        spend(range(7))

    def helper():  # e.g. a numpy Python wrapper: charged to whoever called it
        spend(range(3))

    def mid_a():
        spend(range(2))  # builtin time stays with the calling frame's layer
        leaf_b()
        helper()
        spend(range(1))

    def root():
        spend(range(1))
        mid_a()
        spend(range(4))
        mid_a()

    collector, spend = make_collector(layers, watched=[leaf_b.__code__, helper.__code__])
    out = run_traced(collector, root)

    assert out["self_s"] == {"A": 12.0, "B": 14.0, "other": 5.0}
    assert out["calls"] == {"A": 2, "B": 2, "other": 0}
    assert out["watched"] == [2, 2]  # counted whether or not the call crosses a layer
    assert sum(out["self_s"].values()) == 31.0  # every tick belongs to exactly one layer

    names = [collector.span_name(s) for s in collector.spans]
    assert [n.split(".")[-1] for n in names] == ["mid_a", "leaf_b", "mid_a", "leaf_b"]
    assert names[0].startswith("A:") and names[1].startswith("B:")
    assert [s[4] for s in collector.spans] == [-1, 0, -1, 2]  # parent = enclosing span
    durations = [s[3] - s[2] for s in collector.spans]
    assert durations == [13.0, 7.0, 13.0, 7.0]
    # self time = span time minus the child spans inside it
    assert sum(durations[0::2]) - sum(durations[1::2]) == out["self_s"]["A"]


def test_exception_unwinding_keeps_the_stack_balanced():
    def thrower_b():
        spend(range(2))
        raise ValueError("boom")

    def catcher_a():
        try:
            thrower_b()
        except ValueError:
            spend(range(1))

    def root():
        catcher_a()
        spend(range(5))

    collector, spend = make_collector({"catcher_a": "A", "thrower_b": "B"})
    out = run_traced(collector, root)
    assert out["self_s"] == {"A": 1.0, "B": 2.0, "other": 5.0}


def test_generator_resumes_are_crossings():
    def gen_b():
        spend(range(1))
        yield 1
        spend(range(2))
        yield 2

    def driver_a():
        for _ in gen_b():
            spend(range(5))

    collector, spend = make_collector({"driver_a": "A", "gen_b": "B"})
    out = run_traced(collector, driver_a)
    assert out["self_s"] == {"A": 10.0, "B": 3.0, "other": 0.0}
    assert out["calls"]["B"] == 3  # two yields and the resume that ends the generator


def test_span_cap_bounds_memory_not_the_aggregates():
    def leaf_b():
        spend(range(1))

    def root():
        for _ in range(4):
            leaf_b()

    collector, spend = make_collector({"leaf_b": "B"}, max_spans=1)
    out = run_traced(collector, root)
    assert out["calls"]["B"] == 4 and out["self_s"]["B"] == 4.0
    assert len(collector.spans) == 1 and collector.spans_dropped == 3


def test_take_splits_phases():
    def leaf_b():
        spend(range(3))

    collector, spend = make_collector({"leaf_b": "B"})
    collector.start()
    leaf_b()
    first = collector.take(record_spans=True)
    leaf_b()
    leaf_b()
    second = collector.stop()
    assert first["self_s"]["B"] == 3.0 and first["calls"]["B"] == 1
    assert second["self_s"]["B"] == 6.0 and second["calls"]["B"] == 2
    assert len(collector.spans) == 2  # spans only from the recorded phase


def test_chrome_trace_is_well_formed(tmp_path):
    def leaf_b():
        spend(range(2))

    def mid_a():
        leaf_b()

    collector, spend = make_collector({"mid_a": "A", "leaf_b": "B"})
    run_traced(collector, mid_a)
    doc = collector.chrome_trace()
    assert validate_chrome_trace(doc) == []
    events = doc["traceEvents"]
    assert [e["cat"] for e in events] == ["A", "B"]
    assert events[1]["args"]["parent"] == 0 and events[0]["args"]["parent"] is None
    assert events[1]["dur"] == pytest.approx(2e6)
    path = tmp_path / "t.trace.json"
    collector.write_chrome_trace(str(path))
    assert path.read_text().endswith("\n")
