"""Control-plane driver: stepping semantics and the determinism bridge.

The bridge is the load-bearing contract: driving a scripted scenario to
its horizon through any sequence of pause/step/run calls must produce a
ClusterReport byte-identical to the batch ``python -m repro metrics
<scenario>`` run (same seed) — for every entry of the one scenario
table, at one shard and at several.
"""

import pytest

from repro.__main__ import main
from repro.control import ScenarioDriver
from repro.scenarios import SCENARIOS

MEMBERSHIP = SCENARIOS["membership"]


def _batch_json(capsys, scenario: str, *extra: str) -> str:
    assert main(["metrics", scenario, "--json", *extra]) == 0
    return capsys.readouterr().out


# -- determinism bridge ------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stepped_run_matches_batch_metrics_byte_identically(capsys, name, shards):
    batch = _batch_json(capsys, name, "--shards", str(shards))
    driver = ScenarioDriver(SCENARIOS[name], seed=7, shards=shards)
    h = driver.horizon
    # A deliberately ragged schedule: a duration step, an event-count
    # step, an absolute target, then uneven steps to completion.
    driver.step_for(0.17 * h)
    assert driver.step_events(300) >= 300
    driver.run_to(0.61 * h)
    while not driver.done:
        driver.step_for(0.13 * h)
    assert driver.now == h
    assert driver.report().to_json() + "\n" == batch


# -- stepping semantics ------------------------------------------------------


def test_run_to_clamps_to_horizon_and_is_idempotent():
    driver = ScenarioDriver(MEMBERSHIP)
    assert driver.run_to(1e9) == driver.horizon
    assert driver.done
    assert driver.run_to(0.5) == driver.horizon  # past targets are no-ops


def test_step_for_rejects_negative_duration():
    driver = ScenarioDriver(MEMBERSHIP)
    with pytest.raises(ValueError):
        driver.step_for(-1.0)
    with pytest.raises(ValueError):
        driver.step_events(-5)


def test_step_events_is_exact_on_one_shard(capsys):
    """shards=1 goes through the window protocol (one kernel, unbounded
    lookahead) yet keeps event granularity, and stopping mid-window
    composes with the run to the horizon."""
    batch = _batch_json(capsys, "churn-small", "--shards", "1")
    driver = ScenarioDriver(SCENARIOS["churn-small"], seed=7, shards=1)
    before = driver.total_events()
    assert driver.step_events(123) == 123
    assert driver.total_events() - before == 123
    assert driver.now < driver.horizon
    driver.run_to_completion()
    assert driver.report().to_json() + "\n" == batch


def test_simulator_run_events_composes_with_bounded_run():
    """Kernel-level check: run_events + run(until) equals one run(until)."""
    from repro import ClusterConfig, RainCluster, Simulator

    ref = Simulator(seed=11)
    RainCluster(ref, ClusterConfig(nodes=4))
    ref.run(until=2.0)

    sim = Simulator(seed=11)
    RainCluster(sim, ClusterConfig(nodes=4))
    while sim.run_events(97, until=2.0) == 97:
        pass
    sim.run(until=2.0)
    assert sim.now == ref.now == 2.0
    assert sim.n_events == ref.n_events
    assert sim.obs.metrics.snapshot() == ref.obs.metrics.snapshot()


# -- telemetry ---------------------------------------------------------------


def test_topology_snapshot_shape_and_token_marker():
    driver = ScenarioDriver(MEMBERSHIP)
    driver.run_to(0.9)
    topo = driver.topology()
    assert topo["scenario"] == "membership"
    assert len(topo["nodes"]) == 6
    assert len(topo["switches"]) == 6
    assert topo["links"] and all(l["up"] for l in topo["links"])
    assert topo["events_total"] == driver.total_events() > 0
    # by 0.9 s the ring has converged and someone holds the token
    held = [n["name"] for n in topo["nodes"] if n["token"]]
    assert held == topo["token_holders"] == driver.token_holders()
    assert any(n["bytes"] > 0 for n in topo["nodes"])


def test_scripted_crash_shows_up_as_down_node():
    driver = ScenarioDriver(MEMBERSHIP)
    driver.run_to(1.5)  # crash is scripted at 1.0, recovery at 2.0
    down = [n["name"] for n in driver.topology()["nodes"] if not n["up"]]
    assert down == ["node4"]
    driver.run_to(2.5)
    assert all(n["up"] for n in driver.topology()["nodes"])


def test_event_ring_streams_with_cursor_resume():
    driver = ScenarioDriver(MEMBERSHIP, ring_capacity=64)
    driver.run_to(1.0)
    first = driver.events_since(-1)
    assert 0 < len(first["events"]) <= 64
    seqs = [e["seq"] for e in first["events"]]
    assert seqs == sorted(seqs)
    cursor = first["next_seq"] - 1
    assert driver.events_since(cursor)["events"] == []
    driver.step_for(0.5)
    resumed = driver.events_since(cursor)
    assert resumed["events"]
    assert all(e["seq"] > cursor for e in resumed["events"])


def test_trace_doc_gated_on_trace_flag():
    untraced = ScenarioDriver(MEMBERSHIP)
    assert untraced.cluster.chrome_trace() is None

    traced = ScenarioDriver(MEMBERSHIP, trace=True)
    traced.run_to(1.0)
    doc = traced.cluster.chrome_trace()
    from repro.obs import validate_chrome_trace

    assert validate_chrome_trace(doc) == []
    assert doc["traceEvents"]


# -- fault injection ---------------------------------------------------------


def test_inject_fault_flips_elements_and_rejects_unknowns():
    driver = ScenarioDriver(MEMBERSHIP)
    driver.run_to(1.0)
    out = driver.inject_fault("fail", "node", "node1")
    assert out["up"] is False and out["time"] == driver.now
    rep = driver.cluster.replicas[0]
    assert not rep.hosts[1].up
    driver.inject_fault("repair", "node", "node1")
    assert rep.hosts[1].up

    driver.inject_fault("fail", "link", "L0")
    assert not rep.net.links[0].up
    driver.inject_fault("fail", "switch", "sw0")
    assert not rep.switches[0].up

    for action, kind, target in (
        ("explode", "node", "node1"),
        ("fail", "router", "node1"),
        ("fail", "node", "node99"),
        ("fail", "link", "L999"),
        ("fail", "link", "node1"),
    ):
        with pytest.raises(KeyError):
            driver.inject_fault(action, kind, target)


def test_inject_fault_replicates_across_shards():
    driver = ScenarioDriver(SCENARIOS["churn-small"], shards=2)
    driver.step_for(0.05)
    driver.inject_fault("fail", "node", "node7")
    for rep in driver.cluster.replicas:
        assert not rep.net.hosts["node7"].up
