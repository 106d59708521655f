"""Control-plane driver: stepping semantics and the determinism bridge.

The bridge is the load-bearing contract: driving a scripted scenario to
its horizon through any sequence of pause/step/run calls must produce a
ClusterReport byte-identical to the batch ``python -m repro metrics
<scenario>`` run (same seed).
"""

import pytest

from repro.__main__ import main
from repro.control import CONTROL_SCENARIOS, ScenarioDriver, build_scenario


def _batch_json(capsys, scenario: str, *extra: str) -> str:
    assert main(["metrics", scenario, "--json", *extra]) == 0
    return capsys.readouterr().out


# -- determinism bridge ------------------------------------------------------


def test_stepped_membership_matches_batch_metrics_byte_identically(capsys):
    batch = _batch_json(capsys, "membership")
    driver = ScenarioDriver(build_scenario("membership", seed=7))
    # A deliberately ragged schedule: duration steps, an event-count
    # step, an absolute target, then completion.
    driver.step_for(1.3)
    assert driver.step_events(500) == 500
    driver.run_to(11.7)
    while not driver.done:
        driver.step_for(3.1)
    assert driver.now == driver.horizon
    assert driver.report().to_json() + "\n" == batch


def test_stepped_sharded_churn_matches_batch_metrics_byte_identically(capsys):
    batch = _batch_json(capsys, "churn-small")
    driver = ScenarioDriver(build_scenario("churn-small", seed=7, shards=2))
    driver.step_for(0.13)
    assert driver.step_events(2000) >= 2000
    driver.run_to(0.55)
    driver.run_to_completion()
    assert driver.done
    assert driver.report().to_json() + "\n" == batch


# -- stepping semantics ------------------------------------------------------


def test_run_to_clamps_to_horizon_and_is_idempotent():
    driver = ScenarioDriver(build_scenario("membership"))
    assert driver.run_to(1e9) == driver.horizon
    assert driver.done
    assert driver.run_to(0.5) == driver.horizon  # past targets are no-ops


def test_step_for_rejects_negative_duration():
    driver = ScenarioDriver(build_scenario("membership"))
    with pytest.raises(ValueError):
        driver.step_for(-1.0)
    with pytest.raises(ValueError):
        driver.step_events(-5)


def test_step_events_is_exact_on_a_single_kernel():
    driver = ScenarioDriver(build_scenario("membership"))
    before = driver.total_events()
    assert driver.step_events(123) == 123
    assert driver.total_events() - before == 123
    assert driver.now < driver.horizon


def test_step_events_is_exact_on_a_one_shard_sharded_simulator(capsys):
    """shards=1 of a *sharded* scenario goes through the window protocol
    (one kernel, unbounded lookahead) yet keeps event granularity, and
    stopping mid-window composes with the run to the horizon."""
    batch = _batch_json(capsys, "churn-small", "--shards", "1")
    driver = ScenarioDriver(build_scenario("churn-small", seed=7, shards=1))
    assert driver.sharded
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
    driver = ScenarioDriver(build_scenario("membership"))
    driver.run_to(2.5)
    topo = driver.topology()
    assert topo["scenario"] == "membership"
    assert len(topo["nodes"]) == 5
    assert len(topo["switches"]) == 2
    assert topo["links"] and all(l["up"] for l in topo["links"])
    assert topo["events_total"] == driver.total_events() > 0
    # by 2.5 s the ring has converged and someone holds the token
    held = [n["name"] for n in topo["nodes"] if n["token"]]
    assert held == topo["token_holders"] == driver.token_holders()
    assert any(n["bytes"] > 0 for n in topo["nodes"])


def test_scripted_crash_shows_up_as_down_node():
    driver = ScenarioDriver(build_scenario("membership"))
    driver.run_to(5.0)  # crash is scripted at 3.0, recovery at 10.0
    down = [n["name"] for n in driver.topology()["nodes"] if not n["up"]]
    assert down == ["node2"]
    driver.run_to(12.0)
    assert all(n["up"] for n in driver.topology()["nodes"])


def test_event_ring_streams_with_cursor_resume():
    driver = ScenarioDriver(build_scenario("membership"), ring_capacity=64)
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
    untraced = ScenarioDriver(build_scenario("membership"))
    assert untraced.trace_doc() is None

    traced = ScenarioDriver(build_scenario("membership"), trace=True)
    traced.run_to(1.0)
    doc = traced.trace_doc()
    from repro.obs import validate_chrome_trace

    assert validate_chrome_trace(doc) == []
    assert doc["traceEvents"]


# -- fault injection ---------------------------------------------------------


def test_inject_fault_flips_elements_and_rejects_unknowns():
    driver = ScenarioDriver(build_scenario("membership"))
    driver.run_to(1.0)
    out = driver.inject_fault("fail", "node", "node1")
    assert out["up"] is False and out["time"] == driver.now
    assert not driver.cluster.hosts[1].up
    driver.inject_fault("repair", "node", "node1")
    assert driver.cluster.hosts[1].up

    driver.inject_fault("fail", "link", "L0")
    assert not driver.cluster.network.links[0].up
    driver.inject_fault("fail", "switch", "sw0")
    assert not driver.cluster.switches[0].up

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
    driver = ScenarioDriver(build_scenario("churn-small", shards=2))
    driver.step_for(0.05)
    driver.inject_fault("fail", "node", "node7")
    for rep in driver.cluster.replicas:
        assert not rep.net.hosts["node7"].up


# -- registry ----------------------------------------------------------------


def test_scenario_registry_is_validated():
    assert set(CONTROL_SCENARIOS) == {"membership", "churn-small"}
    from repro.scenarios import CHURN_SMALL

    # the spec horizon is a literal; keep it pinned to the real shape
    assert CONTROL_SCENARIOS["churn-small"].horizon == CHURN_SMALL["horizon"]
    with pytest.raises(KeyError):
        build_scenario("warp-drive")
    with pytest.raises(ValueError):
        build_scenario("membership", shards=2)
