"""Golden layout-invariance tests for the sharded simulator.

The acceptance bar for the sharded refactor: for a fixed seed, the
merged :class:`repro.obs.ClusterReport` JSON and the merged span
snapshot must be **byte-identical** for every shard count — shards=1
(the serial keyed-kernel reference) and shards=4 are compared against
each other and against committed fixtures, so both a layout divergence
and a behaviour drift fail loudly.

The CI shard matrix exports ``REPRO_SHARDS``; any extra layout it names
is tested against the same fixtures (the fixtures are layout-free by
construction).

Regenerating fixtures (only for an *intentional* behaviour change)::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_shard_golden.py
"""

from __future__ import annotations

import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hb import install_sanitizer
from repro.cluster import ShardedRainCluster
from repro.scenarios import SCENARIOS
from repro.topology import constant_degree_diameter, diameter_ring, enumerate_elements

from .test_golden_trace import _canon, check_golden


def _layouts() -> list:
    layouts = {1, 4}
    layouts.add(int(os.environ.get("REPRO_SHARDS", "1")))
    return sorted(layouts)


def _env_shards() -> int:
    """Layout for the fixture-comparison tests.

    The CI shard matrix exports ``REPRO_SHARDS`` (1 and 4): each leg
    checks its layout against the *same* committed fixture, so the
    matrix proves the fixture bytes are layout-free, not just that two
    in-process runs agree.  Default is 4 — the stricter check locally.
    """
    return int(os.environ.get("REPRO_SHARDS", "4"))


# -- scenario 1: membership churn with tracing -------------------------------


def membership_scenario(shards: int) -> dict:
    """The table's ``membership`` entry (six nodes on a diameter ring:
    converge, crash node 4, 911 rejoin), traced."""
    scenario = SCENARIOS["membership"]
    cluster = scenario.build(7, shards)
    cluster.install_tracer()
    cluster.run(scenario.horizon)
    assert cluster.live_members_converged()
    return {
        "report": cluster.metrics(scenario="shard-membership", seed=7).to_dict(),
        "spans": cluster.span_snapshot(),
    }


def test_membership_layouts_byte_identical():
    payloads = {s: _canon(membership_scenario(s)) for s in _layouts()}
    reference = payloads[1]
    for shards, text in payloads.items():
        assert text == reference, f"shards={shards} diverged from shards=1"


def test_membership_matches_golden_fixture():
    check_golden("shard_membership", membership_scenario(_env_shards()))


# -- scenario 2: rainfs store/retrieve under a crash -------------------------


def rainfs_scenario(shards: int) -> dict:
    """The table's ``rainfs`` entry: erasure-coded store, a storage-node
    crash, then a degraded read (the script itself stops the run if the
    bytes read back differ from the bytes stored)."""
    cluster = SCENARIOS["rainfs"].run(7, shards)
    report = cluster.metrics(scenario="shard-rainfs", seed=7).to_dict()
    (reads,) = report["metrics"]["storage.retrieve.latency"]["series"]
    assert reads["count"] == 1, "degraded read did not complete"
    return {"report": report}


def test_rainfs_layouts_byte_identical():
    payloads = {s: _canon(rainfs_scenario(s)) for s in _layouts()}
    reference = payloads[1]
    for shards, text in payloads.items():
        assert text == reference, f"shards={shards} diverged from shards=1"


def test_rainfs_matches_golden_fixture():
    check_golden("shard_rainfs", rainfs_scenario(_env_shards()))


def test_rainfs_packets_per_kind_are_pinned(monkeypatch):
    """Exact transmits per kind in the ``rainfs`` entry (seed 7, one
    kernel).  Acks ride on data, so a pure ack goes only where no data
    segment carried it (104 at one pure ack per delivery); a send to
    this host is delivered locally, so no packet goes from a node to
    itself (6 before); hellos and data segments are what they were."""
    from repro.channel import Segment
    from repro.channel.monitor import HelloMsg
    from repro.net import Network

    kinds = {"hello": 0, "data": 0, "ack": 0, "self": 0}
    transmit = Network.transmit

    def tap(net, pkt):
        msg = pkt.payload
        if pkt.src.node == pkt.dst.node:
            kinds["self"] += 1
        elif isinstance(msg, HelloMsg):
            kinds["hello"] += 1
        elif isinstance(msg, Segment):
            kinds["data" if msg.is_data else "ack"] += 1
        transmit(net, pkt)

    monkeypatch.setattr(Network, "transmit", tap)
    cluster = SCENARIOS["rainfs"].run(7, 1)
    assert kinds == {"hello": 1580, "data": 116, "ack": 52, "self": 0}
    report = cluster.metrics(scenario="shard-rainfs", seed=7).to_dict()
    delivered = report["metrics"]["rudp.transport.messages_delivered"]["series"]
    assert sum(s["value"] for s in delivered) == 108


# -- scenario 3: the 1k-node flagship ----------------------------------------

#: sha256 of the canonical shard1k report JSON (seed 7).  Committed so
#: CI catches behaviour drift without a megabyte fixture; regenerate by
#: running this test with GOLDEN_REGEN=1 and copying the printed hash.
SHARD1K_SHA256 = "2491698395b1204acb5df60e41dc7162a019ca0789a7976b069033d51f18fda1"


def shard1k_report(shards: int) -> str:
    cluster = SCENARIOS["shard1k"].run(7, shards)
    return cluster.metrics(scenario="shard1k", seed=7).to_json() + "\n"


def test_shard1k_demo_byte_identical_and_pinned():
    serial = shard1k_report(1)
    parallel = shard1k_report(4)
    assert parallel == serial, "shards=4 diverged from shards=1 on the 1k demo"
    digest = hashlib.sha256(serial.encode()).hexdigest()
    if os.environ.get("GOLDEN_REGEN"):
        pytest.skip(f"shard1k sha256 = {digest}")
    assert digest == SHARD1K_SHA256, (
        f"shard1k report drifted (sha256 {digest}); regenerate the pin "
        "only for an intentional behaviour change"
    )


def _shard1k_fabric_faults(shards: int) -> tuple:
    """``shard1k`` plus a switch outage and a switch-switch link outage
    inside its horizon, sanitized."""
    scenario = SCENARIOS["shard1k"]
    cluster = scenario.build(7, shards)
    switch, link = ("switch", 5), ("link", ("ss", 0, 1, 0))
    cluster.fail_at(0.3, switch)
    cluster.fail_at(0.4, link)
    cluster.repair_at(0.9, switch)
    cluster.repair_at(1.1, link)
    monitor = install_sanitizer(cluster.sharded)
    cluster.run(scenario.horizon)
    for rep in cluster.replicas:
        sw, lk = cluster.element(rep, switch).name, cluster.element(rep, link).name
        flips = [(e.time, e.action, e.name) for e in rep.faults.log if e.kind != "host"]
        assert flips == [
            (0.3, "fail", sw), (0.4, "fail", lk), (0.9, "repair", sw), (1.1, "repair", lk)
        ]
    monitor.check_gauges([k.obs.metrics.snapshot() for k in cluster.sharded.kernels])
    return cluster.metrics(scenario="shard1k-fabric", seed=7).to_json(), monitor.report()


def test_shard1k_switch_and_link_faults_are_layout_invariant():
    """Fabric faults replicate like host crashes: the flagship with a
    switch and a switch-switch link failed and repaired reports the same
    bytes at 1, 2 and 4 shards, and the sanitizer is clean at 4."""
    serial, _ = _shard1k_fabric_faults(1)
    assert _shard1k_fabric_faults(2)[0] == serial
    sharded, sanitized = _shard1k_fabric_faults(4)
    assert sanitized.ok, sanitized.render()
    assert sharded == serial


# -- scenario 4: the multiprocessing executor --------------------------------


def _assert_mp_matches_serial(name: str) -> None:
    scenario = SCENARIOS[name]
    a = scenario.run(7, shards=4).metrics(scenario="mp", seed=7).to_json()
    b = scenario.run(7, shards=4, workers=2).metrics(scenario="mp", seed=7).to_json()
    assert a == b, f"{name}: workers=2 diverged from workers=1"


def test_mp_executor_matches_serial():
    """workers=2 (spawn) produces the same merged report as workers=1 on
    every table entry (the flagship is its own slow case below).  The
    workers' pipes pickle every handoff, so this is the oracle for the
    in-process executor, which passes them by reference."""
    for name in sorted(SCENARIOS):
        if name != "shard1k":
            _assert_mp_matches_serial(name)


@pytest.mark.slow
def test_mp_executor_matches_serial_on_the_flagship():
    _assert_mp_matches_serial("shard1k")


def test_mp_executor_runs_a_workload_scripted_table_entry():
    """``--workers`` holds for every scripted entry, not just churn: the
    workers rebuild ``rainfs`` (store, crash, degraded read) by name."""
    rainfs = SCENARIOS["rainfs"]
    a = rainfs.run(7, shards=4).metrics(scenario="mp", seed=7).to_json()
    b = rainfs.run(7, shards=4, workers=2).metrics(scenario="mp", seed=7).to_json()
    assert a == b


# -- scenario 5: drawn topologies, layouts and fault scripts -----------------

_CONSTRUCTIONS = {
    "diameter_ring": lambda switches, nodes: diameter_ring(switches, nodes),
    "constant_degree_diameter": lambda switches, nodes: constant_degree_diameter(
        switches, switch_degree=4, node_degree=2, num_nodes=nodes
    ),
}
_ODD = st.integers(2, 5).map(lambda k: 2 * k + 1)


@st.composite
def _drawn_runs(draw):
    construction = draw(st.sampled_from(sorted(_CONSTRUCTIONS)))
    switches = draw(_ODD)
    nodes = draw(_ODD)
    shards = draw(st.integers(2, 4))
    elements = enumerate_elements(_CONSTRUCTIONS[construction](switches, nodes))
    faults = draw(
        st.lists(
            st.tuples(
                st.integers(1, 3000).map(lambda ms: ms / 1000),
                st.sampled_from(elements),
                st.booleans(),
            ),
            max_size=4,
        )
    )
    return construction, switches, nodes, shards, faults


def _drawn_report(construction, switches, nodes, shards, faults) -> tuple:
    topo = _CONSTRUCTIONS[construction](switches, nodes)
    cluster = ShardedRainCluster(topo, seed=11, shards=shards)
    for time, tag, fail in faults:
        (cluster.fail_at if fail else cluster.repair_at)(time, tag)
    monitor = install_sanitizer(cluster.sharded)
    cluster.run(4.0)
    monitor.check_gauges([k.obs.metrics.snapshot() for k in cluster.sharded.kernels])
    return cluster.metrics(scenario="drawn", seed=11).to_json(), monitor.report()


@settings(max_examples=12, deadline=None)
@given(_drawn_runs())
def test_drawn_topologies_and_fault_scripts_are_layout_invariant(run):
    """Odd-sized constructions, 2-4 shards and fail/repair scripts over
    nodes, switches and links: the sharded report is byte-equal to ``shards=1`` and the
    happens-before sanitizer is clean on the sharded run."""
    construction, switches, nodes, shards, faults = run
    serial, _ = _drawn_report(construction, switches, nodes, 1, faults)
    sharded, sanitized = _drawn_report(construction, switches, nodes, shards, faults)
    assert sanitized.ok, sanitized.render()
    assert sharded == serial
