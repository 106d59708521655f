"""Theorem 2.1 at k = 1, end to end: one fault costs no live node.

The static analysis says a single switch, link or NIC fault on a
Sec. 2.1 construction loses no node.  Here every single switch fault,
and drawn link and NIC faults, are replayed on the running stack
(:class:`~repro.cluster.ShardedRainCluster`, per-path monitors on) on
``diameter_ring(6)``, ``diameter_ring(10)`` and the Fig. 1 testbed.
After the fault:

- every live node is in the ring of the latest token's holder;
- every live pair completes one RUDP exchange (a probe each way, sent
  once the monitors have had time to mark the dead paths Down).

Both hold only because RUDP bundles every NIC of a node (the path rule
in :meth:`~repro.rudp.RudpTransport.connect`): on one NIC, a node whose
NIC 0 hangs off the failed switch is cut off while its second NIC is
still cabled to a live one.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import ShardedRainCluster
from repro.topology import diameter_ring, enumerate_elements, fig1_testbed

FAULT_AT, PROBE_AT, HORIZON = 1.0, 3.0, 6.0

TOPOLOGIES = {
    "diameter_ring(6)": lambda: diameter_ring(6),
    "diameter_ring(10)": lambda: diameter_ring(10),
    "fig1_testbed": fig1_testbed,
}


def _faults(name: str) -> list[tuple]:
    """Every switch, plus two links and two NICs drawn per topology."""
    topo = TOPOLOGIES[name]()
    rng = random.Random(name)
    nics = [("nic", (i, k)) for i, deg in sorted(topo.degrees()[0].items()) for k in range(deg)]
    return (
        enumerate_elements(topo, ("switch",))
        + rng.sample(enumerate_elements(topo, ("link",)), 2)
        + rng.sample(nics, 2)
    )


CASES = [(name, tag) for name in TOPOLOGIES for tag in _faults(name)]


def _probe(rep, i: int, names: list[str]):
    tp = rep.transports[i]
    for peer in names:
        if peer != names[i]:
            tp.send(peer, "probe", None)
    yield from ()


def _replay(topo, tag: tuple, shards: int = 1):
    """Fail ``tag`` at ``FAULT_AT``, probe every pair at ``PROBE_AT``;
    returns (live nodes missing from the ring, pairs not delivered)."""
    cluster = ShardedRainCluster(
        topo, seed=7, shards=shards, with_election=False, with_storage=False
    )
    names = cluster.names
    delivered = set()
    for i, name in enumerate(names):
        cluster.replica_of(i).transports[i].register(
            "probe", lambda src, _data, dst=name: delivered.add((src, dst))
        )
    cluster.fail_at(FAULT_AT, tag)
    for i in range(len(names)):
        cluster.run_on(PROBE_AT, i, lambda rep, i=i: _probe(rep, i, names))
    cluster.run(HORIZON)
    members = [cluster.member(i) for i in range(len(names))]
    holder = max(members, key=lambda m: m.local_seq)
    pairs = {(a, b) for a in names for b in names if a != b}
    return set(names) - set(holder.view), pairs - delivered


@pytest.mark.parametrize("name,tag", CASES, ids=[f"{n}-{t[0]}{t[1]}" for n, t in CASES])
def test_one_fault_keeps_every_live_node(name, tag):
    outside_ring, silent_pairs = _replay(TOPOLOGIES[name](), tag)
    assert not outside_ring, f"{tag} left {sorted(outside_ring)} out of the ring"
    assert not silent_pairs, f"{tag}: no RUDP exchange for {sorted(silent_pairs)}"


@pytest.mark.parametrize("shards", [2, 4])
def test_one_fault_keeps_every_live_node_on_every_layout(shards):
    # the ROADMAP's case: on NIC 0 alone, node 3 ends in a ring of one
    outside_ring, silent_pairs = _replay(diameter_ring(6), ("switch", 3), shards)
    assert not outside_ring and not silent_pairs
