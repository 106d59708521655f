"""The scenario table: every report-producing run resolves :data:`SCENARIOS`.

``python -m repro metrics | sanitize | serve | trace``, the ``shard`` /
``shard_mp`` bench workloads and the golden / happens-before / control
tests all look a scenario up here, so "which scenarios exist and how a
built one is advanced" is answered in one place.

Every entry is a topology construction, a script and a horizon.  The
script builds a :class:`~repro.cluster.ShardedRainCluster` on the
topology and installs the whole fault/workload script *before the first
step*, so the event schedule is a pure function of ``(seed)`` and the
report is byte-identical for every ``shards`` / ``workers`` value and
for every pause/step schedule the control plane drives it through.

The flagship is ``shard1k``: a 1,000-node cluster on a 64-switch
constant-degree/low-diameter interconnect
(:func:`repro.topology.constant_degree_diameter`) running token-ring
membership under churn — three mid-ring crashes and one recovery inside
a 1.5 s horizon.  Token hold time is tightened to 2 ms (the default
100 ms would circulate a 1,000-node ring in ~100 s) and the starvation
timeout pushed past the horizon so the dead nodes are detected by the
token's failure path rather than by a thousand simultaneous 911s.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable

from .cluster import ClusterConfig, ShardedRainCluster
from .codes import BCode
from .membership import MembershipConfig
from .topology import (
    TopologyGraph,
    constant_degree_diameter,
    diameter_ring,
    fig1_testbed,
    partition_topology,
)

__all__ = [
    "Scenario",
    "SCENARIOS",
    "build",
    "layout_count",
    "build_churn_cluster",
    "CHURN_1K",
    "CHURN_SMALL",
]

#: the full 1k-node demo shape
CHURN_1K = {"nodes": 1000, "switches": 64, "horizon": 1.5}
#: a scaled-down shape for quick benches and tests
CHURN_SMALL = {"nodes": 200, "switches": 16, "horizon": 0.8}


def _churn_topology(nodes: int, switches: int) -> TopologyGraph:
    return constant_degree_diameter(
        switches, switch_degree=6, node_degree=2, num_nodes=nodes
    )


def _script_churn(topo: TopologyGraph, seed: int, shards: int) -> ShardedRainCluster:
    cfg = ClusterConfig(
        monitor=None,  # per-path monitors would add nodes^2 ping load
        membership=MembershipConfig(
            token_interval=0.002,
            ack_timeout=0.02,
            starvation_timeout=30.0,
        ),
    )
    cluster = ShardedRainCluster(
        topo,
        seed=seed,
        shards=shards,
        config=cfg,
        with_election=False,
        with_storage=False,
    )
    # Churn mid-ring, where the token (launched by node 0) arrives with
    # the crashes already in effect: a contiguous pair plus a straggler,
    # with one node coming back before the horizon.
    a = int(topo.num_nodes * 0.45)
    cluster.fail_at(0.2, ("node", a))
    cluster.fail_at(0.2, ("node", a + 1))
    cluster.fail_at(0.35, ("node", a + 2))
    cluster.repair_at(0.8, ("node", a))
    return cluster


def build_churn_cluster(
    seed: int = 7,
    shards: int = 1,
    nodes: int = 1000,
    switches: int = 64,
) -> ShardedRainCluster:
    """Construct the churn demo cluster with its fault script installed."""
    return _script_churn(_churn_topology(nodes, switches), seed, shards)


def _script_membership(topo: TopologyGraph, seed: int, shards: int) -> ShardedRainCluster:
    """Converge, crash node 4, 911 rejoin."""
    cluster = ShardedRainCluster(topo, seed=seed, shards=shards)
    cluster.fail_at(1.0, ("node", 4))
    cluster.repair_at(2.0, ("node", 4))
    return cluster


def _store_crash_read(
    n: int, key: str, payload: bytes, times: tuple[float, float, float], victim: int
) -> Callable[[TopologyGraph, int, int], ShardedRainCluster]:
    """A script: node 0 stores ``payload`` over BCode(``n``), node
    ``victim`` crashes, node 0 reads it back degraded — at ``times`` =
    (store, crash, read)."""
    store_at, crash_at, read_at = times

    def script(topo: TopologyGraph, seed: int, shards: int) -> ShardedRainCluster:
        cluster = ShardedRainCluster(topo, seed=seed, shards=shards)
        store = cluster.store_on(0, BCode(n))

        def retrieve(rep):
            data = yield from store.retrieve(key)
            if data != payload:
                # nobody waits on a scripted process, so this stops the run
                raise RuntimeError(f"{key}: degraded read returned wrong bytes")

        cluster.run_on(store_at, 0, lambda rep: store.store(key, payload), name="store")
        cluster.fail_at(crash_at, ("node", victim))
        cluster.run_on(read_at, 0, retrieve, name="retrieve")
        return cluster

    return script


@dataclass(frozen=True)
class Scenario:
    """One row of the table; see the module docstring."""

    name: str
    #: one line for ``--help`` listings (lowercase, <= 79 chars)
    help: str
    #: ``topology()`` -> the graph the cluster is cabled from
    topology: Callable[[], TopologyGraph]
    #: ``script(topology, seed, shards)`` -> a scripted cluster
    script: Callable[[TopologyGraph, int, int], ShardedRainCluster]
    #: simulated seconds the scenario runs for
    horizon: float

    def build(self, seed: int = 7, shards: int = 1) -> ShardedRainCluster:
        """The cluster with its whole script installed, not yet run."""
        return self.script(self.topology(), seed, shards)

    def run(self, seed: int = 7, shards: int = 1, workers: int = 1):
        """Build and run to the horizon; returns an object with
        ``.metrics()``.

        ``workers=1`` (the determinism reference) steps the round
        protocol in-process and returns the live cluster.  ``workers >
        1`` runs the same grant loop with the shard kernels in a
        persistent worker-process pool (:mod:`repro.sim.shard_mp`) and
        returns a report facade over the merged snapshots.  Either path
        yields byte-identical reports for the same seed.
        """
        if workers > 1:
            from .sim.shard_mp import run_cluster_mp

            # a shard count the topology cannot take is a LayoutError
            # here, before any worker starts
            partition_topology(self.topology(), shards)
            return run_cluster_mp(
                "repro.scenarios:build",
                {"name": self.name, "seed": seed},
                shards=shards,
                until=self.horizon,
                workers=workers,
            )
        cluster = self.build(seed, shards)
        cluster.run(self.horizon)
        return cluster


def _churn(name: str, help: str, shape: dict) -> Scenario:
    return Scenario(
        name,
        help,
        lambda: _churn_topology(shape["nodes"], shape["switches"]),
        _script_churn,
        shape["horizon"],
    )


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "testbed",
            "fig. 1 testbed: 10 nodes, 4 switches, store / crash / retrieve",
            fig1_testbed,
            # membership converges and monitors mark paths Up before the
            # store; detection and exclusion settle before the read
            _store_crash_read(
                10, "fig1", b"computing in the RAIN " * 64, (3.0, 4.0, 9.0), victim=7
            ),
            12.0,
        ),
        Scenario(
            "membership",
            "six-node diameter ring: converge, crash node 4, 911 rejoin",
            lambda: diameter_ring(6),
            _script_membership,
            6.0,
        ),
        Scenario(
            "rainfs",
            "six-node erasure-coded store, a storage-node crash, a degraded read",
            lambda: diameter_ring(6),
            _store_crash_read(
                6, "golden", b"shard golden payload " * 32, (0.5, 1.5, 2.0), victim=3
            ),
            5.0,
        ),
        _churn(
            "churn-small",
            "scaled-down churn: 200 nodes on 16 switches, 3 crashes, 1 recovery",
            CHURN_SMALL,
        ),
        _churn(
            "shard1k",
            "the flagship: 1,000 nodes on 64 switches under membership churn",
            CHURN_1K,
        ),
    )
}


def layout_count(text: str) -> int:
    """argparse ``type`` of every ``--shards`` / ``--workers`` flag: an
    integer >= 1.  A string default (``$REPRO_SHARDS``) goes through it
    too, lazily — only when the subcommand that owns the flag runs."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build(name: str, seed: int = 7, shards: int = 1):
    """Build scenario ``name`` (the importable spec MP workers resolve);
    an unknown name is a ``KeyError``."""
    return SCENARIOS[name].build(seed, shards)
