"""Canned sharded-cluster scenarios shared by the CLI, bench, and tests.

The flagship demo is ``shard1k``: a 1,000-node cluster on a 64-switch
constant-degree/low-diameter interconnect
(:func:`repro.topology.constant_degree_diameter`) running token-ring
membership under churn — three mid-ring crashes and one recovery inside
a 1.5 s horizon.  Token hold time is tightened to 2 ms (the default
100 ms would circulate a 1,000-node ring in ~100 s) and the starvation
timeout pushed past the horizon so the dead nodes are detected by the
token's failure path rather than by a thousand simultaneous 911s.

Everything here must stay layout-invariant: the same seed must produce
byte-identical reports for any ``shards`` value — that is enforced by
``tests/test_shard_golden.py``.
"""

from __future__ import annotations

from .cluster import ClusterConfig, ShardedRainCluster
from .membership import MembershipConfig
from .topology import constant_degree_diameter

__all__ = [
    "build_churn_cluster",
    "run_churn",
    "CHURN_1K",
    "CHURN_SMALL",
]

#: the full 1k-node demo shape
CHURN_1K = {"nodes": 1000, "switches": 64, "horizon": 1.5}
#: a scaled-down shape for quick benches and tests
CHURN_SMALL = {"nodes": 200, "switches": 16, "horizon": 0.8}


def build_churn_cluster(
    seed: int = 7,
    shards: int = 1,
    nodes: int = 1000,
    switches: int = 64,
) -> ShardedRainCluster:
    """Construct the churn demo cluster with its fault script installed."""
    topo = constant_degree_diameter(
        switches, switch_degree=6, node_degree=2, num_nodes=nodes
    )
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
    a = int(nodes * 0.45)
    cluster.crash_at(0.2, a)
    cluster.crash_at(0.2, a + 1)
    cluster.crash_at(0.35, a + 2)
    cluster.recover_at(0.8, a)
    return cluster


def run_churn(
    seed: int = 7,
    shards: int = 1,
    workers: int = 1,
    nodes: int = 1000,
    switches: int = 64,
    horizon: float = 1.5,
):
    """Run the churn scenario; returns an object with ``.metrics()``.

    ``workers=1`` (the default and the determinism reference) steps the
    window protocol in-process and returns the live
    :class:`ShardedRainCluster`.  ``workers > 1`` runs the same grant
    loop with the shard kernels in a persistent worker-process pool
    (:mod:`repro.sim.shard_mp`) — one pipe round-trip and one columnar
    handoff blob per boundary per window — and returns a report facade
    over the merged snapshots.  Either path yields byte-identical
    reports for the same seed.
    """
    if workers > 1:
        from .sim.shard_mp import run_cluster_mp

        return run_cluster_mp(
            "repro.scenarios:build_churn_cluster",
            {"seed": seed, "nodes": nodes, "switches": switches},
            shards=shards,
            until=horizon,
            workers=workers,
        )
    cluster = build_churn_cluster(seed, shards, nodes=nodes, switches=switches)
    cluster.run(horizon)
    return cluster
