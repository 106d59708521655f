"""The scenario table: every report-producing run resolves :data:`SCENARIOS`.

``python -m repro metrics | sanitize | serve``, the ``shard`` /
``shard_mp`` bench workloads and the golden / happens-before / control
tests all look a scenario up here, so "which scenarios exist and how a
built one is advanced" is answered in one place.

One rule tells the two kinds of entry apart:

- **a scenario with a ``horizon`` is scripted** on
  :class:`~repro.cluster.ShardedRainCluster`: ``build(seed, shards)``
  installs the whole fault/workload script *before the first step*, so
  the event schedule is a pure function of ``(seed)`` and the report is
  byte-identical for every ``shards`` / ``workers`` value and for every
  pause/step schedule the control plane drives it through.  Scripted
  scenarios are steerable (``serve``), shardable, sanitizable and
  runnable under the multiprocessing executor.
- **``horizon is None``** means ``build`` already ran its imperative
  single-kernel :class:`~repro.cluster.RainCluster` story (run a while,
  store, crash *now*, read back) and returns the finished cluster:
  batch-only, ``shards`` ignored.

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
from typing import Callable, Optional

from .cluster import ClusterConfig, RainCluster, ShardedRainCluster
from .codes import BCode
from .membership import MembershipConfig
from .sim import Simulator
from .topology import constant_degree_diameter, diameter_ring

__all__ = [
    "Scenario",
    "SCENARIOS",
    "build",
    "layout_count",
    "scripted",
    "build_churn_cluster",
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


def _build_membership(seed: int, shards: int) -> ShardedRainCluster:
    """Six nodes on a diameter ring: converge, crash node 4, 911 rejoin."""
    cluster = ShardedRainCluster(diameter_ring(6), seed=seed, shards=shards)
    cluster.crash_at(1.0, 4)
    cluster.recover_at(2.0, 4)
    return cluster


def _build_rainfs(seed: int, shards: int) -> ShardedRainCluster:
    """Erasure-coded store, a storage-node crash, then a degraded read."""
    cluster = ShardedRainCluster(diameter_ring(6), seed=seed, shards=shards)
    store = cluster.store_on(0, BCode(6))
    payload = b"shard golden payload " * 32

    def retrieve(rep):
        data = yield from store.retrieve("golden")
        if data != payload:
            # nobody waits on a scripted process, so this stops the run
            raise RuntimeError("rainfs: degraded read returned wrong bytes")

    cluster.run_on(0.5, 0, lambda rep: store.store("golden", payload), name="store")
    cluster.crash_at(1.5, 3)
    cluster.run_on(2.0, 0, retrieve, name="retrieve")
    return cluster


def _build_testbed(seed: int, shards: int) -> RainCluster:
    """The Fig. 1 testbed under a representative workload, so the report
    covers every emitting subsystem."""
    sim = Simulator(seed=seed)
    cluster = RainCluster.testbed(sim)
    sim.run(until=3.0)  # membership converges, monitors mark paths Up
    store = cluster.store_on(0, BCode(10))
    payload = b"computing in the RAIN " * 64
    sim.run_process(store.store("fig1", payload), until=sim.now + 10)
    cluster.crash(7)
    sim.run(until=sim.now + 5.0)  # detection, exclusion, leader stable
    out = sim.run_process(store.retrieve("fig1"), until=sim.now + 30)
    assert out == payload
    return cluster


def _build_quickstart(seed: int, shards: int) -> RainCluster:
    """The 6-node quickstart cluster with a store/retrieve round."""
    sim = Simulator(seed=seed)
    cluster = RainCluster(sim, ClusterConfig(nodes=6))
    sim.run(until=2.0)
    store = cluster.store_on(0, BCode(6))
    payload = b"no single point of failure " * 64
    sim.run_process(store.store("demo", payload), until=sim.now + 10)
    sim.run_process(store.retrieve("demo"), until=sim.now + 10)
    return cluster


@dataclass(frozen=True)
class Scenario:
    """One row of the table; see the module docstring for the rule."""

    name: str
    #: one line for ``--help`` listings (lowercase, <= 79 chars)
    help: str
    #: ``build(seed, shards)`` -> cluster with ``.metrics()``
    build: Callable
    #: simulated seconds a scripted scenario runs for; ``None`` = batch
    horizon: Optional[float] = None

    def run(self, seed: int = 7, shards: int = 1, workers: int = 1):
        """Build and run to the horizon; returns an object with
        ``.metrics()``.

        ``workers=1`` (the determinism reference) steps the window
        protocol in-process and returns the live cluster.  ``workers >
        1`` runs the same grant loop with the shard kernels in a
        persistent worker-process pool (:mod:`repro.sim.shard_mp`) and
        returns a report facade over the merged snapshots.  Either path
        yields byte-identical reports for the same seed.
        """
        if self.horizon is None:
            return self.build(seed, shards)  # its story already ran
        if workers > 1:
            from .sim.shard_mp import run_cluster_mp

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
    def build_shape(seed: int, shards: int) -> ShardedRainCluster:
        return build_churn_cluster(
            seed, shards, nodes=shape["nodes"], switches=shape["switches"]
        )

    return Scenario(name, help, build_shape, shape["horizon"])


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "testbed",
            "fig. 1 testbed: 10 nodes, 4 switches, store / crash / retrieve",
            _build_testbed,
        ),
        Scenario(
            "quickstart",
            "six-node cluster with one erasure-coded store/retrieve round",
            _build_quickstart,
        ),
        Scenario(
            "membership",
            "six-node diameter ring: converge, crash node 4, 911 rejoin",
            _build_membership,
            6.0,
        ),
        Scenario(
            "rainfs",
            "six-node erasure-coded store, a storage-node crash, a degraded read",
            _build_rainfs,
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


def scripted() -> list[str]:
    """Names of the scripted (steerable, shardable) entries, sorted."""
    return sorted(n for n, s in SCENARIOS.items() if s.horizon is not None)


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
