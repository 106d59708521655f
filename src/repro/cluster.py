"""One-call construction of a full RAIN cluster.

Wires the building blocks the way the Caltech testbed did: hosts with
bundled NICs on a redundant switch fabric, RUDP transports with
consistent-history path monitoring, token-ring membership, leader
election, and per-node erasure-coded storage.  The proof-of-concept
applications (:mod:`repro.apps`) and the examples build on this facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .channel import MonitorConfig
from .codes import ErasureCode
from .election import LeaderElection
from .membership import MembershipConfig, MembershipNode, build_membership, membership_converged
from .net import FaultInjector, Host, Network
from .rudp import RudpConfig, RudpTransport
from .sim import ShardedSimulator, Simulator, host_origin
from .storage import DistributedStore, StorageNode
from .topology import TopologyGraph, fig1_testbed, switch_planes
from .topology.deploy import wire

__all__ = ["RainCluster", "ClusterConfig", "ShardedRainCluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and protocol parameters of a cluster."""

    nodes: int = 4
    nics: int = 2  # bundled interfaces per node
    switches: int = 2  # redundant switch planes
    #: port budget per switch, raised to the topology's highest switch
    #: degree (:func:`repro.topology.deploy.wire`)
    switch_ports: int = 32
    membership: MembershipConfig = field(default_factory=MembershipConfig)
    #: per-path consistent-history monitoring feeds RUDP failover; on by
    #: default — it is the RAIN architecture (Fig. 2).  Set to None to
    #: run without monitors (e.g. single-switch microbenchmarks).  Every
    #: transport runs ``RudpConfig(monitor=monitor)``.
    monitor: Optional[MonitorConfig] = field(
        default_factory=lambda: MonitorConfig(ping_interval=0.1, timeout=0.5)
    )


class RainCluster:
    """A running RAIN cluster: network + transports + membership."""

    @classmethod
    def testbed(cls, sim: Simulator, **overrides) -> "RainCluster":
        """The paper's Caltech testbed (Fig. 1), cabled from
        :func:`repro.topology.fig1_testbed`: ten dual-NIC nodes on a
        clique of four eight-way switches."""
        cfg = ClusterConfig(
            nodes=10,
            nics=2,
            switches=4,
            switch_ports=8,
            **overrides,
        )
        return cls(sim, cfg, _topo=fig1_testbed())

    def __init__(
        self,
        sim: Simulator,
        config: Optional[ClusterConfig] = None,
        _topo: Optional[TopologyGraph] = None,
    ):
        config = config if config is not None else ClusterConfig()
        if config.nics < 1 or config.switches < 1:
            raise ValueError("cluster needs at least one NIC and one switch")
        if _topo is None:
            _topo = switch_planes(config.switches, config.nodes, config.nics)
        self.sim = sim
        self.config = config
        self.network = Network(sim)
        self.faults = FaultInjector(self.network)
        names = [f"node{i}" for i in range(config.nodes)]
        self.hosts, self.switches = wire(self.network, _topo, names, "sw", config.switch_ports)
        self.membership: list[MembershipNode] = build_membership(
            self.hosts, config.membership, RudpConfig(monitor=config.monitor)
        )
        self.transports = [m.transport for m in self.membership]
        self.elections: list[LeaderElection] = [
            LeaderElection(m) for m in self.membership
        ]
        self.storage_nodes: list[StorageNode] = [
            StorageNode(h, tp) for h, tp in zip(self.hosts, self.transports)
        ]
        shape = sim.obs.metrics.gauge(
            "cluster.config.shape", help="cluster shape parameters"
        )
        shape.labels(param="nodes").set(config.nodes)
        shape.labels(param="nics").set(config.nics)
        shape.labels(param="switches").set(config.switches)

    # -- observability -------------------------------------------------------

    def metrics(self, scenario: str = "", **extra: object):
        """Snapshot the whole cluster's observability state right now.

        Returns a :class:`repro.obs.ClusterReport` covering every
        subsystem that emitted through ``sim.obs`` — the facade behind
        ``python -m repro metrics``.
        """
        from .obs import ClusterReport

        return ClusterReport.capture(self.sim, scenario=scenario, **extra)

    # -- lookups ------------------------------------------------------------

    @property
    def names(self) -> list[str]:
        """Node names in index order."""
        return [h.name for h in self.hosts]

    def host(self, i: int) -> Host:
        """Host by index."""
        return self.hosts[i]

    def transport(self, i: int) -> RudpTransport:
        """Transport by index."""
        return self.transports[i]

    def member(self, i: int) -> MembershipNode:
        """Membership node by index."""
        return self.membership[i]

    def store_on(
        self, i: int, code: ErasureCode, nodes: Optional[Sequence[str]] = None
    ) -> DistributedStore:
        """A distributed-store client running on node ``i``."""
        return DistributedStore(
            self.hosts[i],
            self.transports[i],
            list(nodes) if nodes is not None else self.names,
            code,
        )

    # -- fault helpers -------------------------------------------------------

    def crash(self, i: int) -> None:
        """Kill node ``i`` now."""
        self.faults.fail(self.hosts[i])

    def recover(self, i: int) -> None:
        """Revive node ``i`` now."""
        self.faults.repair(self.hosts[i])

    def live_members_converged(self) -> bool:
        """All up nodes agree the membership is exactly the up nodes."""
        return membership_converged(self.membership, [h.name for h in self.hosts if h.up])


class _ShardReplica:
    """One shard's materialization of the cluster: a full topology
    replica plus protocol stacks for the hosts this shard owns."""

    __slots__ = (
        "kernel",
        "net",
        "faults",
        "hosts",
        "switches",
        "transports",
        "members",
        "elections",
        "storage_nodes",
    )

    def __init__(self, kernel, net, faults, hosts, switches):
        self.kernel = kernel
        self.net = net
        self.faults = faults
        self.hosts = hosts
        self.switches = switches
        self.transports: dict[int, RudpTransport] = {}
        self.members: dict[int, MembershipNode] = {}
        self.elections: dict[int, LeaderElection] = {}
        self.storage_nodes: dict[int, StorageNode] = {}


class ShardedRainCluster:
    """A RAIN cluster partitioned across conservative shard kernels.

    Built from a :class:`repro.topology.TopologyGraph`: switches are cut
    into contiguous arcs by :func:`repro.topology.partition_topology`,
    nodes follow their primary switch, and each shard holds a full
    topology replica with protocol stacks only on its own hosts
    (:class:`repro.net.ShardedNetwork`).  ``shards=1`` is the serial
    determinism reference; any other shard count must produce
    byte-identical reports for the same seed.

    Faults must go through :meth:`fail_at` / :meth:`repair_at` (they
    replicate into every replica so routing state stays consistent), and
    workloads through :meth:`run_on` — both are *scripts* registered
    before :meth:`run`, because the script registration order is part of
    the deterministic schedule.  Both fault calls name an element by a
    :meth:`element` tag.
    """

    def __init__(
        self,
        topo,
        seed: int = 7,
        shards: int = 1,
        config: Optional[ClusterConfig] = None,
        with_election: bool = True,
        with_storage: bool = True,
    ):
        from .net.shard import ShardedNetwork
        from .topology.partition import partition_topology

        config = config if config is not None else ClusterConfig()
        self.config = config
        self.topo = topo
        self.partition = partition_topology(topo, shards)
        self.sharded = ShardedSimulator(
            seed=seed, shards=shards, lookahead=self.partition.lookahead
        )
        self.names = [f"node{i}" for i in range(topo.num_nodes)]
        owner = self.partition.owner_map(
            node_name=lambda i: self.names[i], switch_name=lambda j: f"sw{j}"
        )
        self.owner = owner
        host_index = {self.names[i]: i for i in range(topo.num_nodes)}
        ring = tuple(self.names)  # one bootstrap ring shared by every member
        members = frozenset(ring)  # and one member set shared by every transport
        rudp_cfg = RudpConfig(monitor=config.monitor)
        self.replicas: list[_ShardReplica] = []
        self._link_index: Optional[dict] = None  # edge id -> wired link index
        for kernel in self.sharded.kernels:
            net = ShardedNetwork(kernel, owner, host_index)
            hosts, switches = wire(net, topo, self.names, "sw", config.switch_ports)
            rep = _ShardReplica(kernel, net, FaultInjector(net), hosts, switches)
            for i in range(topo.num_nodes):
                if owner[self.names[i]] != kernel.rank:
                    continue
                # Everything a host schedules — from its bootstrap
                # watchdog onwards — must be keyed to the host's own
                # origin so the schedule is identical in every layout.
                with kernel.origin(host_origin(i)):
                    tp = RudpTransport(hosts[i], rudp_cfg, members=members)
                    member = MembershipNode(hosts[i], tp, config.membership)
                    member.bootstrap(ring, first_holder=(i == 0))
                    rep.transports[i] = tp
                    rep.members[i] = member
                    if with_election:
                        rep.elections[i] = LeaderElection(member)
                    if with_storage:
                        rep.storage_nodes[i] = StorageNode(hosts[i], tp)
            # Note: the shard count is deliberately NOT reported here —
            # merged reports must be byte-identical for every layout,
            # so nothing layout-dependent may reach a metric.
            shape = kernel.obs.metrics.gauge(
                "cluster.config.shape", help="cluster shape parameters"
            )
            shape.labels(param="nodes").set(topo.num_nodes)
            shape.labels(param="switches").set(topo.num_switches)
            self.replicas.append(rep)

    # -- lookups ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sharded.now

    def rank_of(self, i: int) -> int:
        """Shard rank owning node ``i``."""
        return self.owner[self.names[i]]

    def replica_of(self, i: int) -> _ShardReplica:
        """The replica holding node ``i``'s protocol stack."""
        return self.replicas[self.rank_of(i)]

    def member(self, i: int) -> MembershipNode:
        """Membership node by index (from its owning shard)."""
        return self.replica_of(i).members[i]

    # -- scripting -----------------------------------------------------------

    def element(self, rep: _ShardReplica, tag: tuple):
        """``rep``'s live element for a :meth:`repro.topology.FaultSet.of`
        tag — ``("node", i)``, ``("switch", j)``, ``("link", edge_id)`` —
        or ``("nic", (i, k))``.  :func:`~repro.topology.deploy.wire`
        cables in :meth:`~repro.topology.TopologyGraph.edge_ids` order,
        so a link is the wired link at its edge id's position.  An
        unknown kind or element is a ``KeyError``."""
        kind, ident = tag
        if kind == "link":
            if self._link_index is None:
                self._link_index = {eid: idx for idx, eid in enumerate(self.topo.edge_ids())}
            pool, ident = rep.net.links, self._link_index.get(ident, -1)
        elif kind == "nic":
            i, ident = ident
            pool = self.element(rep, ("node", i)).nics
        elif kind in ("node", "switch"):
            pool = rep.hosts if kind == "node" else rep.switches
        else:
            raise KeyError(f"unknown element kind {kind!r} (node, switch, link, nic)")
        if not (isinstance(ident, int) and 0 <= ident < len(pool)):
            raise KeyError(f"no such element: {tag!r}")
        return pool[ident]

    def fail_at(self, time: float, tag: tuple) -> None:
        """Script element ``tag``'s failure at ``time`` (replicated to
        all shards; a bad tag raises here, before anything is scheduled)."""
        self._flip_at(time, tag, "fail")

    def repair_at(self, time: float, tag: tuple) -> None:
        """Script element ``tag``'s repair at ``time`` (replicated)."""
        self._flip_at(time, tag, "repair")

    def _flip_at(self, time: float, tag: tuple, action: str) -> None:
        calls = [(getattr(rep.faults, action), (self.element(rep, tag),)) for rep in self.replicas]
        self.sharded.control_each(time, lambda k: calls[k.rank])

    def run_on(self, time: float, i: int, make_gen, name: Optional[str] = None):
        """Script a generator-based workload on node ``i`` at ``time``.

        ``make_gen(replica)`` is called in node ``i``'s owning shard
        when the script fires and must return a generator; it runs as a
        simulation process under the host's origin.
        """
        rank = self.rank_of(i)
        rep = self.replicas[rank]
        kernel = rep.kernel

        def start() -> None:
            with kernel.origin(host_origin(i)):
                proc = kernel.process(make_gen(rep), name=name)
                proc._defused = True

        return self.sharded.control_at(time, rank, start)

    def store_on(self, i: int, code: ErasureCode) -> DistributedStore:
        """A distributed-store client on node ``i`` (in its owning shard)."""
        rep = self.replica_of(i)
        return DistributedStore(rep.hosts[i], rep.transports[i], list(self.names), code)

    # -- execution & observability ----------------------------------------

    def run(self, until: float) -> float:
        """Advance the whole cluster to ``until`` (barrier-stepped)."""
        return self.sharded.run(until)

    def install_tracer(self, max_spans: int = 1_000_000):
        return self.sharded.install_tracer(max_spans=max_spans)

    def span_snapshot(self) -> dict:
        return self.sharded.span_snapshot()

    def chrome_trace(self) -> Optional[dict]:
        """Chrome trace-event document, or ``None`` when untraced."""
        if not self.sharded.tracers:
            return None
        # one tracer per kernel; a viewer groups lanes by pid (= trace
        # id), so concatenating the per-shard documents yields one trace
        events = [
            event
            for tracer in self.sharded.tracers
            for event in tracer.to_chrome_trace()["traceEvents"]
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def metrics(self, scenario: str = "", **extra: object):
        """Merged, layout-invariant :class:`repro.obs.ClusterReport`."""
        from .obs import ClusterReport

        metrics, events = self.sharded.merged_observability()
        return ClusterReport(
            scenario=scenario,
            sim_time=self.sharded.now,
            metrics=metrics,
            events=events,
            extra=dict(extra),
        )

    def live_members_converged(self) -> bool:
        """All up nodes agree the membership is exactly the up nodes
        (each node as its owning shard sees it)."""
        members = [m for rep in self.replicas for m in rep.members.values()]
        return membership_converged(members, [m.name for m in members if m.host.up])
