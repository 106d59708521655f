"""The five whole-scenario workloads and their output checks.

Each workload makes its inputs (file contents, request gaps, paths) from
the benchmark seed and hands the program only those inputs plus
``Simulator(seed=...)``.  ``setup`` is untimed (it ends with the cluster
converged), ``run`` is the timed region, ``outcome`` checks the outputs.
Sizes were tuned on the 2-core reference box so that the timed region
lands near 3 s of host time; they are part of the benchmark's definition,
so changing one is a benchmark change and needs a new baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import ClusterConfig, RainCluster, Simulator
from repro.apps import FlowModel, RainwallCluster, SnowClient, SnowServer
from repro.codes import BCode
from repro.fs import RainFsNode
from repro.membership import check_invariants
from repro.net import Network
from repro.obs import ClusterReport
from repro.rudp import RudpTransport
from repro.scenarios import CHURN_1K, build_churn_cluster

__all__ = ["Outcome", "Workload", "WORKLOADS", "make_workload"]

MIB = float(1 << 20)
#: simulated seconds after which a client process counts as hung
OP_STALL_SIM_S = 3600.0


@dataclass
class Outcome:
    """What a workload's outputs amounted to, judged after the run."""

    ops: float  # correct application ops (unit: ``Workload.op``)
    attempted: int
    failed: int
    #: output checks that did not hold (empty = the outputs are correct)
    problems: list[str] = field(default_factory=list)
    #: simulated per-op latencies in seconds (None where undefined)
    latencies_s: Optional[np.ndarray] = None
    sim_failover_s: Optional[float] = None


class Workload:
    """One scenario: ``setup`` (untimed), ``run`` (timed), ``outcome``."""

    name = ""
    why = ""
    loop = ""  # open/closed-loop statement for the README table
    op = ""  # what ``ops_per_s`` counts

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> dict:
        """The timed region; returns host seconds of named phases, if any."""
        raise NotImplementedError

    def report(self) -> ClusterReport:
        """The program's own observability snapshot, right now."""
        raise NotImplementedError

    def outcome(self) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# churn1k / churn1k_s4 — the flagship 1,000-node membership churn
# ---------------------------------------------------------------------------


class Churn1k(Workload):
    name = "churn1k"
    why = (
        "the roadmap's flagship: 1000 nodes on 64 switches, 3 crashes and 1 "
        "recovery; routing BFS dominates, membership and rudp carry the token"
    )
    loop = "scripted: the token paces itself, faults fire at fixed simulated times"
    op = "token adoptions"
    shards = 1

    def setup(self) -> None:
        self.cluster = build_churn_cluster(
            self.seed,
            shards=self.shards,
            nodes=CHURN_1K["nodes"],
            switches=CHURN_1K["switches"],
        )

    def run(self) -> dict:
        self.cluster.run(CHURN_1K["horizon"])
        return {}

    def report(self) -> ClusterReport:
        # both layouts report under one scenario label: their digests must match
        return self.cluster.metrics(scenario="churn1k")

    def outcome(self) -> Outcome:
        cl = self.cluster
        n = len(cl.names)
        members = [cl.member(i) for i in range(n)]
        up = {cl.names[i] for i in range(n) if members[i].host.up}
        latest = max(members, key=lambda m: m.local_seq)
        changes = [
            ev.time
            for m in members
            for ev in m.events
            if ev.kind in ("excluded", "join_added")
        ]
        settled_at = max(changes, default=0.0)
        # A live node that adopted the token after the last ring change
        # has seen the final ring; anything else in its view is wrong.
        judged = [m for m in members if m.host.up and m.last_token_time >= settled_at]
        wrong = [m.name for m in judged if tuple(m.view) != tuple(latest.view)]
        problems = []
        if set(latest.view) != up:
            problems.append(
                f"final ring has {len(latest.view)} members, {len(up)} nodes are up"
            )
        if wrong:
            problems.append(f"{len(wrong)} live nodes hold a stale view, e.g. {wrong[:3]}")
        adoptions = sum(m.tokens_seen for m in members)
        return Outcome(ops=adoptions, attempted=len(judged), failed=len(wrong),
                       problems=problems)


class Churn1kS4(Churn1k):
    name = "churn1k_s4"
    why = (
        "the same scenario on four shard kernels stepped in lookahead windows: "
        "run_s minus churn1k's is the sharding overhead; digests must match"
    )
    shards = 4


# ---------------------------------------------------------------------------
# flood — batched delivery with no routing, membership, rudp or codes work
# ---------------------------------------------------------------------------

FLOOD_SWITCHES = 8
FLOOD_WINDOW = 256
FLOOD_PACKET_BYTES = 4096
FLOOD_INTERVAL_S = 0.02
FLOOD_LOSS = 0.02
# Ten times repro.bench's 50 us links.  A window's next-hop callback fires at
# its last arrival; when the last three packets of a window are lost on an
# idle link, Network._hop_batch schedules the survivors 16 us in the past and
# the kernel raises (seed 106, about one run in five).  With serialization +
# latency = 533 us a tail of 17 would have to be lost, so it never happens,
# and nothing else about the shape or the host work changes.
FLOOD_LINK_LATENCY_S = 500e-6
FLOOD_HORIZON_S = 16.0
FLOOD_PORT = 9000


class Flood(Workload):
    name = "flood"
    why = (
        "8 hosts flood 256-packet windows around a lossy switch ring: only "
        "net.batch/net.network work, the bypass for routing and token changes"
    )
    loop = (
        "open: every host sends a window every 20 ms whatever the backlog "
        "(offered load is 1.26x the ring links, so queues grow until the "
        "senders stop; the run then drains)"
    )
    op = "packets delivered"

    def setup(self) -> None:
        n = FLOOD_SWITCHES
        self.sim = sim = Simulator(seed=self.seed)
        self.net = net = Network(
            sim, default_latency_s=FLOOD_LINK_LATENCY_S, default_loss_rate=FLOOD_LOSS
        )
        switches = [net.add_switch(f"S{i}") for i in range(n)]
        for i in range(n):
            net.link(switches[i], switches[(i + 1) % n])
        self.hosts = hosts = [net.add_host(f"H{i}") for i in range(n)]
        for i, host in enumerate(hosts):
            net.link(host.nic(0), switches[i])
        self.received = 0
        self._latencies: list[np.ndarray] = []
        for host in hosts:
            host.bind_batch(FLOOD_PORT, self._on_window)
        # three switches on: windows from different senders contend for
        # the same inter-switch serializers (5 hops end to end)
        self.targets = [hosts[(i + 3) % n].endpoint(FLOOD_PORT) for i in range(n)]
        for i in range(n):
            sim.call_in(0.0, self._pump, i)

    def _on_window(self, batch) -> None:
        idxs = batch.alive_indices()
        self.received += len(idxs)
        self._latencies.append(batch.arrival[idxs] - batch.send_time[idxs])

    def _pump(self, i: int) -> None:
        self.hosts[i].send_batch(
            self.targets[i], [None] * FLOOD_WINDOW, size_bytes=FLOOD_PACKET_BYTES
        )
        if self.sim.now + FLOOD_INTERVAL_S < FLOOD_HORIZON_S:
            self.sim.call_in(FLOOD_INTERVAL_S, self._pump, i)

    def run(self) -> dict:
        self.sim.run()  # senders stop at the horizon; run until the ring drains
        return {}

    def report(self) -> ClusterReport:
        return ClusterReport.capture(self.sim, scenario="flood")

    def outcome(self) -> Outcome:
        sums = self.net.stats.sums
        sent = int(sums["packets_sent"])
        delivered = int(sums["packets_delivered"])
        dropped = int(sums["packets_dropped"])
        lost = sent - delivered - dropped
        problems = []
        if lost:
            problems.append(f"{lost} packets neither delivered nor dropped (sent {sent})")
        if delivered != self.received:
            problems.append(f"handlers saw {self.received} packets, network delivered {delivered}")
        return Outcome(
            ops=delivered,
            attempted=sent,
            failed=abs(lost),
            problems=problems,
            latencies_s=np.concatenate(self._latencies),
        )


# ---------------------------------------------------------------------------
# rainfs_rw — bulk bytes through the scalar per-packet path
# ---------------------------------------------------------------------------

RAINFS_NODES = 6
RAINFS_BLOCK_BYTES = 16 * 1024
RAINFS_FILES = 96
RAINFS_FILE_BYTES = 256 * 1024
#: each degraded block costs one 1.0 sim-s storage timeout, during which
#: the monitors' background pings keep the kernel busy — hence so few
RAINFS_DEGRADED_FILES = 4
RAINFS_CONVERGE_S = 2.0


class RainfsRw(Workload):
    name = "rainfs_rw"
    why = (
        "96 x 256 KiB files written, read back and read degraded over BCode(6): "
        "sim.core, net.network, channel, rudp, storage and codes all on the path"
    )
    loop = "closed: one client operation at a time, the next starts when it returns"
    op = "MiB written+read"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.files = {
            f"/bench/{int(rng.integers(1 << 30)):08x}/f{i:03d}": rng.integers(
                0, 256, size=RAINFS_FILE_BYTES, dtype=np.uint8
            ).tobytes()
            for i in range(RAINFS_FILES)
        }
        self.paths = list(self.files)
        self.sim = sim = Simulator(seed=self.seed)
        self.cluster = cl = RainCluster(sim, ClusterConfig(nodes=RAINFS_NODES))
        self.fs = [
            RainFsNode(
                cl.member(i),
                cl.elections[i],
                cl.store_on(i, BCode(RAINFS_NODES)),
                block_size=RAINFS_BLOCK_BYTES,
            )
            for i in range(RAINFS_NODES)
        ]
        sim.run(until=RAINFS_CONVERGE_S)
        self._latencies: list[float] = []
        self._bad: list[str] = []
        self._done = {"write": 0, "read": 0, "read_degraded": 0}

    def _phase(self, gen) -> float:
        t0 = time.perf_counter()
        # the bound turns an operation that never returns into a TimeoutError
        self.sim.run_process(gen, until=self.sim.now + OP_STALL_SIM_S)
        return time.perf_counter() - t0

    def _write_all(self):
        n = RAINFS_NODES
        for i, path in enumerate(self.paths):
            t0 = self.sim.now
            yield from self.fs[i % n].write(path, self.files[path])
            self._latencies.append(self.sim.now - t0)
            self._done["write"] += 1

    def _read(self, phase: str, reader: RainFsNode, path: str):
        t0 = self.sim.now
        data = yield from reader.read(path)
        self._latencies.append(self.sim.now - t0)
        self._done[phase] += 1
        if data != self.files[path]:
            self._bad.append(f"{phase} {path}")

    def _read_all(self):
        n = RAINFS_NODES
        for i, path in enumerate(self.paths):
            # never the node that wrote it
            yield from self._read("read", self.fs[(i + n // 2) % n], path)

    def _read_degraded(self, victim: int):
        n = RAINFS_NODES
        for i, path in enumerate(self.paths[:RAINFS_DEGRADED_FILES]):
            reader = (victim + 1 + i % (n - 1)) % n
            yield from self._read("read_degraded", self.fs[reader], path)

    def run(self) -> dict:
        cl = self.cluster
        write_s = self._phase(self._write_all())
        read_s = self._phase(self._read_all())
        leader = cl.names.index(cl.elections[0].leader)
        victim = (leader + 2) % RAINFS_NODES  # a data node, not the metadata leader
        cl.crash(victim)
        degraded_s = self._phase(self._read_degraded(victim))
        file_mib = RAINFS_FILES * RAINFS_FILE_BYTES / MIB
        return {
            "write_s": write_s,
            "write_mib": file_mib,
            "read_s": read_s,
            "read_mib": file_mib,
            "read_degraded_s": degraded_s,
        }

    def report(self) -> ClusterReport:
        return self.cluster.metrics(scenario="rainfs_rw")

    def outcome(self) -> Outcome:
        attempted = 2 * RAINFS_FILES + RAINFS_DEGRADED_FILES
        done = sum(self._done.values())
        failed = (attempted - done) + len(self._bad)
        problems = []
        if self._bad:
            problems.append(f"{len(self._bad)} files not byte-equal, e.g. {self._bad[:3]}")
        if done != attempted:
            problems.append(f"{done} of {attempted} file operations returned")
        good_reads = self._done["read"] + self._done["read_degraded"] - len(self._bad)
        mib = (self._done["write"] + good_reads) * RAINFS_FILE_BYTES / MIB
        return Outcome(
            ops=mib,
            attempted=attempted,
            failed=failed,
            problems=problems,
            latencies_s=np.asarray(self._latencies),
        )


# ---------------------------------------------------------------------------
# webfront — SNOW + Rainwall on one membership token, latency-bound
# ---------------------------------------------------------------------------

WEB_NODES = 4
WEB_VIPS = 8
WEB_OFFERED_MBPS = 200.0
WEB_GATEWAY_MBPS = 67.0
WEB_REQUESTS = 8000
WEB_RATE_PER_S = 50.0
WEB_CONVERGE_S = 2.0
WEB_DRAIN_S = 5.0
WEB_VICTIM = 2


class Webfront(Workload):
    name = "webfront"
    why = (
        "8000 Poisson requests at 50/s sprayed at two SNOW servers while Rainwall "
        "balances 8 VIPs on the same token; node2 crashes and rejoins: latency-bound"
    )
    loop = (
        "open in simulated time: requests are sent at their Poisson instants "
        "whether or not earlier ones were answered (the generator is a "
        "simulated process, so it is never late)"
    )
    op = "requests answered exactly once"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = WEB_REQUESTS
        self.gaps = rng.exponential(1.0 / WEB_RATE_PER_S, size=n)
        # The client's server list leaves out the node that will crash.
        # A SnowServer keeps its private inbox across a crash and RUDP
        # redelivers the pre-crash TOKEN after the repair, so a victim with
        # unmerged requests answers them a second time on rejoin (4-21
        # doubles per 4000 requests on half the seeds tried).  The paper's
        # exactly-once claim is what this workload checks, so it has to be
        # one on which the program at this commit keeps it.
        self.front = [i for i in range(WEB_NODES) if i != WEB_VICTIM]
        self.first = rng.integers(0, len(self.front), size=n)
        self.page = rng.integers(0, 1 << 20, size=n)
        self.sim = sim = Simulator(seed=self.seed)
        self.cluster = cl = RainCluster(sim, ClusterConfig(nodes=WEB_NODES))
        self.servers = [
            SnowServer(h, tp, m) for h, tp, m in zip(cl.hosts, cl.transports, cl.membership)
        ]
        flow = FlowModel(
            sim.rng.stream("flow"), [f"vip{i}" for i in range(WEB_VIPS)], WEB_OFFERED_MBPS
        )
        self.rainwall = RainwallCluster(cl.membership, flow, capacity_mbps=WEB_GATEWAY_MBPS)
        chost = cl.network.add_host("web-client", nics=2)
        cl.network.link(chost.nic(0), cl.switches[0])
        cl.network.link(chost.nic(1), cl.switches[1])
        self.client = SnowClient(chost, RudpTransport(chost))
        sim.run(until=WEB_CONVERGE_S)
        due = WEB_CONVERGE_S + np.cumsum(self.gaps)
        self.crash_due = float(due[n // 3])
        self.repair_at = float(due[2 * n // 3])
        self.crash_time: Optional[float] = None
        self.sent: dict[str, float] = {}
        # The crash fires the first time the victim's ring successor holds
        # the token after a third of the stream: the victim has just handed
        # the token on, so the token (and the request queue riding on it)
        # is never lost with it.  A lost token is regenerated from an older
        # copy whose queue is then served twice — the same double answer.
        ring = list(cl.member(0).membership)
        victim = cl.names[WEB_VICTIM]
        successor = ring[(ring.index(victim) + 1) % len(ring)]
        cl.member(cl.names.index(successor)).on_hold(self._maybe_crash)
        cl.faults.repair_at(self.repair_at, cl.host(WEB_VICTIM))

    def _maybe_crash(self, token) -> None:
        if self.crash_time is None and self.sim.now >= self.crash_due:
            self.crash_time = self.sim.now
            self.cluster.crash(WEB_VICTIM)

    def _load(self):
        sim, client, names = self.sim, self.client, self.cluster.names
        front, k = self.front, len(self.front)
        for i in range(WEB_REQUESTS):
            yield sim.timeout(float(self.gaps[i]))
            a = int(self.first[i])
            servers = [names[front[a]], names[front[(a + 1) % k]]]
            req_id = client.send_request(servers, path=f"/page/{int(self.page[i]):05x}")
            self.sent[req_id] = sim.now

    def run(self) -> dict:
        self.sim.run_process(self._load(), until=self.sim.now + OP_STALL_SIM_S)
        self.sim.run(until=self.sim.now + WEB_DRAIN_S)
        return {}

    def report(self) -> ClusterReport:
        return self.cluster.metrics(scenario="webfront")

    def outcome(self) -> Outcome:
        cl, rw, client = self.cluster, self.rainwall, self.client
        replies = client.reply_counts()
        once = [r for r in self.sent if replies.get(r, 0) == 1]
        doubled = [r for r in self.sent if replies.get(r, 0) > 1]
        problems = []
        if doubled:
            problems.append(f"{len(doubled)} requests answered more than once, e.g. {doubled[:3]}")
        if self.crash_time is None:
            problems.append("the scripted crash never fired")
        invariants = check_invariants(cl.membership)
        if not invariants.ok:
            problems.append(f"membership invariants violated: {invariants.violations[:3]}")
        owners = rw.owners()
        live = {h.name for h in cl.hosts if h.up}
        orphans = [v for v in rw.vips if owners.get(v) not in live]
        if orphans:
            problems.append(f"VIPs without a live owner at the end: {orphans}")
        failover = None
        if self.crash_time is not None:
            # None from Rainwall means the victim owned no VIP: nothing to move
            failover = rw.failover_time(self.crash_time) or 0.0
        latencies = np.asarray(
            [client.responses[r][0][0] - self.sent[r] for r in self.sent if r in client.responses]
        )
        return Outcome(
            ops=len(once),
            attempted=len(self.sent),
            failed=len(self.sent) - len(once),
            problems=problems,
            latencies_s=latencies,
            sim_failover_s=failover,
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Churn1k, Churn1kS4, Flood, RainfsRw, Webfront)
}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
