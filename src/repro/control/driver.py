"""Steerable scenario driver: the control plane's execution core.

A :class:`ScenarioDriver` owns one built scenario and exposes every way
the HTTP API can advance it — step by simulated duration, run to an
absolute time, run until an event count, or run to completion — plus
snapshot accessors (report, topology, event tail) and programmatic
fault injection.  It is deliberately single-threaded: the HTTP server
funnels every call through one command queue, so nothing here locks.

All stepping goes through :class:`~repro.sim.ShardedSimulator`'s
public ``run`` / ``run_events`` — two callers of its one round
protocol, which compose byte-identically with a single batch
``run(horizon)`` — the determinism bridge pinned by
``tests/test_control_driver.py``.  One shard is the exact
event-granularity case of the same protocol, so there is no separate
single-kernel path.
"""

from __future__ import annotations

import re

from ..obs import EventRing
from ..scenarios import Scenario

__all__ = ["ScenarioDriver"]


def _endpoint_name(device) -> str:
    """Host-level name of a link endpoint (NICs collapse to their host)."""
    host = getattr(device, "host", None)
    return host.name if host is not None else device.name


class ScenarioDriver:
    """Drive one table scenario incrementally.

    Parameters
    ----------
    scenario:
        An entry of :data:`repro.scenarios.SCENARIOS`; built here with
        ``seed`` and ``shards``.
    ring_capacity:
        Bounded event-tail size for ``GET /api/events`` (per driver, not
        per bus — shard buses share one sequence-numbered ring).
    trace:
        Install a :class:`~repro.obs.SpanTracer` before the first step
        so ``GET /api/trace`` can export a Chrome/Perfetto document.
        Off by default: untraced runs are the byte-identity reference.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int = 7,
        shards: int = 1,
        ring_capacity: int = 1024,
        trace: bool = False,
    ):
        self.name = scenario.name
        self.horizon = scenario.horizon
        self.seed = seed
        self.shards = shards
        self.cluster = scenario.build(seed, shards)
        # bound once: every stepping call goes through this simulator
        self.engine = self.cluster.sharded
        self.ring = EventRing(capacity=ring_capacity)
        for kernel in self.engine.kernels:
            self.ring.attach(kernel.obs.bus, label=f"shard{kernel.rank}")
        if trace:
            self.cluster.install_tracer()

    # -- clocks ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.now

    @property
    def done(self) -> bool:
        """True once the scenario horizon has been reached."""
        return self.now >= self.horizon

    def total_events(self) -> int:
        """Events executed so far (cheap counter read, no flush)."""
        return self.engine.total_events()

    # -- stepping --------------------------------------------------------

    def run_to(self, t: float) -> float:
        """Advance to absolute simulated time ``t`` (clamped to the
        horizon; no-op when already past).  Returns the new clock."""
        target = min(float(t), self.horizon)
        if target > self.now:
            self.engine.run(target)
        return self.now

    def step_for(self, dt: float) -> float:
        """Advance by ``dt`` simulated seconds (clamped to the horizon)."""
        if dt < 0:
            raise ValueError(f"cannot step a negative duration: {dt}")
        return self.run_to(self.now + dt)

    def step_events(self, n: int) -> int:
        """Run at most ``n`` further events (bounded by the horizon).

        One shard steps with exact event granularity; a multi-shard
        run settles one lookahead at a time (the finest stepping the
        round protocol has) until the count is reached.  Returns the
        number of events executed.
        """
        if n < 0:
            raise ValueError(f"cannot run a negative event count: {n}")
        return self.engine.run_events(n, self.horizon)

    def run_to_completion(self) -> float:
        """Advance straight to the horizon (the batch-equivalent run)."""
        return self.run_to(self.horizon)

    # -- telemetry -------------------------------------------------------

    def report(self):
        """Live :class:`~repro.obs.ClusterReport` — the same call the
        batch CLI makes, so a completed stepped run matches it exactly."""
        return self.cluster.metrics(scenario=self.name, seed=self.seed)

    def token_holders(self) -> list[str]:
        """Names of nodes currently holding a membership token."""
        return sorted(
            rep.hosts[i].name
            for rep in self.cluster.replicas
            for i, member in rep.members.items()
            if member.holding is not None
        )

    def topology(self) -> dict:
        """Live topology snapshot: devices, link states, token position.

        Up/Down state is read from replica 0 (fault scripts replicate
        to every shard, so replicas agree); per-node byte counts are
        summed across replicas because traffic is metered on the
        sender's shard until handoff.
        """
        nets = [rep.net for rep in self.cluster.replicas]
        net0 = nets[0]
        node_bytes: dict[str, int] = {name: 0 for name in net0.hosts}
        for net in nets:
            for link in net.links:
                for dev, end in ((link.a, link.end_a), (link.b, link.end_b)):
                    host = getattr(dev, "host", None)
                    if host is not None:
                        node_bytes[host.name] += end.bytes_carried
        holders = set(self.token_holders())
        nodes = [
            {
                "name": name,
                "up": host.up,
                "token": name in holders,
                "bytes": node_bytes[name],
            }
            for name, host in sorted(net0.hosts.items())
        ]
        switches = [
            {"name": name, "up": sw.up}
            for name, sw in sorted(net0.switches.items())
        ]
        links = [
            {
                "id": f"L{idx}",
                "a": _endpoint_name(link.a),
                "b": _endpoint_name(link.b),
                "up": link.up,
            }
            for idx, link in enumerate(net0.links)
        ]
        return {
            "scenario": self.name,
            "seed": self.seed,
            "shards": self.shards,
            "now": self.now,
            "horizon": self.horizon,
            "done": self.done,
            "events_total": self.total_events(),
            "token_holders": sorted(holders),
            "nodes": nodes,
            "switches": switches,
            "links": links,
        }

    def events_since(self, seq: int = -1) -> dict:
        """Bounded event tail for ``GET /api/events?since=<seq>``."""
        entries = self.ring.since(seq)
        return {
            "next_seq": self.ring.next_seq,
            "dropped": self.ring.dropped,
            "events": [
                {
                    "seq": s,
                    "shard": label,
                    "time": ev.time,
                    "topic": ev.topic,
                    "data": {k: str(v) for k, v in sorted(ev.data.items())},
                }
                for s, label, ev in entries
            ],
        }

    # -- fault injection -------------------------------------------------

    def _tag(self, kind: str, target: str) -> tuple:
        """The fault tag an HTTP name stands for: "node1" -> ("node", 1),
        "sw0" -> ("switch", 0), "L3" -> ("link", edge_ids[3])."""
        prefix = {"node": "node", "switch": "sw", "link": "L"}.get(kind)
        if prefix is None:
            raise KeyError(f"unknown fault kind {kind!r} (node, switch, link)")
        match = re.fullmatch(re.escape(prefix) + "(0|[1-9][0-9]*)", target)
        if match is None:
            raise KeyError(f"no such {kind}: {target!r}")
        index = int(match[1])
        if kind != "link":
            return (kind, index)
        edge_ids = self.cluster.topo.edge_ids()
        if index >= len(edge_ids):
            raise KeyError(f"no such link: {target!r}")
        return ("link", edge_ids[index])

    def inject_fault(self, action: str, kind: str, target: str) -> dict:
        """Kill or revive a node/switch/link programmatically.

        Applied identically on every shard replica through the
        cluster's one resolver (the cluster is paused at a barrier when
        this runs, so all kernels sit at the same instant and the flip
        is deterministic going forward).
        """
        if action not in ("fail", "repair"):
            raise KeyError(f"unknown fault action {action!r} (fail, repair)")
        tag = self._tag(kind, target)
        replicas = self.cluster.replicas
        try:
            elements = [self.cluster.element(rep, tag) for rep in replicas]
        except KeyError:
            raise KeyError(f"no such {kind}: {target!r}") from None
        for rep, element in zip(replicas, elements):
            getattr(rep.faults, action)(element)
        return {
            "action": action,
            "kind": kind,
            "target": target,
            "up": element.up,
            "time": self.now,
        }

    def close(self) -> None:
        """Detach the event ring from every bus."""
        self.ring.close()
