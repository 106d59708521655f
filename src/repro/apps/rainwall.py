"""Rainwall — the commercial firewall cluster (paper Sec. 6).

Rainwall manages pools of *virtual IPs*: every VIP is owned by exactly
one healthy gateway; routers send traffic to VIPs, so moving a VIP moves
its traffic.  The group membership protocol (Sec. 3) is "the foundation
for the virtual IP management": the ownership table rides the membership
token, and the token holder — under cluster-wide mutual exclusion —
reassigns VIPs of failed gateways and performs load balancing.

Two balancing policies, for the paper's explicit design argument
(Sec. 6.3):

- ``request`` (Rainwall's): "a less-loaded machine requests load from
  heavily-loaded machines" — only an *underloaded* holder pulls one VIP
  to itself, avoiding the "hot potato" effect;
- ``assignment`` (the rejected alternative, kept as an ablation): an
  *overloaded* holder dumps its busiest VIP onto the least-loaded
  gateway, which reproduces the hot-potato oscillation.

Failure detection is two-level, as in Sec. 6.2: a *local* detector takes
the gateway down when its own required resources fail (modeled by the
host/NIC fault state), and the *cluster* detector is the membership
protocol itself.  The measured fail-over — detection + one membership
round + VIP reassignment — lands around the paper's "about two seconds"
under the default timing config.

Traffic is modeled as fluid offered load per VIP (Mbps) from
:class:`~repro.apps.workload.FlowModel`; a gateway serves up to its
capacity (the paper's single-node benchmark: 67 Mbps).  Cluster goodput
is the sum over healthy gateways — the quantity behind the 4-node
251 Mbps (3.75×) claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..membership import MembershipNode, Token
from ..sim import Simulator
from .workload import FlowModel

__all__ = ["RainwallGateway", "RainwallCluster", "VipMove"]

_VIPS_KEY = "rainwall.vips"  # token attachment: {vip: owner}
_RATES_KEY = "rainwall.rates"  # token attachment: {vip: measured mbps}
_ADMIN_KEY = "rainwall.admin"  # token attachment: {vip: preferred gateway}


@dataclass(frozen=True)
class VipMove:
    """One ownership change of a virtual IP."""

    time: float
    vip: str
    src: Optional[str]
    dst: str
    reason: str  # "failover" | "balance" | "initial"


class RainwallGateway:
    """One firewall gateway running the Rainwall agent."""

    def __init__(
        self,
        membership: MembershipNode,
        cluster: "RainwallCluster",
        capacity_mbps: float = 67.0,
        mode: str = "request",
        threshold_mbps: float = 10.0,
        sticky: Optional[set[str]] = None,
    ):
        if mode not in ("request", "assignment"):
            raise ValueError(f"unknown balancing mode {mode!r}")
        self.membership = membership
        self.cluster = cluster
        self.sim: Simulator = membership.sim
        self.name = membership.name
        self.capacity = capacity_mbps
        self.mode = mode
        self.threshold = threshold_mbps
        self.sticky = sticky or set()
        self.vip_table: dict[str, str] = {}  # local view of ownership
        membership.on_hold(self._on_token)

    @property
    def up(self) -> bool:
        """Local failure detector verdict: host and at least one NIC OK
        (Sec. 6.2's required-resource checks)."""
        host = self.membership.host
        return host.up and any(n.usable and n.connected for n in host.nics)

    # -- the token hook ---------------------------------------------------------

    def _on_token(self, token: Token) -> None:
        table: dict[str, str] = dict(token.attachments.get(_VIPS_KEY, {}))
        rates: dict[str, float] = dict(token.attachments.get(_RATES_KEY, {}))
        prefer: dict[str, str] = token.attachments.get(_ADMIN_KEY, {})
        members = [m for m in token.ring]
        # publish our local traffic measurements for the VIPs we own
        my_rates = self.cluster.measured_rates(self.name, table)
        rates.update(my_rates)
        loads = {m: 0.0 for m in members}
        for vip, owner in table.items():
            if owner in loads:
                loads[owner] += rates.get(vip, 0.0)

        # merge console commands (Fig. 13's GUI) submitted since the
        # last hold — whichever gateway holds the token applies them
        commands = self.cluster._drain_admin()
        if commands:
            prefer = dict(prefer)  # earlier token copies share the map
            for vip, target in commands:
                if target is None:
                    prefer.pop(vip, None)
                else:
                    prefer[vip] = target

        def move(vip: str, target: str, reason: str) -> None:
            prev = table.get(vip)
            table[vip] = target
            loads[target] = loads.get(target, 0.0) + rates.get(vip, 0.0)
            if prev in loads:
                loads[prev] -= rates.get(vip, 0.0)
            self.cluster.record_move(VipMove(self.sim.now, vip, prev, target, reason))

        # 1. failover: every VIP must be owned by a live member;
        #    preference assignments are honored when their machine is
        #    healthy (VIPs always migrate off dead machines)
        for vip in self.cluster.vips:
            owner = table.get(vip)
            want = prefer.get(vip)
            if want in members and owner != want:
                move(vip, want, "preference" if owner in members else "failover")
                continue
            if owner not in members:
                target = min(members, key=lambda m: (loads[m], m))
                move(vip, target, "failover" if owner is not None else "initial")
        # 2. load balancing (only meaningful with >1 member); sticky and
        #    preferred VIPs do not participate (Sec. 6.4)
        if len(members) > 1:
            pinned = set(prefer) | self.sticky
            if self.mode == "request":
                self._balance_by_request(table, rates, loads, pinned)
            else:
                self._balance_by_assignment(table, rates, loads, pinned)
        token.attachments[_VIPS_KEY] = table
        token.attachments[_RATES_KEY] = rates
        token.attachments[_ADMIN_KEY] = prefer
        self.vip_table = dict(table)
        self.cluster.table_seen(table)

    def _movable(self, table, owner, pinned=frozenset()):
        return [
            v
            for v, o in table.items()
            if o == owner and v not in self.sticky and v not in pinned
        ]

    def _balance_by_request(self, table, rates, loads, pinned=frozenset()) -> None:
        """Pull one VIP to ourselves if we are notably underloaded."""
        mean = sum(loads.values()) / len(loads)
        me = self.name
        if loads.get(me, 0.0) >= mean - self.threshold:
            return
        donor = max(loads, key=lambda m: loads[m])
        if donor == me or loads[donor] - loads[me] < 2 * self.threshold:
            return
        gap = loads[donor] - loads[me]
        candidates = self._movable(table, donor, pinned)
        if not candidates:
            return
        # the largest VIP that does not overshoot the midpoint
        fitting = [v for v in candidates if rates.get(v, 0.0) <= gap / 2 + self.threshold]
        vip = max(fitting or candidates, key=lambda v: rates.get(v, 0.0))
        table[vip] = me
        self.cluster.record_move(VipMove(self.sim.now, vip, donor, me, "balance"))

    def _balance_by_assignment(self, table, rates, loads, pinned=frozenset()) -> None:
        """Hot-potato ablation: dump our busiest VIP when overloaded."""
        mean = sum(loads.values()) / len(loads)
        me = self.name
        if loads.get(me, 0.0) <= mean + self.threshold:
            return
        candidates = self._movable(table, me, pinned)
        if len(candidates) <= 0:
            return
        vip = max(candidates, key=lambda v: rates.get(v, 0.0))
        target = min(loads, key=lambda m: (loads[m], m))
        if target == me:
            return
        table[vip] = target
        self.cluster.record_move(VipMove(self.sim.now, vip, me, target, "balance"))


class RainwallCluster:
    """Experiment harness: gateways + fluid traffic + goodput sampling."""

    def __init__(
        self,
        memberships: list[MembershipNode],
        flow: FlowModel,
        capacity_mbps: float = 67.0,
        mode: str = "request",
        threshold_mbps: float = 10.0,
        sample_interval: float = 0.25,
        rate_update_interval: float = 1.0,
    ):
        self.sim: Simulator = memberships[0].sim
        self.flow = flow
        self.vips = list(flow.vips)
        self.moves: list[VipMove] = []
        self._rates = flow.rates()
        self.gateways = [
            RainwallGateway(
                m, self, capacity_mbps=capacity_mbps, mode=mode, threshold_mbps=threshold_mbps
            )
            for m in memberships
        ]
        self.sample_interval = sample_interval
        self.rate_update_interval = rate_update_interval
        self.samples: list[tuple[float, float]] = []  # (time, served mbps)
        self.unserved: dict[str, float] = {v: 0.0 for v in self.vips}
        metrics = self.sim.obs.metrics
        self._m_moves = metrics.counter(
            "apps.rainwall.vip_moves", help="VIP ownership changes by reason"
        )
        self._m_move_series: dict[str, object] = {}
        self._m_goodput = metrics.histogram(
            "apps.rainwall.goodput", help="sampled cluster goodput (Mbps)"
        ).labels()
        self._latest_table: dict[str, str] = {}
        self._admin_pending: list[tuple[str, Optional[str]]] = []
        self.sim.process(self._traffic_proc(), name="rainwall:traffic")
        self.sim.process(self._sampler_proc(), name="rainwall:sampler")

    # -- gateway callbacks ---------------------------------------------------

    def measured_rates(self, gateway: str, table: dict[str, str]) -> dict[str, float]:
        """The per-VIP Mbps gateway ``gateway`` currently measures."""
        return {v: r for v, r in self._rates.items() if table.get(v) == gateway}

    def table_seen(self, table: dict[str, str]) -> None:
        """Record the latest authoritative VIP table (from the token)."""
        self._latest_table = dict(table)

    def record_move(self, move: VipMove) -> None:
        """Append a move and mirror it onto the observability layer."""
        self.moves.append(move)
        series = self._m_move_series.get(move.reason)
        if series is None:
            series = self._m_moves.labels(reason=move.reason)
            self._m_move_series[move.reason] = series
        series.inc()
        self.sim.obs.bus.publish(
            "apps.rainwall.vip_move",
            vip=move.vip,
            src=move.src,
            dst=move.dst,
            reason=move.reason,
        )

    # -- administration console (Sec. 6.4) ---------------------------------

    def _drain_admin(self) -> list[tuple[str, Optional[str]]]:
        ops, self._admin_pending = self._admin_pending, []
        return ops

    def prefer(self, vip: str, gateway: Optional[str]) -> None:
        """Give ``vip`` a home preference: it returns to ``gateway``
        whenever that machine is healthy, and is skipped by balancing."""
        self._admin_pending.append((vip, gateway))

    # -- environment processes ---------------------------------------------------

    def _traffic_proc(self):
        while True:
            yield self.sim.timeout(self.rate_update_interval)
            self._rates = self.flow.step()

    def _gateway_by_name(self, name: str) -> Optional[RainwallGateway]:
        for g in self.gateways:
            if g.name == name:
                return g
        return None

    def served_now(self) -> float:
        """Cluster goodput right now: per-gateway min(capacity, load)."""
        per_gateway: dict[str, float] = {}
        for vip, rate in self._rates.items():
            owner = self._latest_table.get(vip)
            gw = self._gateway_by_name(owner) if owner else None
            if gw is None or not gw.up:
                self.unserved[vip] += rate * self.sample_interval
                continue
            per_gateway[owner] = per_gateway.get(owner, 0.0) + rate
        total = 0.0
        for owner, load in per_gateway.items():
            gw = self._gateway_by_name(owner)
            total += min(gw.capacity, load)
        return total

    def _sampler_proc(self):
        while True:
            yield self.sim.timeout(self.sample_interval)
            served = self.served_now()
            self.samples.append((self.sim.now, served))
            self._m_goodput.observe(served)

    # -- analysis -----------------------------------------------------------

    def mean_goodput(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Average served Mbps over [t0, t1]."""
        pts = [s for t, s in self.samples if t >= t0 and (t1 is None or t <= t1)]
        return sum(pts) / len(pts) if pts else 0.0

    def failover_time(self, crash_time: float) -> Optional[float]:
        """Delay from ``crash_time`` to the last failover move that
        repaired ownership (None if no failover happened)."""
        times = [
            m.time for m in self.moves if m.reason == "failover" and m.time >= crash_time
        ]
        return (max(times) - crash_time) if times else None

    def owners(self) -> dict[str, str]:
        """Latest authoritative VIP ownership."""
        return dict(self._latest_table)

    def move_rate(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Balancing moves per second over [t0, t1] (oscillation metric)."""
        end = t1 if t1 is not None else self.sim.now
        if end <= t0:
            return 0.0
        n = sum(1 for m in self.moves if m.reason == "balance" and t0 <= m.time <= end)
        return n / (end - t0)
