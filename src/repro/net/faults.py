"""Fault injection for the simulated cluster.

The RAIN system's whole point is tolerating "multiple node, link, and
switch failures, with no single point of failure".  This module is the
adversary: it kills and repairs links, switches, NICs, and hosts, either
immediately or on a schedule, and can generate random fault/repair
processes for soak experiments.

Every state flip bumps the network topology version so routes recompute
(link and switch flips also bump the fabric version the router's switch
trees key off; host and NIC flips leave those trees standing), and is
recorded on the injector's event log for assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..sim import Simulator
from .link import Link
from .network import Network
from .nic import Nic
from .node import Host
from .switch import Switch

__all__ = ["FaultInjector", "FaultEvent"]

Failable = Union[Link, Switch, Host, Nic]


@dataclass(frozen=True)
class FaultEvent:
    """One recorded fault/repair action."""

    time: float
    action: str  # "fail" | "repair"
    kind: str  # "link" | "switch" | "host" | "nic"
    name: str


class FaultInjector:
    """Kills and revives network elements."""

    def __init__(self, network: Network):
        self.network = network
        self.sim: Simulator = network.sim
        self.log: list[FaultEvent] = []
        self._rng = self.sim.rng.stream("faults")
        # The batched route checks a whole window once per hop, not
        # each packet in flight; an injector's mere existence makes
        # batches fall back to scalar transmits, whose checks are exact.
        network.arm_faults()

    # -- immediate ---------------------------------------------------------

    def _set(self, element: Failable, up: bool) -> None:
        if isinstance(element, Link):
            kind = "link"
        elif isinstance(element, Switch):
            kind = "switch"
        elif isinstance(element, Nic):
            kind = "nic"
        elif isinstance(element, Host):
            kind = "host"
        else:
            raise TypeError(f"cannot fault {element!r}")
        if element.up == up:
            return
        element.up = up
        self.network.bump_topology(fabric=kind in ("link", "switch"))
        self.log.append(
            FaultEvent(self.sim.now, "repair" if up else "fail", kind, element.name)
        )

    def fail(self, element: Failable) -> None:
        """Take ``element`` down now."""
        self._set(element, False)

    def repair(self, element: Failable) -> None:
        """Bring ``element`` back up now."""
        self._set(element, True)

    # -- scheduled ---------------------------------------------------------

    def fail_at(self, time: float, element: Failable) -> None:
        """Take ``element`` down at absolute simulated ``time``."""
        self.sim.call_at(time, self._set, element, False)

    def repair_at(self, time: float, element: Failable) -> None:
        """Bring ``element`` up at absolute simulated ``time``."""
        self.sim.call_at(time, self._set, element, True)

    def outage(self, element: Failable, start: float, duration: float) -> None:
        """Down from ``start`` for ``duration`` seconds, then repaired."""
        self.fail_at(start, element)
        self.repair_at(start + duration, element)

    # -- stochastic soak ------------------------------------------------------

    def random_outages(
        self,
        elements: list[Failable],
        rate_per_element: float,
        mean_downtime: float,
        horizon: float,
        start: float = 0.0,
    ) -> int:
        """Schedule Poisson outages on each element until ``horizon``.

        Each element independently fails with exponential inter-arrival
        times at ``rate_per_element`` per second, staying down for an
        exponential time of mean ``mean_downtime``.  Returns the number
        of outages scheduled (for sanity checks in soak tests).
        """
        if rate_per_element <= 0:
            return 0
        scheduled = 0
        for element in elements:
            t = start
            while True:
                t += float(self._rng.exponential(1.0 / rate_per_element))
                if t >= horizon:
                    break
                downtime = float(self._rng.exponential(mean_downtime))
                self.outage(element, t, downtime)
                scheduled += 1
                t += downtime
        return scheduled

    # -- queries -----------------------------------------------------------

    def failures_before(self, time: Optional[float] = None) -> list[FaultEvent]:
        """All 'fail' events recorded so far (optionally up to ``time``)."""
        cutoff = self.sim.now if time is None else time
        return [e for e in self.log if e.action == "fail" and e.time <= cutoff]
