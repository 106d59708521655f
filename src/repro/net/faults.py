"""Fault injection for the simulated cluster.

The RAIN system's whole point is tolerating "multiple node, link, and
switch failures, with no single point of failure".  This module is the
adversary: it kills and repairs links, switches, NICs, and hosts, either
immediately or on a schedule.

Every state flip bumps the network topology version so routes recompute
(link and switch flips also bump the fabric version the router's switch
trees key off; host and NIC flips leave those trees standing), and is
recorded on the injector's event log for assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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
        # The batched route checks a whole window once per hop, not
        # each packet in flight; an injector's mere existence makes the
        # network refuse batches, so every packet gets exact checks.
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
