"""Network switches.

The Caltech RAIN testbed used eight-way Myrinet switches; ``port_count``
enforces that fan-in limit when building topologies (the degree bounds in
Sec. 2.1 come directly from such limits).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .device import Device

if TYPE_CHECKING:  # pragma: no cover
    from .link import Link

__all__ = ["Switch", "PortsExhausted"]


class PortsExhausted(Exception):
    """Raised when connecting more links than a switch has ports."""


class Switch(Device):
    """A crossbar switch with a bounded number of ports."""

    kind = "switch"

    def __init__(self, name: str, port_count: int = 8):
        if port_count < 1:
            raise ValueError("switch needs at least one port")
        super().__init__(name)
        self.port_count = port_count

    def attach(self, link: "Link") -> None:
        """Cable a link to a free port; raises when out of ports."""
        if len(self.links) >= self.port_count:
            raise PortsExhausted(
                f"switch {self.name} has only {self.port_count} ports"
            )
        super().attach(link)
