"""Base class for network devices (switches and host NICs)."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .link import Link

__all__ = ["Device"]


class Device:
    """Anything a link can attach to.

    Concrete subclasses are :class:`repro.net.switch.Switch` and
    :class:`repro.net.nic.Nic`.  ``up`` reflects the device's own health;
    a NIC is additionally unusable when its host is down.
    """

    kind = "device"

    def __init__(self, name: str):
        self.name = name
        self.up = True
        self.links: list["Link"] = []

    @property
    def usable(self) -> bool:
        """Whether traffic may transit this device right now."""
        return self.up

    def attach(self, link: "Link") -> None:
        """Register ``link`` as connected to this device."""
        self.links.append(link)

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"<{self.kind} {self.name} {state}>"
