"""The membership token (paper Sec. 3.2).

A single token circulates the logical ring carrying the *authoritative*
membership: the ring order itself, a sequence number incremented on
every hop (used both to discard stale tokens and to arbitrate 911
regeneration), per-node failure counts for the conservative detection
protocol, and an application attachment area (SNOW rides its HTTP queue
here; Rainwall its virtual-IP table).

The ring is an immutable tuple, replaced (never edited) by the ring
operations; copies share it and its set form, so one ring object serves
the token, every snapshot of it and every node view taken from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Token"]


@dataclass
class Token:
    """The circulating membership token."""

    seq: int
    ring: tuple[str, ...]
    fail_counts: dict[str, int] = field(default_factory=dict)
    attachments: dict[str, Any] = field(default_factory=dict)
    regen_count: int = 0  # how many times the token has been regenerated
    #: lineage identity: (regen_count, regenerator name).  Every 911
    #: regeneration starts a new lineage; concurrent regenerations (the
    #: FLP-inevitable case where a deny arrives too late) get *distinct*
    #: lineages, which is what lets the invariant checker tell a benign
    #: transient dual-token from a genuine duplicate.
    lineage: tuple = (0, "genesis")
    #: the ring as a set, built once per ring and shared by copies
    members: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._set_ring(tuple(self.ring))

    def _set_ring(self, ring: tuple[str, ...]) -> None:
        self.ring = ring
        self.members = frozenset(ring)

    def copy(self) -> "Token":
        """A node's local snapshot: shares the ring, copies the maps."""
        c = Token.__new__(Token)
        c.__dict__.update(self.__dict__)
        c.fail_counts = dict(self.fail_counts)
        c.attachments = dict(self.attachments)
        return c

    def next_after(self, node: str) -> str:
        """The ring successor of ``node`` (itself if alone or absent)."""
        if node not in self.ring or len(self.ring) == 1:
            return node
        i = self.ring.index(node)
        return self.ring[(i + 1) % len(self.ring)]

    def remove(self, node: str) -> None:
        """Drop ``node`` from the ring (aggressive exclusion)."""
        if node in self.ring:
            i = self.ring.index(node)
            self._set_ring(self.ring[:i] + self.ring[i + 1:])
        self.fail_counts.pop(node, None)

    def insert_after(self, anchor: str, node: str) -> None:
        """Place ``node`` directly after ``anchor`` in the ring."""
        if node in self.ring:
            return
        i = self.ring.index(anchor) + 1 if anchor in self.ring else len(self.ring)
        self._set_ring(self.ring[:i] + (node,) + self.ring[i:])

    def demote(self, node: str) -> None:
        """Conservative reorder: move ``node`` one position later in the
        ring (ABCD with B unresponsive becomes ACBD); same member set."""
        if node not in self.ring or len(self.ring) < 3:
            return
        ring = list(self.ring)
        i = ring.index(node)
        j = (i + 1) % len(ring)
        ring[i], ring[j] = ring[j], ring[i]
        self.ring = tuple(ring)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token(seq={self.seq}, ring={''.join(n[-1] for n in self.ring)})"
