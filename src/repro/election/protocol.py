"""Leader election (paper ref. [29], used by RAINCheck, Sec. 5.3).

The referenced protocol guarantees "a unique node designated as leader
in every connected set of nodes".  RAIN's building-block philosophy puts
the hard agreement problem in one place — the membership protocol — and
derives leadership deterministically from the agreed view: the leader of
a membership is its smallest node name.  Because all members of a
connected component converge on the same view (Sec. 3), they converge on
the same leader; distinct components have distinct memberships and hence
each elects its own leader, matching the per-component uniqueness of
[29].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..membership import MembershipEvent, MembershipNode

__all__ = ["LeaderElection", "LeaderChange"]


@dataclass(frozen=True)
class LeaderChange:
    """A leadership transition observed at one node."""

    time: float
    node: str  # observer
    leader: Optional[str]
    previous: Optional[str]


class LeaderElection:
    """Deterministic leader over a membership view."""

    def __init__(self, membership: MembershipNode):
        self.membership = membership
        self.sim = membership.sim
        self._leader: Optional[str] = self._compute()
        self.changes: list[LeaderChange] = []
        self._listeners: list[Callable[[LeaderChange], None]] = []
        self._f_changes = self.sim.obs.metrics.counter(
            "election.leader.changes", help="leadership transitions observed"
        )
        self._m_changes = None  # bound on the first change this node sees
        membership.subscribe(self._on_membership_event)

    def _compute(self) -> Optional[str]:
        view = self.membership.membership
        return min(view) if view else None

    @property
    def leader(self) -> Optional[str]:
        """The current leader as this node sees it."""
        return self._leader

    @property
    def is_leader(self) -> bool:
        """Whether this node currently believes it leads."""
        return self._leader == self.membership.name

    def subscribe(self, fn: Callable[[LeaderChange], None]) -> None:
        """Observe leadership transitions."""
        self._listeners.append(fn)

    def _on_membership_event(self, ev: MembershipEvent) -> None:
        if ev.kind not in ("view", "token", "regen", "solo"):
            return
        new = self._compute()
        if new != self._leader:
            change = LeaderChange(
                time=self.sim.now,
                node=self.membership.name,
                leader=new,
                previous=self._leader,
            )
            self._leader = new
            self.changes.append(change)
            if self._m_changes is None:
                self._m_changes = self._f_changes.labels(node=change.node)
            self._m_changes.inc()
            self.sim.obs.bus.publish(
                "election.leader.change",
                node=change.node,
                leader=change.leader,
                previous=change.previous,
            )
            for fn in self._listeners:
                fn(change)
