"""Leader election over group membership (paper ref. [29])."""

from .protocol import LeaderChange, LeaderElection

__all__ = [
    "LeaderChange",
    "LeaderElection",
]
