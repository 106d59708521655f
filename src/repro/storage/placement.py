"""Share-placement / retrieval-selection policies (paper Sec. 4.2).

"The flexibility to choose any k out of n nodes permits load balancing.
We can select the k nodes with the smallest load or, in the case of a
wide-area network, the k nodes that are geographically closest."
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["Placement", "FirstK", "LeastLoaded"]


class Placement:
    """Orders candidate nodes for retrieval; first k are asked first."""

    def order(self, nodes: Sequence[str]) -> list[str]:
        """Candidate nodes, best first."""
        raise NotImplementedError


class FirstK(Placement):
    """Deterministic: ask nodes in their listed order."""

    def order(self, nodes: Sequence[str]) -> list[str]:
        return list(nodes)


class LeastLoaded(Placement):
    """Ask the least-loaded nodes first.

    ``load_of`` returns the current load metric for a node (outstanding
    requests, queue depth, CPU — the caller's choice).
    """

    def __init__(self, load_of: Callable[[str], float]):
        self.load_of = load_of

    def order(self, nodes: Sequence[str]) -> list[str]:
        return sorted(nodes, key=lambda n: (self.load_of(n), n))
