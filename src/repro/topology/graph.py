"""Static graph model of a compute-node/switch interconnect.

Section 2.1 of the paper asks: *given n switches of degree ds connected
in a ring, how should n compute nodes of degree dc attach so that switch
failures cannot partition the compute nodes?*  Answering it requires
analyzing many fault combinations, which is far cheaper on a static
graph than on the live simulated network — so constructions are
expressed as :class:`TopologyGraph` values, analyzed in
:mod:`repro.topology.resilience`, and only *instantiated* as a live
:class:`repro.net.Network` when a protocol experiment needs traffic.

Vertices are ``("n", i)`` for compute node *i* and ``("s", j)`` for
switch *j*.  Edges carry enough identity to be failed individually.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["TopologyGraph", "Vertex", "EdgeId", "node_v", "switch_v"]

Vertex = Tuple[str, int]
#: Edge identity: ("ns", node, switch) or ("ss", lo_switch, hi_switch, k)
#: where k disambiguates parallel switch-switch cables.
EdgeId = tuple


def node_v(i: int) -> Vertex:
    """Vertex label for compute node ``i``."""
    return ("n", i)


def switch_v(j: int) -> Vertex:
    """Vertex label for switch ``j``."""
    return ("s", j)


@dataclass
class TopologyGraph:
    """An attachment of compute nodes to a switch network.

    ``node_links`` holds (node, switch) pairs; ``switch_links`` holds
    (switch, switch) pairs (parallel cables allowed).  Degrees are
    implied; :meth:`validate` checks them against declared bounds.
    """

    name: str
    num_nodes: int
    num_switches: int
    node_links: list[tuple[int, int]] = field(default_factory=list)
    switch_links: list[tuple[int, int]] = field(default_factory=list)
    node_degree: Optional[int] = None
    switch_degree: Optional[int] = None

    # -- construction helpers ------------------------------------------------

    def connect_node(self, node: int, switch: int) -> None:
        """Cable compute node ``node`` to switch ``switch``."""
        if not (0 <= node < self.num_nodes and 0 <= switch < self.num_switches):
            raise ValueError(f"out of range: node {node}, switch {switch}")
        self.node_links.append((node, switch))

    def connect_switches(self, a: int, b: int) -> None:
        """Cable switch ``a`` to switch ``b``."""
        if not (0 <= a < self.num_switches and 0 <= b < self.num_switches):
            raise ValueError(f"switch out of range: {a}, {b}")
        if a == b:
            raise ValueError("switch self-loop")
        self.switch_links.append((a, b))

    # -- edge identities --------------------------------------------------

    def edge_ids(self) -> list[EdgeId]:
        """Stable identities for every edge (for link-fault enumeration)."""
        ids: list[EdgeId] = [("ns", n, s) for (n, s) in self.node_links]
        seen: dict[tuple[int, int], int] = {}
        for a, b in self.switch_links:
            key = (min(a, b), max(a, b))
            k = seen.get(key, 0)
            seen[key] = k + 1
            ids.append(("ss", key[0], key[1], k))
        return ids

    # -- structure queries ---------------------------------------------------

    def adjacency(self) -> dict[Vertex, list[tuple[Vertex, EdgeId]]]:
        """Vertex adjacency with edge identities."""
        adj: dict[Vertex, list[tuple[Vertex, EdgeId]]] = {}
        for i in range(self.num_nodes):
            adj[node_v(i)] = []
        for j in range(self.num_switches):
            adj[switch_v(j)] = []
        for n, s in self.node_links:
            eid: EdgeId = ("ns", n, s)
            adj[node_v(n)].append((switch_v(s), eid))
            adj[switch_v(s)].append((node_v(n), eid))
        seen: dict[tuple[int, int], int] = {}
        for a, b in self.switch_links:
            key = (min(a, b), max(a, b))
            k = seen.get(key, 0)
            seen[key] = k + 1
            eid = ("ss", key[0], key[1], k)
            adj[switch_v(a)].append((switch_v(b), eid))
            adj[switch_v(b)].append((switch_v(a), eid))
        return adj

    def degrees(self) -> tuple[dict[int, int], dict[int, int]]:
        """(node degree map, switch degree map)."""
        nd = {i: 0 for i in range(self.num_nodes)}
        sd = {j: 0 for j in range(self.num_switches)}
        for n, s in self.node_links:
            nd[n] += 1
            sd[s] += 1
        for a, b in self.switch_links:
            sd[a] += 1
            sd[b] += 1
        return nd, sd

    def validate(self) -> None:  # rainlint: disable=RL013 -- safety check on a built graph
        """Check declared degree bounds; raises ``ValueError`` on violation."""
        nd, sd = self.degrees()
        if self.node_degree is not None:
            bad = {i: d for i, d in nd.items() if d != self.node_degree}
            if bad:
                raise ValueError(f"{self.name}: node degree violations {bad}")
        if self.switch_degree is not None:
            bad = {j: d for j, d in sd.items() if d > self.switch_degree}
            if bad:
                raise ValueError(f"{self.name}: switch degree violations {bad}")

    def node_switch_pairs(self) -> dict[int, tuple[int, ...]]:
        """For each node, the sorted tuple of switches it attaches to."""
        pairs: dict[int, list[int]] = {i: [] for i in range(self.num_nodes)}
        for n, s in self.node_links:
            pairs[n].append(s)
        return {i: tuple(sorted(v)) for i, v in pairs.items()}

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.num_nodes} nodes, {self.num_switches} switches, "
            f"{len(self.node_links)} node-links, {len(self.switch_links)} switch-links"
        )
