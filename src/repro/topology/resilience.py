"""Partition-resistance analysis of interconnect constructions.

Quantifies the property Theorem 2.1 is about: after a set of
switch/link/node faults, how many compute nodes are cut off from the
main body of the cluster?  Following the paper, a construction "resists
partitioning" under k faults when every k-fault set leaves all but a
*constant* number of nodes in one connected component; it is
"partitioned" when the survivors split into multiple components of
non-trivial size.

``nodes_lost`` counts every compute node outside the largest surviving
component — including faulted nodes themselves, which matches the
paper's accounting (3 faults on a 10-node diameter ring lose at most 6
nodes, i.e. up to two per fault).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .graph import EdgeId, TopologyGraph

__all__ = [
    "FaultSet",
    "PartitionReport",
    "WorstCase",
    "analyze",
    "enumerate_elements",
    "fault_sets_of_size",
    "worst_case",
    "min_faults_to_partition",
]


@dataclass(frozen=True)
class FaultSet:
    """A set of simultaneously failed elements."""

    switches: frozenset[int] = frozenset()
    nodes: frozenset[int] = frozenset()
    links: frozenset[EdgeId] = frozenset()

    @property
    def size(self) -> int:
        """Total number of failed elements."""
        return len(self.switches) + len(self.nodes) + len(self.links)

    @staticmethod
    def of(*elements: tuple) -> "FaultSet":
        """Build from ("switch", j) / ("node", i) / ("link", edge_id) tags."""
        sw, nd, lk = set(), set(), set()
        for kind, ident in elements:
            if kind == "switch":
                sw.add(ident)
            elif kind == "node":
                nd.add(ident)
            elif kind == "link":
                lk.add(ident)
            else:
                raise ValueError(f"unknown element kind {kind!r}")
        return FaultSet(frozenset(sw), frozenset(nd), frozenset(lk))


@dataclass(frozen=True)
class PartitionReport:
    """Connectivity of compute nodes after a fault set.

    Two loss metrics are reported, matching the two readings of
    Theorem 2.1:

    - :attr:`nodes_lost` — nodes genuinely outside the largest surviving
      component (true connectivity loss).
    - :attr:`nodes_touched` — nodes that lost *at least one attachment*
      (attached to a failed switch or failed node-link, or failed
      themselves).  This is the accounting behind the paper's
      ``min(n, 6)`` constant: each fault touches at most two nodes, so
      three faults touch at most six (and 18 when three nodes share each
      switch pair, exactly the paper's 3n = 30 note).
    """

    total_nodes: int
    faulted_nodes: int
    component_sizes: tuple[int, ...]  # node counts, descending
    nodes_touched: int = 0

    @property
    def largest(self) -> int:
        """Size of the biggest surviving component (0 if none)."""
        return self.component_sizes[0] if self.component_sizes else 0

    @property
    def nodes_lost(self) -> int:
        """Nodes outside the largest component, faulted nodes included."""
        return self.total_nodes - self.largest

    @property
    def is_partitioned(self) -> bool:
        """True when surviving nodes split into ≥ 2 components."""
        return len(self.component_sizes) > 1


@dataclass
class WorstCase:
    """Result of sweeping fault sets of a fixed size."""

    num_faults: int
    sets_examined: int
    max_lost: int = 0
    max_touched: int = 0
    worst_faults: Optional[FaultSet] = None
    partition_found: bool = False
    partition_example: Optional[FaultSet] = None
    lost_histogram: dict[int, int] = field(default_factory=dict)
    max_split_minority: int = 0
    split_example: Optional[FaultSet] = None


class _Compiled:
    """Integer-indexed form of a TopologyGraph for fast repeated analysis."""

    def __init__(self, topo: TopologyGraph):
        self.topo = topo
        self.nn = topo.num_nodes
        self.ns = topo.num_switches
        self.nv = self.nn + self.ns
        edges: list[tuple[int, int, EdgeId]] = []
        for n, s in topo.node_links:
            edges.append((n, self.nn + s, ("ns", n, s)))
        seen: dict[tuple[int, int], int] = {}
        for a, b in topo.switch_links:
            key = (min(a, b), max(a, b))
            k = seen.get(key, 0)
            seen[key] = k + 1
            edges.append((self.nn + key[0], self.nn + key[1], ("ss", key[0], key[1], k)))
        self.edges = edges

    def components(self, faults: FaultSet) -> PartitionReport:
        """Union-find over surviving vertices/edges; node-counted components."""
        parent = list(range(self.nv))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        dead = bytearray(self.nv)
        for i in faults.nodes:
            dead[i] = 1
        for j in faults.switches:
            dead[self.nn + j] = 1
        flinks = faults.links
        for u, v, eid in self.edges:
            if dead[u] or dead[v] or (flinks and eid in flinks):
                continue
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        counts: dict[int, int] = {}
        for i in range(self.nn):
            if dead[i]:
                continue
            r = find(i)
            counts[r] = counts.get(r, 0) + 1
        sizes = tuple(sorted(counts.values(), reverse=True))
        touched = set(faults.nodes)
        for n, s in self.topo.node_links:
            if s in faults.switches or ("ns", n, s) in faults.links:
                touched.add(n)
        return PartitionReport(
            total_nodes=self.nn,
            faulted_nodes=len(faults.nodes),
            component_sizes=sizes,
            nodes_touched=len(touched),
        )


_compile_cache: dict[int, _Compiled] = {}


def _compiled(topo: TopologyGraph) -> _Compiled:
    comp = _compile_cache.get(id(topo))
    if comp is None or comp.topo is not topo:
        comp = _Compiled(topo)
        _compile_cache[id(topo)] = comp
    return comp


def analyze(topo: TopologyGraph, faults: Optional[FaultSet] = None) -> PartitionReport:  # rainlint: disable=RL013 -- Thm 2.1's partition bound, asserted by tier-1
    """Connectivity report for ``topo`` under ``faults``."""
    return _compiled(topo).components(faults if faults is not None else FaultSet())


def enumerate_elements(
    topo: TopologyGraph, kinds: Sequence[str] = ("switch", "node", "link")
) -> list[tuple]:
    """All failable elements of the requested kinds, as tagged tuples."""
    out: list[tuple] = []
    if "switch" in kinds:
        out.extend(("switch", j) for j in range(topo.num_switches))
    if "node" in kinds:
        out.extend(("node", i) for i in range(topo.num_nodes))
    if "link" in kinds:
        out.extend(("link", eid) for eid in topo.edge_ids())
    return out


def fault_sets_of_size(
    topo: TopologyGraph,
    k: int,
    kinds: Sequence[str] = ("switch", "node", "link"),
    sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[FaultSet]:
    """Yield k-element fault sets — exhaustively, or ``sample`` random ones."""
    elements = enumerate_elements(topo, kinds)
    if k > len(elements):
        return
    if sample is None:
        for combo in itertools.combinations(elements, k):
            yield FaultSet.of(*combo)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        n = len(elements)
        for _ in range(sample):
            idx = rng.choice(n, size=k, replace=False)
            yield FaultSet.of(*(elements[i] for i in idx))


def worst_case(
    topo: TopologyGraph,
    num_faults: int,
    kinds: Sequence[str] = ("switch", "node", "link"),
    sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> WorstCase:
    """Sweep fault sets of size ``num_faults``; report the worst node loss.

    With ``sample=None`` the sweep is exhaustive (use small topologies or
    restrict ``kinds``); otherwise ``sample`` random fault sets are
    drawn.  ``lost_histogram`` maps nodes-lost to how many fault sets
    produced that loss, giving the loss distribution for free.
    """
    comp = _compiled(topo)
    result = WorstCase(num_faults=num_faults, sets_examined=0)
    for faults in fault_sets_of_size(topo, num_faults, kinds, sample, rng):
        report = comp.components(faults)
        result.sets_examined += 1
        lost = report.nodes_lost
        result.lost_histogram[lost] = result.lost_histogram.get(lost, 0) + 1
        if lost > result.max_lost:
            result.max_lost = lost
            result.worst_faults = faults
        if report.nodes_touched > result.max_touched:
            result.max_touched = report.nodes_touched
        if report.is_partitioned:
            if not result.partition_found:
                result.partition_found = True
                result.partition_example = faults
            minority = report.component_sizes[1]
            if minority > result.max_split_minority:
                result.max_split_minority = minority
                result.split_example = faults
    return result


def min_faults_to_partition(  # rainlint: disable=RL013 -- Thm 2.1's partition bound, asserted by tier-1
    topo: TopologyGraph,
    kinds: Sequence[str] = ("switch",),
    max_faults: int = 6,
) -> Optional[int]:
    """Smallest k (≤ ``max_faults``) whose worst k-fault set partitions
    the surviving nodes into ≥ 2 components, or None if none found."""
    for k in range(1, max_faults + 1):
        result = worst_case(topo, k, kinds=kinds)
        if result.partition_found:
            return k
    return None
