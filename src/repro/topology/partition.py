"""Shard partitioning of a topology for parallel simulation.

The conservative sharded simulator (:mod:`repro.sim.shard`) advances
shards in windows of length *lookahead* = the minimum latency of any
link crossing a shard boundary.  The partitioner's job is therefore a
min-cut problem in disguise: assign switches (and the nodes riding on
them) to shards so that the *slowest-crossing* boundary is as slow as
possible — maximizing lookahead maximizes how far shards run between
barriers.

For the ring-family constructions of Sec. 2.1 the natural partition is
**contiguous arcs** of the switch ring: an arc cut crosses exactly two
ring cables (plus whatever diameter attachments span it), and rotating
the arc pattern around the ring searches all contiguous cuts for the
one whose cheapest boundary edge is most expensive.  Compute nodes
follow their *primary* switch (the first one they attach to), which
keeps each node's full protocol stack — and every event it originates —
inside a single shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .graph import EdgeId, TopologyGraph

__all__ = ["LayoutError", "Partition", "partition_topology"]


class LayoutError(ValueError):
    """A shard count the topology cannot be cut into.

    Its own class because the count is outside input (``--shards``):
    the CLI reports it in one line instead of a traceback.
    """


@dataclass(frozen=True)
class Partition:
    """A shard assignment of one :class:`TopologyGraph`.

    ``switch_shard[j]`` / ``node_shard[i]`` give each element's shard
    rank; ``lookahead`` is the minimum latency over boundary edges
    (``None`` when ``shards == 1`` — no boundaries, no barriers);
    ``boundary_edges`` lists the crossing edges for inspection.
    """

    shards: int
    switch_shard: tuple[int, ...]
    node_shard: tuple[int, ...]
    lookahead: Optional[float]
    boundary_edges: tuple[EdgeId, ...]

    def owner_map(
        self, node_name: Callable[[int], str], switch_name: Callable[[int], str]
    ) -> dict:
        """Element name -> shard rank, as the sharded network expects."""
        owner = {switch_name(j): s for j, s in enumerate(self.switch_shard)}
        owner.update({node_name(i): s for i, s in enumerate(self.node_shard)})
        return owner


def _primary_switches(topo: TopologyGraph) -> list[int]:
    primary: dict[int, int] = {}
    for n, s in topo.node_links:
        primary.setdefault(n, s)
    missing = [i for i in range(topo.num_nodes) if i not in primary]
    if missing:
        raise ValueError(f"nodes without switch attachments: {missing}")
    return [primary[i] for i in range(topo.num_nodes)]


def _boundaries(
    topo: TopologyGraph,
    switch_shard: list[int],
    node_shard: list[int],
) -> list[EdgeId]:
    out: list[EdgeId] = []
    for n, s in topo.node_links:
        if node_shard[n] != switch_shard[s]:
            out.append(("ns", n, s))
    seen: dict[tuple[int, int], int] = {}
    for a, b in topo.switch_links:
        key = (min(a, b), max(a, b))
        k = seen.get(key, 0)
        seen[key] = k + 1
        if switch_shard[a] != switch_shard[b]:
            out.append(("ss", key[0], key[1], k))
    return out


def partition_topology(
    topo: TopologyGraph,
    shards: int,
    latency_fn: Optional[Callable[[EdgeId], float]] = None,
    default_latency_s: float = 50e-6,
) -> Partition:
    """Assign ``topo``'s elements to ``shards`` contiguous switch arcs.

    ``latency_fn`` maps an edge id to its link latency (defaults to the
    uniform ``default_latency_s``).  With non-uniform latencies every
    rotation of the arc pattern is scored and the one maximizing
    ``(min boundary latency, -boundary count)`` wins; uniform latencies
    skip the search (all rotations tie on the metric that matters).

    Raises :class:`LayoutError` for ``shards`` outside ``[1,
    num_switches]`` and ``ValueError`` — at partition time, before any
    simulation starts — for any boundary edge with non-positive latency,
    which would force a zero lookahead and stall the conservative window
    protocol.
    """
    if shards < 1:
        raise LayoutError(f"shards must be >= 1, got {shards}")
    if shards > topo.num_switches:
        raise LayoutError(
            f"cannot cut {topo.num_switches} switches into {shards} shards"
        )
    primary = _primary_switches(topo)
    n = topo.num_switches

    def layout(rotation: int) -> tuple[list[int], list[int]]:
        sw = [((j + rotation) % n) * shards // n for j in range(n)]
        nd = [sw[primary[i]] for i in range(topo.num_nodes)]
        return sw, nd

    if shards == 1:
        sw, nd = layout(0)
        return Partition(1, tuple(sw), tuple(nd), None, ())

    lat = latency_fn if latency_fn is not None else (lambda eid: default_latency_s)
    rotations = range(n) if latency_fn is not None else range(1)
    best = None
    for rot in rotations:
        sw, nd = layout(rot)
        edges = _boundaries(topo, sw, nd)
        lookahead = min(lat(e) for e in edges)
        score = (lookahead, -len(edges))
        if best is None or score > best[0]:
            best = (score, sw, nd, edges, lookahead)
    _, sw, nd, edges, lookahead = best
    if lookahead <= 0.0:
        zero = [e for e in edges if lat(e) <= 0.0]
        raise ValueError(
            f"zero-latency boundary links {zero[:4]} make conservative "
            "sharding impossible: every shard boundary needs positive "
            "link latency (the lookahead window)"
        )
    return Partition(shards, tuple(sw), tuple(nd), lookahead, tuple(edges))
