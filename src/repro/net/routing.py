"""Shortest-path routing over the live switch fabric.

Switch fabrics like Myrinet use source routing computed from the current
topology map.  Hosts never forward (a packet cannot transit a host to
reach another), so every interior vertex of a path is a switch: a route
is ``[source NIC's cable] + switch-to-switch cables + [destination
NIC's cable]``, and only the middle part needs a graph search.

**Trees.**  A tree is one BFS over *switches only*, started from an
ordered tuple of seed switches (the usable switches a source NIC's up
cables reach, in ``nic.links`` order) and expanded along up
switch–switch cables in ``switch.links`` order.  It records, per
reached switch, its visit rank and the cable and switch it was first
reached from.  Every NIC with the same seeds — all the NICs hung off
one switch, typically — shares the tree.

**The claim rule.**  A cable straight from source to destination wins
outright (the source's first such up cable).  Otherwise the destination
is claimed by the *earliest-visited* switch that has an up cable to it,
and by that switch's earliest such cable; the path is that cable, the
tree's parent walk back to a seed, and the source's first up cable to
that seed.  This is link-for-link what a BFS from the source NIC over
the whole device graph returns (``tests/test_net_routing_multihop.py``
keeps that BFS as its oracle).

**Invalidation.**  Trees hold only switches and switch–switch cables,
so they are dropped when the network's *fabric* version moves (cabling,
link flips, switch flips) — not on host or NIC flips, which
:meth:`Router.path` sees through its own endpoint checks on every call.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from .link import Link
from .nic import Nic
from .switch import Switch

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

__all__ = ["Router"]

#: switch -> (visit rank, cable it was first reached over, switch on the
#: far side of that cable); a seed has no cable and points at itself.
_Tree = dict[Switch, tuple[int, Optional[Link], Switch]]


class Router:
    """Computes link-level paths between NICs over cached switch trees."""

    def __init__(self, network: "Network"):
        self.network = network
        self._version = -1
        # switch -> [(cable, far switch)] for its switch–switch cables,
        # in ``switch.links`` order; filled per switch on first expansion
        self._adjacency: dict[Switch, list[tuple[Link, Switch]]] = {}
        # ordered seed switches -> tree
        self._trees: dict[tuple[Switch, ...], _Tree] = {}

    def path(self, src: Nic, dst: Nic) -> Optional[list[Link]]:
        """Links from ``src`` to ``dst``, or None if unreachable.

        Endpoints must be usable NICs; interior hops must be usable
        switches joined by up links.
        """
        if src is dst:
            return []
        if not (src.usable and src.connected and dst.usable and dst.connected):
            return None
        seeds: dict[Switch, Link] = {}  # seed -> src's first up cable to it
        for link in src.links:
            if not link.up:
                continue
            nxt = link.other(src)
            if nxt is dst:
                return [link]
            if isinstance(nxt, Switch) and nxt.up and nxt not in seeds:
                seeds[nxt] = link
        if not seeds:
            return None
        if self._version != self.network.fabric_version:
            self._adjacency.clear()
            self._trees.clear()
            self._version = self.network.fabric_version
        key = tuple(seeds)
        tree = self._trees.get(key)
        if tree is None:
            tree = self._trees[key] = self._bfs(key)
        # Cables joining one (NIC, switch) pair sit in the same relative
        # order on both devices, so the first hit at a rank in
        # ``dst.links`` order is that switch's earliest cable too.
        claim = None
        for link in dst.links:
            if link.up:
                entry = tree.get(link.other(dst))
                if entry is not None and (claim is None or entry[0] < claim[0]):
                    last, claim = link, entry
        if claim is None:
            return None
        path = [last]
        _rank, cable, switch = claim
        while cable is not None:
            path.append(cable)
            _rank, cable, switch = tree[switch]
        path.append(seeds[switch])
        path.reverse()
        return path

    def _bfs(self, seeds: tuple[Switch, ...]) -> _Tree:
        """Breadth-first tree over usable switches from ``seeds``."""
        tree: _Tree = {switch: (rank, None, switch) for rank, switch in enumerate(seeds)}
        adjacency = self._adjacency
        frontier = deque(seeds)
        while frontier:
            switch = frontier.popleft()
            cables = adjacency.get(switch)
            if cables is None:
                cables = adjacency[switch] = [
                    (link, far)
                    for link in switch.links
                    if isinstance(far := link.other(switch), Switch)
                ]
            for link, nxt in cables:
                if link.up and nxt.up and nxt not in tree:
                    tree[nxt] = (len(tree), link, switch)
                    frontier.append(nxt)
        return tree

    def reachable(self, src: Nic, dst: Nic) -> bool:
        """Whether a live path currently exists."""
        return self.path(src, dst) is not None
