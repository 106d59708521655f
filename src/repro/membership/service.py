"""Cluster-level convenience for standing up membership on many hosts."""

from __future__ import annotations

from typing import Optional, Sequence

from ..net import Host
from ..rudp import RudpConfig, RudpTransport
from .config import MembershipConfig
from .protocol import MembershipNode

__all__ = ["build_membership", "membership_converged"]


def build_membership(
    hosts: Sequence[Host],
    config: Optional[MembershipConfig] = None,
    rudp_config: Optional[RudpConfig] = None,
    paths: Sequence[tuple[int, int]] = ((0, 0),),
    transports: Optional[Sequence[RudpTransport]] = None,
    first_holder: int = 0,
) -> list[MembershipNode]:
    """Create and bootstrap a membership node on every host.

    Existing ``transports`` may be passed when other services (MPI,
    storage) share them; otherwise fresh RUDP transports are created and
    fully connected over ``paths``.
    """
    config = config if config is not None else MembershipConfig()
    rudp_config = rudp_config if rudp_config is not None else RudpConfig()
    if transports is None:
        transports = [RudpTransport(h, rudp_config) for h in hosts]
        for tp in transports:
            for peer in hosts:
                if peer.name != tp.host.name:
                    tp.connect(peer.name, paths=paths)
    names = tuple(h.name for h in hosts)  # one ring shared by every node
    nodes = [
        MembershipNode(h, tp, config) for h, tp in zip(hosts, transports)
    ]
    for i, node in enumerate(nodes):
        node.bootstrap(names, first_holder=(i == first_holder))
    return nodes


def membership_converged(nodes: Sequence[MembershipNode], expected: Sequence[str]) -> bool:
    """True when every live listed node's view equals ``expected`` (as a set)."""
    want = set(expected)
    return all(
        set(n.membership) == want for n in nodes if n.host.up and n.name in want
    )
