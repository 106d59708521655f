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
) -> list[MembershipNode]:
    """Create a fresh RUDP transport and a bootstrapped membership node
    on every host; the first host holds the token.  A transport opens
    its connection to a peer on first use (send or receive)."""
    config = config if config is not None else MembershipConfig()
    names = tuple(h.name for h in hosts)  # one ring shared by every node
    members = frozenset(names)  # and one member set shared by every transport
    transports = [RudpTransport(h, rudp_config, members=members) for h in hosts]
    nodes = [MembershipNode(h, tp, config) for h, tp in zip(hosts, transports)]
    for i, node in enumerate(nodes):
        node.bootstrap(names, first_holder=(i == 0))
    return nodes


def membership_converged(nodes: Sequence[MembershipNode], expected: Sequence[str]) -> bool:
    """True when every live listed node's view equals ``expected`` (as a set)."""
    want = set(expected)
    return all(
        set(n.membership) == want for n in nodes if n.host.up and n.name in want
    )
