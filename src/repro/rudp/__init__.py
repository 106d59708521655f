"""RUDP: reliable datagrams over bundled interfaces (paper Sec. 2.5)."""

from .bundle import Path, PathBundle, UNPINNED
from .transport import RUDP_PORT, RudpConfig, RudpConnection, RudpTransport

__all__ = [
    "RUDP_PORT",
    "Path",
    "UNPINNED",
    "PathBundle",
    "RudpConfig",
    "RudpConnection",
    "RudpTransport",
]
