"""Checkpointing RUDP communication state (paper Sec. 2.5).

One of the paper's arguments for a user-space transport: *"all program
state exists entirely in the running process ... if a system running
RUDP has a checkpointing library, the program state (including the
state of all communications) can be transparently saved without having
to first synchronize all messaging."*

This module realizes that claim: :func:`freeze` captures the complete
state of a transport's reliable channels (sequence numbers, send
buffers, reorder buffers); :func:`thaw` reinstates it — onto the same
node after a reboot, or a replacement.  Because the receiver's
cumulative-ACK state deduplicates anything transmitted after the
snapshot, a process restored from a coordinated checkpoint resumes its
conversations exactly-once with no message loss and no resynchronization
protocol — the property RAINCheck-style rollback depends on.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..channel import ReliableEndpoint
from .transport import RudpTransport

__all__ = ["freeze", "thaw", "EndpointState", "TransportState"]


@dataclass
class EndpointState:
    """Serializable state of one reliable channel endpoint."""

    next_seq: int
    send_base: int
    unsent: list[tuple[Any, int, Any]]  # (msg, size, ctx)
    inflight: dict[int, tuple[Any, int, Any]]
    recv_cum: int
    ooo: dict[int, tuple[Any, int, Any]]


@dataclass
class TransportState:
    """Serializable state of a whole RUDP transport."""

    host: str
    connections: dict[str, EndpointState] = field(default_factory=dict)
    paths: dict[str, list] = field(default_factory=dict)
    policies: dict[str, str] = field(default_factory=dict)


def _freeze_endpoint(ep: ReliableEndpoint) -> EndpointState:
    return EndpointState(
        next_seq=ep.next_seq,
        send_base=ep.send_base,
        unsent=copy.deepcopy(list(ep._unsent or ())),
        inflight=copy.deepcopy(ep._inflight),
        recv_cum=ep.recv_cum,
        ooo=copy.deepcopy(ep._ooo),
    )


def _thaw_endpoint(ep: ReliableEndpoint, st: EndpointState) -> None:
    ep.next_seq = st.next_seq
    ep.send_base = st.send_base
    ep._unsent = deque(copy.deepcopy(st.unsent)) or None
    ep._inflight = copy.deepcopy(st.inflight)
    ep.recv_cum = st.recv_cum
    ep._ooo = copy.deepcopy(st.ooo)
    ep._backoff = 1
    if ep._timer is not None:
        ep._timer.cancel()
        ep._timer = None
    # resume delivery attempts for anything unacknowledged
    for seq in sorted(ep._inflight):
        msg, size, ctx = ep._inflight[seq]
        ep._emit(seq, msg, size, ctx)
    ep._arm_timer()
    ep._pump()


def freeze(transport: RudpTransport) -> TransportState:
    """Capture the communication state of every connection.

    Purely local and instantaneous (no message exchange) — the whole
    point of keeping reliability state out of the kernel.
    """
    state = TransportState(host=transport.host.name)
    for peer, conn in transport.connections.items():
        state.connections[peer] = _freeze_endpoint(conn.endpoint)
        state.paths[peer] = list(conn.bundle.paths)
        state.policies[peer] = conn.bundle.policy
    return state


def thaw(transport: RudpTransport, state: TransportState) -> None:
    """Reinstate a frozen communication state onto ``transport``.

    Connections present in the snapshot are (re)created with their
    recorded paths and channel state; in-flight data is retransmitted
    immediately and the peers' cumulative ACKs discard anything they
    already received — conversations resume exactly-once.
    """
    if transport.host.name != state.host:
        raise ValueError(
            f"snapshot belongs to {state.host!r}, not {transport.host.name!r}"
        )
    for peer, ep_state in state.connections.items():
        conn = transport.connect(
            peer, paths=state.paths.get(peer), policy=state.policies.get(peer)
        )
        _thaw_endpoint(conn.endpoint, ep_state)
