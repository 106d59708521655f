"""SNOW — Strong Network Of Web servers (paper Sec. 5.2).

A fault-tolerant web cluster built directly on the RAIN building blocks:
RUDP carries all messages, the token-ring membership defines the serving
set, and the shared HTTP request queue rides the membership token — so
the holder of the token, and only the holder, dequeues and answers
requests.  That is the paper's exactly-once guarantee: "when a request
is received by SNOW, one — and only one — server will reply", without
any external load balancer (the contrast drawn with Cisco LocalDirector).

Clients may spray a request at several servers (e.g. retries); every
receiving server enqueues it, but the token queue is deduplicated by
request id and an id is dequeued exactly once, cluster-wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

from ..membership import MembershipNode, Token
from ..net import Host
from ..rudp import RudpTransport
from ..sim import Signal, Simulator

__all__ = ["SnowServer", "SnowClient", "SNOW_SERVICE"]

#: RUDP service name for SNOW HTTP traffic.
SNOW_SERVICE = "snow"

_QUEUE_KEY = "snow.queue"  # token attachment: list of pending request records
_SERVED_KEY = "snow.served"  # token attachment: recently served ids, oldest first


@dataclass(frozen=True)
class _Request:
    req_id: str
    client: str
    path: str


class SnowServer:
    """One web-server node of the SNOW cluster."""

    def __init__(
        self,
        host: Host,
        transport: RudpTransport,
        membership: MembershipNode,
        service_time: float = 0.005,
        batch: int = 16,
        served_memory: int = 4096,
    ):
        self.host = host
        self.sim: Simulator = host.sim
        self.transport = transport
        self.membership = membership
        self.service_time = service_time
        self.batch = batch
        self.served_memory = served_memory
        self._inbox: list[_Request] = []  # received, not yet on the token
        self.served: list[_Request] = []  # what *this* node answered
        self._f_served = self.sim.obs.metrics.counter(
            "apps.snow.served", help="requests answered by this server"
        )
        self._m_served = None  # bound on the first reply
        transport.register(SNOW_SERVICE, self._on_msg)
        membership.on_hold(self._on_token)

    # -- request ingress -----------------------------------------------------

    def _on_msg(self, src: str, msg: tuple) -> None:
        if not self.host.up:
            return
        kind, req_id, path = msg
        if kind == "GET":
            self._inbox.append(_Request(req_id=req_id, client=src, path=path))

    # -- the token hook: the mutual-exclusion zone ----------------------------

    def _on_token(self, token: Token) -> None:
        attachments = token.attachments
        queue: list[_Request] = list(attachments.get(_QUEUE_KEY, ()))
        # Earlier token copies (local_copy, copies in flight) share the
        # record: read it here, and write only into a private copy.
        served: dict[str, None] = attachments.get(_SERVED_KEY, {})
        queued_ids = {r.req_id for r in queue}
        # merge locally received requests into the global queue (dedup)
        for req in self._inbox:
            if req.req_id not in served and req.req_id not in queued_ids:
                queue.append(req)
                queued_ids.add(req.req_id)
        self._inbox.clear()
        # serve up to `batch` requests — we hold the token, so nobody
        # else is serving these ids concurrently
        to_serve, queue = queue[: self.batch], queue[self.batch :]
        if to_serve or len(served) > self.served_memory:
            served = served.copy()
            for req in to_serve:
                self._reply(req)
                served[req.req_id] = None
            # forget the oldest ids past the limit (insertion order)
            for req_id in list(islice(served, max(0, len(served) - self.served_memory))):
                del served[req_id]
        attachments[_QUEUE_KEY] = tuple(queue)
        attachments[_SERVED_KEY] = served

    def _reply(self, req: _Request) -> None:
        self.served.append(req)
        if self._m_served is None:
            self._m_served = self._f_served.labels(node=self.host.name)
        self._m_served.inc()
        body = f"<html>{req.path} served by {self.host.name}</html>"
        self.transport.send(
            req.client,
            SNOW_SERVICE + ".client",
            ("RESPONSE", req.req_id, self.host.name, body),
            size_bytes=len(body),
        )


class SnowClient:
    """A web client issuing requests to the SNOW cluster."""

    def __init__(self, host: Host, transport: RudpTransport):
        self.host = host
        self.sim: Simulator = host.sim
        self.transport = transport
        self.responses: dict[str, list[tuple[float, str]]] = {}
        self._waiters: dict[str, Signal] = {}
        self._counter = 0
        self._f_latency = self.sim.obs.metrics.histogram(
            "apps.snow.request_latency", help="simulated seconds to first response"
        )
        self._m_latency = None  # bound on the first answered request
        transport.register(SNOW_SERVICE + ".client", self._on_msg)

    def _on_msg(self, src: str, msg: tuple) -> None:
        kind, req_id, server, body = msg
        if kind != "RESPONSE":
            return
        self.responses.setdefault(req_id, []).append((self.sim.now, server))
        sig = self._waiters.pop(req_id, None)
        if sig is not None and not sig.triggered:
            sig.succeed(server)

    def send_request(self, servers: list[str], path: str = "/") -> str:
        """Fire one GET at the given servers (spraying models retries);
        returns the request id."""
        self._counter += 1
        req_id = f"{self.host.name}-{self._counter}"
        for server in servers:
            self.transport.send(server, SNOW_SERVICE, ("GET", req_id, path), size_bytes=96)
        return req_id

    def request(self, servers: list[str], path: str = "/", timeout: Optional[float] = None):
        """Generator: send and wait for the (first) response.

        Returns (req_id, serving_server) or (req_id, None) on timeout.
        """
        t0 = self.sim.now
        req_id = self.send_request(servers, path)
        sig = Signal(self.sim)
        self._waiters[req_id] = sig
        if timeout is None:
            server = yield sig
        else:
            fired = yield self.sim.any_of([sig, self.sim.timeout(timeout)])
            if fired is not sig:
                self._waiters.pop(req_id, None)
                return req_id, None
            server = sig.value
        if self._m_latency is None:
            self._m_latency = self._f_latency.labels(client=self.host.name)
        self._m_latency.observe(self.sim.now - t0)
        return req_id, server

    def reply_counts(self) -> dict[str, int]:
        """Replies received per request id (exactly-once means all 1s)."""
        return {rid: len(rs) for rid, rs in self.responses.items()}
