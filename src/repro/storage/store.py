"""Distributed store/retrieve operations (paper Sec. 4.2).

A *store* encodes a block into n symbols with an (n, k) MDS code and
places one symbol per node; a *retrieve* collects symbols from any k
reachable nodes and decodes.  The data survives up to n − k node
failures, nodes can be hot-swapped, and retrieval choice enables load
balancing — the properties RAINVideo and RAINCheck build on.

Two classes: :class:`StorageNode` is the per-node symbol server;
:class:`DistributedStore` is the client-side operation engine (several
clients may target the same server set).  Both ride RUDP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..codes import DecodeError, ErasureCode
from ..net import Host
from ..rudp import RudpTransport
from ..sim import Signal, Simulator
from .placement import FirstK, Placement

__all__ = ["StorageNode", "DistributedStore", "StoreResult", "RetrieveError", "STORAGE_SERVICE"]

#: RUDP service name carrying storage traffic.
STORAGE_SERVICE = "storage"

#: seconds a client waits for each node's reply
REQUEST_TIMEOUT = 1.0

_req_ids = itertools.count(1)


class RetrieveError(Exception):
    """Raised when fewer than k symbols could be collected."""


@dataclass
class StoreResult:
    """Outcome of a distributed store."""

    object_id: str
    acked: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when every node holds its symbol."""
        return not self.missing


class _Op:
    """One store or retrieve in flight: its outstanding requests, the
    replies not yet taken, and the one :class:`Signal` its process waits
    on.  A reply or the deadline wakes the process once, however many
    arrive before it runs."""

    __slots__ = ("sim", "reqs", "inbox", "expired", "_wake", "_deadline")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.reqs: dict[int, str] = {}  # request id -> node, while awaited
        self.inbox: list[tuple[str, tuple]] = []  # (node, reply)
        self.expired = False
        self._wake: Optional[Signal] = None
        self._deadline = None

    def post(self, req: int, msg: tuple) -> None:
        self.inbox.append((self.reqs.pop(req), msg))
        self._poke()

    def arm(self, delay: float) -> None:
        """(Re)start the deadline ``delay`` seconds from now."""
        self.disarm()
        self._deadline = self.sim.call_in(delay, self._expire)

    def disarm(self) -> None:
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None

    def _expire(self) -> None:
        self._deadline = None
        self.expired = True
        self._poke()

    def _poke(self) -> None:
        wake = self._wake
        if wake is not None and not wake.triggered:
            wake.succeed()

    def wait(self) -> Signal:
        """The signal to yield: fires on the next reply or the deadline."""
        wake = self._wake = Signal(self.sim)
        if self.inbox or self.expired:
            wake.succeed()
        return wake

    def take(self) -> tuple[list[tuple[str, tuple]], bool]:
        """The replies since the last take, and whether the deadline hit."""
        inbox, self.inbox = self.inbox, []
        expired, self.expired = self.expired, False
        return inbox, expired


class StorageNode:
    """Per-node symbol server: holds one symbol per object."""

    def __init__(self, host: Host, transport: RudpTransport):
        self.host = host
        self.transport = transport
        # id -> (idx, share, data_len, digest): every symbol carries a
        # checksum so disk bit rot is detected at read time — a corrupt
        # symbol is reported as a miss (and discarded), never served, so
        # retrieval decodes around it.
        self.symbols: dict[str, tuple[int, bytes, int, bytes]] = {}
        self.gets_served = 0
        self.corruptions_detected = 0
        metrics = host.sim.obs.metrics
        self._f_puts = metrics.counter("storage.node.puts", help="symbols written")
        self._f_gets = metrics.counter(
            "storage.node.gets", help="symbol reads served (hit or miss)"
        )
        self._f_corruptions = metrics.counter(
            "storage.node.corruptions", help="checksum failures detected at read"
        )
        # This node's series of each family, bound on first observation.
        self._m_puts = self._m_gets = self._m_corruptions = None
        transport.register(STORAGE_SERVICE, self._on_msg)

    @staticmethod
    def _digest(share: bytes) -> bytes:
        import hashlib

        return hashlib.sha256(share).digest()[:8]

    def _on_msg(self, src: str, msg: tuple) -> None:
        if not self.host.up:
            return
        kind = msg[0]
        reply_service = STORAGE_SERVICE + ".client"
        if kind == "PUT":
            _, req, object_id, idx, share, data_len = msg
            self.symbols[object_id] = (idx, share, data_len, self._digest(share))
            if self._m_puts is None:
                self._m_puts = self._f_puts.labels(node=self.host.name)
            self._m_puts.inc()
            self.transport.send(src, reply_service, ("PUT_ACK", req, object_id))
        elif kind == "GET":
            _, req, object_id = msg
            held = self.symbols.get(object_id)
            self.gets_served += 1
            if self._m_gets is None:
                self._m_gets = self._f_gets.labels(node=self.host.name)
            self._m_gets.inc()
            if held is None:
                self.transport.send(src, reply_service, ("GET_MISS", req, object_id))
                return
            idx, share, data_len, digest = held
            if self._digest(share) != digest:
                # bit rot: treat as lost, never serve corrupt data
                self.corruptions_detected += 1
                if self._m_corruptions is None:
                    self._m_corruptions = self._f_corruptions.labels(node=self.host.name)
                self._m_corruptions.inc()
                del self.symbols[object_id]
                self.transport.send(src, reply_service, ("GET_MISS", req, object_id))
                return
            self.transport.send(
                src,
                reply_service,
                ("GET_OK", req, object_id, idx, share, data_len),
                size_bytes=len(share),
            )
        elif kind == "DROP":
            _, req, object_id = msg
            self.symbols.pop(object_id, None)


class DistributedStore:
    """Client-side distributed store/retrieve engine."""

    def __init__(
        self,
        host: Host,
        transport: RudpTransport,
        nodes: Sequence[str],
        code: ErasureCode,
        placement: Optional[Placement] = None,
    ):
        if len(nodes) != code.n:
            raise ValueError(
                f"{code.name} produces {code.n} symbols but {len(nodes)} nodes given"
            )
        self.host = host
        self.sim: Simulator = host.sim
        self.transport = transport
        self.nodes = list(nodes)
        self.code = code
        self.placement = placement or FirstK()
        self.outstanding: dict[str, int] = {n: 0 for n in nodes}
        metrics = self.sim.obs.metrics
        self._f_store_time = metrics.histogram(
            "storage.store.latency", help="simulated seconds per distributed store"
        )
        self._f_retrieve_time = metrics.histogram(
            "storage.retrieve.latency", help="simulated seconds per distributed retrieve"
        )
        # This client's series of each family, bound on first observation.
        self._m_store_time = self._m_retrieve_time = None
        self._m_xor_ops = metrics.counter(
            "codes.xor.ops", help="XOR piece operations spent in the erasure code"
        )
        self._m_code_bytes = metrics.counter(
            "codes.bytes", help="object bytes pushed through encode/decode"
        )
        self._op_series: dict[str, tuple] = {}
        # Several DistributedStore instances may share one transport:
        # the pending-request table lives on the transport so one client
        # handler serves them all.
        self._pending = getattr(transport, "_storage_client_pending", None)
        if self._pending is None:
            self._pending = {}
            transport._storage_client_pending = self._pending
            pending = self._pending

            def on_reply(src: str, msg: tuple) -> None:
                op = pending.pop(msg[1], None)
                if op is not None:  # None: a late reply to a closed request
                    op.post(msg[1], msg)

            transport.register(STORAGE_SERVICE + ".client", on_reply)

    # -- coding (tally deltas feed the codes.* metrics) --------------------

    def _code_series(self, op: str) -> tuple:
        # Bound lazily so snapshots only list the ops that ran, but the
        # label lookup happens once per op, not once per object.
        cached = self._op_series.get(op)
        if cached is None:
            cached = (
                self._m_xor_ops.labels(code=self.code.name, op=op),
                self._m_code_bytes.labels(code=self.code.name, op=op),
            )
            self._op_series[op] = cached
        return cached

    def _encode(self, data: bytes) -> Sequence[bytes]:
        before = self.code.tally.count
        shares = self.code.encode(data)
        xors, nbytes = self._code_series("encode")
        xors.inc(self.code.tally.count - before)
        nbytes.inc(len(data))
        return shares

    def _decode(self, collected: dict[int, bytes], data_len: int) -> bytes:
        before = self.code.tally.count
        data = self.code.decode(collected, data_len)
        xors, nbytes = self._code_series("decode")
        xors.inc(self.code.tally.count - before)
        nbytes.inc(len(data))
        return data

    # -- wire plumbing -----------------------------------------------------

    def _ask(self, op: _Op, node: str, msg_body: tuple, size: int = 64, ctx: Any = None) -> None:
        req = next(_req_ids)
        self._pending[req] = op
        op.reqs[req] = node
        kind, *rest = msg_body
        self.transport.send(
            node, STORAGE_SERVICE, (kind, req, *rest), size_bytes=size, ctx=ctx
        )

    def _forget(self, op: _Op, req: int) -> str:
        """Stop awaiting one request; a late reply to it is ignored."""
        self._pending.pop(req, None)
        return op.reqs.pop(req)

    def _close(self, op: _Op) -> None:
        for req in list(op.reqs):
            self._forget(op, req)
        op.disarm()

    # -- operations --------------------------------------------------------

    def store(self, object_id: str, data: bytes, ctx: Any = None):
        """Generator: encode ``data`` and place one symbol per node.

        Use as ``result = yield from store.store(oid, data)``.  Waits up
        to ``REQUEST_TIMEOUT`` for each node's ack (in parallel);
        unresponsive nodes are listed in ``result.missing`` — the object
        is still retrievable while at least k symbols landed.
        """
        t0 = self.sim.now
        tracer = self.sim.obs.tracer
        span = None
        if tracer is not None:
            span = tracer.start(
                "storage.store",
                parent=ctx,
                node=self.host.name,
                object=object_id,
                size=len(data),
            )
            ctx = span.ctx
        shares = self._encode(data)
        op = _Op(self.sim)
        for idx, node in enumerate(self.nodes):
            self._ask(
                op,
                node,
                ("PUT", object_id, idx, shares[idx], len(data)),
                size=len(shares[idx]) + 48,
                ctx=ctx,
            )
        result = StoreResult(object_id=object_id)
        op.arm(REQUEST_TIMEOUT)  # one deadline, from launch
        expired = False
        while op.reqs and not expired:
            yield op.wait()
            replies, expired = op.take()
            result.acked.extend(node for node, _ in replies)
        result.missing = sorted(op.reqs.values())
        self._close(op)
        if self._m_store_time is None:
            self._m_store_time = self._f_store_time.labels(client=self.host.name)
        self._m_store_time.observe(self.sim.now - t0)
        if span is not None:
            tracer.end(span, acked=len(result.acked), missing=len(result.missing))
        return result

    def retrieve(self, object_id: str, ctx: Any = None):
        """Generator: collect any k symbols and decode.

        Use as ``data = yield from store.retrieve(oid)``.  Nodes are
        tried in placement order, k at a time; failures rotate in the
        remaining candidates.  Raises :class:`RetrieveError` when fewer
        than k symbols can be gathered.
        """
        t0 = self.sim.now
        tracer = self.sim.obs.tracer
        span = None
        if tracer is not None:
            span = tracer.start(
                "storage.retrieve", parent=ctx, node=self.host.name, object=object_id
            )
            ctx = span.ctx
        order = self.placement.order(self.nodes)
        collected: dict[int, bytes] = {}
        data_len: Optional[int] = None
        tried: set[str] = set()
        op = _Op(self.sim)

        def launch_next() -> None:
            node = next((n for n in order if n not in tried), None)
            if node is not None:
                tried.add(node)
                self.outstanding[node] += 1
                self._ask(op, node, ("GET", object_id), ctx=ctx)

        for _ in order[: self.code.k]:
            launch_next()
        while len(collected) < self.code.k:
            if not op.reqs:
                self._close(op)
                if span is not None:
                    tracer.end(span, status="error", reason="unreachable")
                raise RetrieveError(
                    f"{object_id}: only {len(collected)}/{self.code.k} symbols reachable"
                )
            op.arm(REQUEST_TIMEOUT)  # from the last wake
            yield op.wait()
            replies, expired = op.take()
            for node, msg in replies:
                self.outstanding[node] -= 1
                if msg[0] == "GET_OK":
                    _, _, _, idx, share, dlen = msg
                    collected[idx] = share
                    data_len = dlen
                else:  # GET_MISS
                    launch_next()
            if expired and len(collected) < self.code.k:
                # everyone still pending is considered failed this round
                for req in list(op.reqs):
                    self.outstanding[self._forget(op, req)] -= 1
                    launch_next()
        self._close(op)
        try:
            data = self._decode(collected, data_len if data_len is not None else 0)
        except DecodeError as exc:
            if span is not None:
                tracer.end(span, status="error", reason="decode")
            raise RetrieveError(str(exc)) from exc
        if self._m_retrieve_time is None:
            self._m_retrieve_time = self._f_retrieve_time.labels(client=self.host.name)
        self._m_retrieve_time.observe(self.sim.now - t0)
        if span is not None:
            tracer.end(span, symbols=len(collected))
        return data

    def drop(self, object_id: str) -> None:
        """Best-effort delete of every node's symbol."""
        for node in self.nodes:
            req = next(_req_ids)
            self.transport.send(node, STORAGE_SERVICE, ("DROP", req, object_id))
