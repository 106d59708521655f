"""RAINfs — a fault-tolerant distributed file system on the RAIN blocks.

The paper's stated future work (Sec. 7): *"The implementation of a real
distributed file system using the data partitioning schemes developed
here."*  RAINfs is that system, built strictly from the existing
building blocks:

- **data**: every file is split into blocks; each block is
  erasure-coded and spread one-symbol-per-node with the distributed
  store (Sec. 4.2), so files survive n − k node failures;
- **metadata**: a flat namespace owned by the elected leader (ref.
  [29]); every mutation is persisted by erasure-coding the *namespace
  itself* before acknowledging, so a new leader recovers the file
  system from the surviving nodes;
- **transport**: all RPCs ride RUDP; clients discover the leader from
  their own election view and follow redirects.

Write protocol (client side): ``prepare`` (leader allocates a write
ticket) → store the blocks under ticket-scoped ids → ``commit`` (leader
swaps the file's block list, persists metadata, and garbage-collects the
replaced blocks).  A client crash between prepare and commit leaves only
unreferenced blocks; the committed view never shows a torn write.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Optional

from ..election import LeaderElection
from ..membership import MembershipNode
from ..sim import Signal, Simulator
from ..storage import DistributedStore, RetrieveError
from .metadata import FsError, Namespace

__all__ = ["RainFsNode", "RAINFS_SERVICE", "META_OBJECT"]

#: RUDP service name for RAINfs metadata RPC.
RAINFS_SERVICE = "rainfs"
#: Storage object id holding the erasure-coded namespace.
META_OBJECT = "rainfs:namespace"

_req_ids = itertools.count(1)


def _digest(path: str) -> str:
    return hashlib.sha256(path.encode()).hexdigest()[:12]


class RainFsNode:
    """One cluster node's RAINfs agent (server when leader, plus client).

    Every node constructs one of these over its membership node,
    election, and a :class:`DistributedStore`; file operations are
    generator methods used with ``yield from`` inside simulation
    processes.
    """

    def __init__(
        self,
        membership: MembershipNode,
        election: LeaderElection,
        store: DistributedStore,
        block_size: int = 64 * 1024,
        rpc_timeout: float = 3.0,
        max_attempts: int = 30,
    ):
        self.membership = membership
        self.election = election
        self.store = store
        self.sim: Simulator = membership.sim
        self.name = membership.name
        self.block_size = block_size
        self.rpc_timeout = rpc_timeout
        self.max_attempts = max_attempts
        self.transport = store.transport
        # leader-side state
        self.namespace: Optional[Namespace] = None  # None = not recovered
        self._alloc = itertools.count(1)
        self._recovering = False
        # client-side state
        self._pending: dict[int, Signal] = {}
        metrics = self.sim.obs.metrics
        self._m_ops = metrics.counter(
            "fs.rainfs.ops", help="metadata RPCs served by this node as leader"
        )
        # op name -> bound series; the label lookup runs once per op,
        # not once per RPC.
        self._m_op_series: dict[str, object] = {}
        self._f_recoveries = metrics.counter(
            "fs.rainfs.recoveries", help="namespace recoveries performed on takeover"
        )
        self._m_recoveries = None  # bound on the first recovery
        self.transport.register(RAINFS_SERVICE, self._on_msg)
        election.subscribe(self._on_leader_change)
        if election.is_leader:
            self._start_recovery()

    # ------------------------------------------------------------------
    # leadership / metadata recovery
    # ------------------------------------------------------------------

    def _on_leader_change(self, change) -> None:
        if change.leader == self.name:
            self._start_recovery()
        else:
            self.namespace = None  # stale copy must not serve

    def _start_recovery(self) -> None:
        if self._recovering or self.namespace is not None:
            return
        self._recovering = True
        self.sim.process(self._recover_proc(), name=f"rainfs-recover:{self.name}")

    def _recover_proc(self):
        try:
            blob = yield from self.store.retrieve(META_OBJECT)
            ns = Namespace.deserialize(blob)
        except RetrieveError:
            ns = Namespace()  # fresh file system
        if self.election.is_leader:
            self.namespace = ns
            if self._m_recoveries is None:
                self._m_recoveries = self._f_recoveries.labels(node=self.name)
            self._m_recoveries.inc()
        self._recovering = False

    def _persist(self):
        """Generator: erasure-code and store the namespace snapshot."""
        assert self.namespace is not None
        yield from self.store.store(META_OBJECT, self.namespace.serialize())

    # ------------------------------------------------------------------
    # RPC server (leader role)
    # ------------------------------------------------------------------

    def _on_msg(self, src: str, msg: tuple) -> None:
        if not self.membership.host.up:
            return
        kind = msg[0]
        if kind == "REQ":
            _, req_id, op, args = msg
            tracer = self.sim.obs.tracer
            self.sim.process(
                self._serve(src, req_id, op, args),
                name=f"rainfs-rpc:{op}",
                # Serve under the inbound request's context so the
                # namespace persist / GC it triggers stays in the trace.
                ctx=tracer.current if tracer is not None else None,
            )
        elif kind == "RES":
            _, req_id, ok, payload = msg
            sig = self._pending.pop(req_id, None)
            if sig is not None and not sig.triggered:
                sig.succeed((ok, payload))

    def _reply(self, dst: str, req_id: int, ok: bool, payload: Any) -> None:
        self.transport.send(dst, RAINFS_SERVICE, ("RES", req_id, ok, payload))

    def _serve(self, src: str, req_id: int, op: str, args: tuple):
        if not self.election.is_leader:
            self._reply(src, req_id, False, ("redirect", self.election.leader))
            return
        if self.namespace is None:
            self._start_recovery()
            self._reply(src, req_id, False, ("notready", None))
            return
        ns = self.namespace
        now = self.sim.now
        series = self._m_op_series.get(op)
        if series is None:
            series = self._m_ops.labels(op=op)
            self._m_op_series[op] = series
        series.inc()
        try:
            if op == "prepare":
                (path,) = args
                ticket = f"{ns.epoch}.{next(self._alloc)}"
                self._reply(src, req_id, True, (_digest(path), ticket))
                return
            if op == "commit":
                path, size, blocks, block_size = args
                if ns.exists(path):
                    old = list(ns.stat(path).blocks)
                    ns.update(path, size, blocks, now)
                else:
                    old = []
                    ns.create(path, block_size, now)
                    ns.update(path, size, blocks, now)
                yield from self._persist()
                # Garbage-collect replaced blocks — but never blocks that
                # are part of the new commit (a client retry re-commits
                # the same block list; GC'ing it would destroy the file).
                live = set(blocks)
                for obj in old:
                    if obj not in live:
                        self.store.drop(obj)
                self._reply(src, req_id, True, ns.stat(path).to_dict())
                return
            if op == "stat":
                (path,) = args
                self._reply(src, req_id, True, ns.stat(path).to_dict())
                return
            if op == "list":
                (prefix,) = args
                self._reply(src, req_id, True, ns.listdir(prefix))
                return
            if op == "delete":
                (path,) = args
                meta = ns.delete(path)
                yield from self._persist()
                for obj in meta.blocks:
                    self.store.drop(obj)
                self._reply(src, req_id, True, None)
                return
            if op == "rename":
                src_path, dst_path = args
                meta = ns.rename(src_path, dst_path, now)
                yield from self._persist()
                self._reply(src, req_id, True, meta.to_dict())
                return
            self._reply(src, req_id, False, ("error", f"unknown op {op}"))
        except FsError as exc:
            self._reply(src, req_id, False, ("error", str(exc)))

    # ------------------------------------------------------------------
    # RPC client
    # ------------------------------------------------------------------

    def _rpc(self, op: str, *args, ctx: Any = None):
        """Generator: call the metadata leader with retry + redirect."""
        last_error = None
        target = self.election.leader or self.name
        tracer = self.sim.obs.tracer
        span = None
        if tracer is not None:
            span = tracer.start("fs.rpc", parent=ctx, node=self.name, op=op)
            ctx = span.ctx
        for attempt in range(self.max_attempts):
            req_id = next(_req_ids)
            sig = Signal(self.sim)
            self._pending[req_id] = sig
            if target == self.name:
                # local fast path still goes through the same handler,
                # activated so the served work keeps this RPC's context
                if tracer is not None:
                    with tracer.activate(ctx):
                        self._on_msg(self.name, ("REQ", req_id, op, args))
                else:
                    self._on_msg(self.name, ("REQ", req_id, op, args))
            else:
                self.transport.send(
                    target, RAINFS_SERVICE, ("REQ", req_id, op, args), ctx=ctx
                )
            timer = self.sim.timeout(self.rpc_timeout)
            fired = yield self.sim.any_of([sig, timer])
            if fired is not sig:
                self._pending.pop(req_id, None)
                target = self.election.leader or self.name  # re-resolve
                continue
            timer.cancel()  # answered: the timeout never fires
            ok, payload = sig.value
            if ok:
                if span is not None:
                    tracer.end(span, attempts=attempt + 1)
                return payload
            reason = payload[0]
            if reason == "redirect":
                target = payload[1] or (self.election.leader or self.name)
                yield self.sim.timeout(0.05)
                continue
            if reason == "notready":
                yield self.sim.timeout(0.2)
                continue
            last_error = payload[1]
            if span is not None:
                tracer.end(span, status="error", reason=str(last_error))
            raise FsError(last_error)
        if span is not None:
            tracer.end(span, status="error", reason="attempts_exhausted")
        raise FsError(f"rainfs rpc {op} failed after {self.max_attempts} attempts")

    # ------------------------------------------------------------------
    # file operations (public API)
    # ------------------------------------------------------------------

    def write(self, path: str, data: bytes):
        """Generator: create or replace ``path`` with ``data`` atomically.

        ``yield from fs.write("/a/b", b"...")`` returns the committed
        :class:`FileMeta` dict.
        """
        tracer = self.sim.obs.tracer
        span = None
        ctx = None
        if tracer is not None:
            span = tracer.start("fs.write", node=self.name, path=path, size=len(data))
            ctx = span.ctx
        try:
            file_id, ticket = yield from self._rpc("prepare", path, ctx=ctx)
            blocks = []
            bs = self.block_size
            # memoryview chunks: striping a large file is zero-copy all the
            # way into the encoder (np.frombuffer accepts any buffer).
            mv = memoryview(data)
            chunks = [mv[i : i + bs] for i in range(0, len(data), bs)] or [b""]
            for i, chunk in enumerate(chunks):
                obj = f"blk:{file_id}:{ticket}:{i}"
                yield from self.store.store(obj, chunk, ctx=ctx)
                blocks.append(obj)
            meta = yield from self._rpc("commit", path, len(data), blocks, bs, ctx=ctx)
        except BaseException:
            if span is not None:
                tracer.end(span, status="error")
            raise
        if span is not None:
            tracer.end(span, blocks=len(blocks))
        return meta

    def read(self, path: str):
        """Generator: full contents of ``path``."""
        tracer = self.sim.obs.tracer
        span = None
        ctx = None
        if tracer is not None:
            span = tracer.start("fs.read", node=self.name, path=path)
            ctx = span.ctx
        try:
            meta = yield from self._rpc("stat", path, ctx=ctx)
            parts = []
            for obj in meta["blocks"]:
                parts.append((yield from self.store.retrieve(obj, ctx=ctx)))
        except BaseException:
            if span is not None:
                tracer.end(span, status="error")
            raise
        data = b"".join(parts)
        if span is not None:
            tracer.end(span, size=meta["size"], blocks=len(meta["blocks"]))
        return data[: meta["size"]]

    def append(self, path: str, data: bytes):
        """Generator: append by read-modify-write (last committer wins)."""
        try:
            current = yield from self.read(path)
        except FsError:
            current = b""
        meta = yield from self.write(path, current + data)
        return meta

    def stat(self, path: str):
        """Generator: the file's metadata dict."""
        return (yield from self._rpc("stat", path))

    def listdir(self, prefix: str = "/"):
        """Generator: paths under ``prefix``."""
        return (yield from self._rpc("list", prefix))

    def delete(self, path: str):
        """Generator: remove ``path`` and free its blocks."""
        return (yield from self._rpc("delete", path))

    def rename(self, src: str, dst: str):
        """Generator: atomic metadata-only rename."""
        return (yield from self._rpc("rename", src, dst))
