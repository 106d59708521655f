"""MPI-style message passing over RUDP (paper Sec. 2.5).

The paper ported MPICH onto the RAIN communication layer by writing a
new MPICH device over RUDP; this module is the same idea natively: a
:class:`Communicator` per rank, point-to-point ``send``/``recv``/
``isend``/``irecv`` with source/tag matching, and the usual collectives
(:mod:`repro.mpi.collectives`).

Fault semantics match the paper exactly: MPI has no way to surface link
errors, so as long as the bundled interfaces retain one live path the
application proceeds as if nothing happened; when all paths die, sends
stall inside RUDP retransmission and the application *hangs* until the
network is repaired — then resumes.

Usage inside simulation processes::

    world = MpiWorld.build(sim, hosts)

    def program(comm):
        if comm.rank == 0:
            comm.send({"a": 7}, dest=1, tag=11)
        elif comm.rank == 1:
            msg = yield comm.recv(source=0, tag=11)
            ...
        total = yield from comm.allreduce(comm.rank, op=sum_op)

    world.launch(program)
    sim.run()
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence

from ..net import Host
from ..rudp import RudpConfig, RudpTransport
from ..sim import Process, Signal, Simulator, Waitable
from .collectives import CollectivesMixin
from .datatypes import ANY_SOURCE, ANY_TAG, Message, Status
from .errors import MpiError, RankError
from .requests import Request

__all__ = ["Communicator", "MpiWorld", "MPI_SERVICE"]

#: RUDP service name carrying MPI traffic.
MPI_SERVICE = "mpi"


def _matches(spec: Any, value: Any, wildcard: Any) -> bool:
    return spec == wildcard or spec == value


class Communicator(CollectivesMixin):
    """One rank's handle on the MPI world."""

    def __init__(self, world: "MpiWorld", rank: int, host: Host, transport: RudpTransport):
        self.world = world
        self.rank = rank
        self.host = host
        self.transport = transport
        self.sim: Simulator = world.sim
        # matching engine
        self._unexpected: list[Message] = []
        self._posted: list[tuple[int, Any, Signal]] = []
        self._coll_seq = 0
        self._coll_ctx = None  # span context of the running collective
        metrics = self.sim.obs.metrics
        self._f_msgs = metrics.counter("mpi.p2p.messages", help="point-to-point sends")
        self._f_bytes = metrics.counter("mpi.p2p.bytes", help="point-to-point payload bytes")
        # This rank's series of each family, bound on the first send.
        self._m_msgs = self._m_bytes = None
        self._m_coll_calls = metrics.counter(
            "mpi.collective.calls", help="collective invocations by operation"
        )
        self._m_coll_time = metrics.histogram(
            "mpi.collective.duration", help="simulated seconds per collective"
        )
        # op name -> (calls series, duration series); bound once per op.
        self._coll_series: dict[str, tuple] = {}
        transport.register(MPI_SERVICE, self._on_message)

    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return len(self.world.comms)

    def _rank_host(self, rank: int) -> str:
        if not (0 <= rank < self.size):
            raise RankError(f"rank {rank} out of range 0..{self.size - 1}")
        return self.world.comms[rank].host.name

    # -- point to point ----------------------------------------------------

    def send(
        self, obj: Any, dest: int, tag: Any = 0, size_bytes: int = 64, ctx: Any = None
    ) -> None:
        """Eager buffered send: returns immediately; RUDP guarantees
        in-order reliable delivery (or stalls through outages)."""
        if self._m_msgs is None:
            self._m_msgs = self._f_msgs.labels(rank=self.rank)
            self._m_bytes = self._f_bytes.labels(rank=self.rank)
        self._m_msgs.inc()
        self._m_bytes.inc(size_bytes)
        tracer = self.sim.obs.tracer
        if tracer is not None:
            parent = ctx
            if parent is None:
                parent = tracer.current
            if parent is None:
                # Inside a collective, parent loose sends to its span.
                parent = self._coll_ctx
            span = tracer.instant(
                "mpi.send",
                parent=parent,
                node=self.host.name,
                rank=self.rank,
                dest=dest,
            )
            ctx = span.ctx
        self.transport.send(
            self._rank_host(dest),
            MPI_SERVICE,
            (self.rank, tag, obj, size_bytes),
            size_bytes=size_bytes,
            ctx=ctx,
        )

    def isend(self, obj: Any, dest: int, tag: Any = 0, size_bytes: int = 64) -> Request:  # rainlint: disable=RL013 -- the MPI surface Sec. 2.5 ports
        """Nonblocking send; the request is complete on return (eager)."""
        self.send(obj, dest, tag, size_bytes)
        req = Request(self.sim)
        req._complete(None)
        return req

    def recv(self, source: int = ANY_SOURCE, tag: Any = ANY_TAG) -> Waitable:
        """A waitable firing with the next matching :class:`Message`.

        Yield it inside a simulation process::

            msg = yield comm.recv(source=0, tag=7)
        """
        sig = Signal(self.sim)
        msg = self._match_unexpected(source, tag)
        if msg is not None:
            sig.succeed(msg)
        else:
            self._posted.append((source, tag, sig))
        return sig

    def irecv(self, source: int = ANY_SOURCE, tag: Any = ANY_TAG) -> Request:  # rainlint: disable=RL013 -- the MPI surface Sec. 2.5 ports
        """Nonblocking receive returning a :class:`Request`."""
        req = Request(self.sim)
        self.recv(source, tag).add_callback(lambda w: req._complete(w.value))
        return req

    def probe(self, source: int = ANY_SOURCE, tag: Any = ANY_TAG) -> Optional[Status]:  # rainlint: disable=RL013 -- the MPI surface Sec. 2.5 ports
        """Status of a matching queued message, if any (nonblocking)."""
        for msg in self._unexpected:
            if _matches(source, msg.source, ANY_SOURCE) and _matches(
                tag, msg.tag, ANY_TAG
            ):
                return msg.status
        return None

    # -- matching engine ----------------------------------------------------

    def _match_unexpected(self, source: int, tag: Any) -> Optional[Message]:
        for i, msg in enumerate(self._unexpected):
            if _matches(source, msg.source, ANY_SOURCE) and _matches(
                tag, msg.tag, ANY_TAG
            ):
                return self._unexpected.pop(i)
        return None

    def _on_message(self, src_node: str, payload: Any) -> None:
        src_rank, tag, obj, size = payload
        tracer = self.sim.obs.tracer
        msg = Message(
            data=obj,
            status=Status(source=src_rank, tag=tag, size_bytes=size),
            ctx=tracer.current if tracer is not None else None,
        )
        for i, (psrc, ptag, sig) in enumerate(self._posted):
            if _matches(psrc, msg.source, ANY_SOURCE) and _matches(
                ptag, msg.tag, ANY_TAG
            ):
                self._posted.pop(i)
                sig.succeed(msg)
                return
        self._unexpected.append(msg)


class MpiWorld:
    """The set of communicating ranks (MPI_COMM_WORLD analogue)."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.comms: list[Communicator] = []

    @classmethod
    def build(
        cls,
        sim: Simulator,
        hosts: Sequence[Host],
        rudp_config: Optional[RudpConfig] = None,
    ) -> "MpiWorld":
        """Transports and communicators for ``hosts``; each transport
        opens its connection to a peer on first use."""
        world = cls(sim)
        members = frozenset(h.name for h in hosts)
        transports = [RudpTransport(h, rudp_config, members=members) for h in hosts]
        for rank, (host, tp) in enumerate(zip(hosts, transports)):
            world.comms.append(Communicator(world, rank, host, tp))
        return world

    def comm(self, rank: int) -> Communicator:
        """The communicator for ``rank``."""
        return self.comms[rank]

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.comms)

    def launch(
        self, program: Callable[..., Generator], *args: Any, ranks: Optional[Sequence[int]] = None
    ) -> list[Process]:
        """Start ``program(comm, *args)`` as a process on each rank.

        Returns the processes; their values are the programs' returns.
        """
        procs = []
        for rank in ranks if ranks is not None else range(self.size):
            comm = self.comms[rank]
            gen = program(comm, *args)
            if not hasattr(gen, "send"):
                raise MpiError("MPI programs must be generator functions")
            proc = self.sim.process(gen, name=f"mpi:rank{rank}")
            proc._defused = True
            procs.append(proc)
        return procs
