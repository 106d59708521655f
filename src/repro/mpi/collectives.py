"""MPI collective operations.

Implemented as generator methods used with ``yield from`` inside
simulation processes::

    value = yield from comm.bcast(value, root=0)
    total = yield from comm.allreduce(x, op=lambda a, b: a + b)

Broadcast and reduce use binomial trees (⌈log₂ p⌉ rounds); gather,
scatter, and barrier use linear exchanges with the root — matching the
classic MPICH reference algorithms at small scale.  Every collective
consumes one slot of a private tag namespace sequenced per communicator,
so consecutive collectives never cross-match; as in MPI, all ranks must
invoke the same collectives in the same order.

Reduction operators must be associative; reductions are applied in rank
order along the tree, so commutativity is not required for the linear
fallbacks but is recommended for tree reductions.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

__all__ = ["CollectivesMixin"]


class CollectivesMixin:
    """Collective algorithms shared by :class:`repro.mpi.Communicator`."""

    # The mixin relies on: self.rank, self.size, self.sim, self.send,
    # self.recv, self._coll_seq, self._coll_ctx, and the self._m_coll_* /
    # self._coll_series instruments provided by Communicator.

    def _coll_tag(self, name: str) -> tuple:
        self._coll_seq += 1
        return ("__coll__", name, self._coll_seq)

    def _timed(self, name: str, gen: Generator) -> Generator:
        """Wrap a collective: count the call, time it in simulated
        seconds (composite collectives time the whole composition)."""
        series = self._coll_series.get(name)
        if series is None:
            series = (
                self._m_coll_calls.labels(op=name),
                self._m_coll_time.labels(op=name),
            )
            self._coll_series[name] = series
        series[0].inc()
        t0 = self.sim.now
        tracer = self.sim.obs.tracer
        if tracer is None:
            result = yield from gen
        else:
            span = tracer.start(
                "mpi.collective", node=self.host.name, op=name, rank=self.rank
            )
            prev_ctx = self._coll_ctx
            self._coll_ctx = span.ctx
            try:
                result = yield from gen
            finally:
                self._coll_ctx = prev_ctx
                tracer.end(span)
        series[1].observe(self.sim.now - t0)
        return result

    # -- public (timed) entry points -----------------------------------------

    def barrier(self) -> Generator:
        """Block until every rank has entered the barrier."""
        return self._timed("barrier", self._barrier_impl())

    def bcast(self, value: Any, root: int = 0, size_bytes: int = 64) -> Generator:
        """Binomial-tree broadcast; returns the root's value on all ranks."""
        return self._timed("bcast", self._bcast_impl(value, root, size_bytes))

    def gather(self, value: Any, root: int = 0, size_bytes: int = 64) -> Generator:
        """Collect one value per rank at ``root`` (rank order); None elsewhere."""
        return self._timed("gather", self._gather_impl(value, root, size_bytes))

    def scatter(self, values: Any, root: int = 0, size_bytes: int = 64) -> Generator:
        """Distribute ``values[r]`` from the root to each rank ``r``."""
        return self._timed("scatter", self._scatter_impl(values, root, size_bytes))

    def allgather(self, value: Any, size_bytes: int = 64) -> Generator:
        """Gather to rank 0 then broadcast the full list to everyone."""
        return self._timed("allgather", self._allgather_impl(value, size_bytes))

    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any],
        root: int = 0,
        size_bytes: int = 64,
    ) -> Generator:
        """Binomial-tree reduction to ``root``; None on other ranks."""
        return self._timed("reduce", self._reduce_impl(value, op, root, size_bytes))

    def allreduce(
        self, value: Any, op: Callable[[Any, Any], Any], size_bytes: int = 64
    ) -> Generator:
        """Reduce to rank 0, then broadcast the result."""
        return self._timed("allreduce", self._allreduce_impl(value, op, size_bytes))

    def scan(
        self, value: Any, op: Callable[[Any, Any], Any], size_bytes: int = 64
    ) -> Generator:
        """Inclusive prefix reduction: rank r gets op(v_0, ..., v_r)."""
        return self._timed("scan", self._scan_impl(value, op, size_bytes))

    def alltoall(self, values: Any, size_bytes: int = 64) -> Generator:
        """Personalized exchange: rank i sends ``values[j]`` to rank j."""
        return self._timed("alltoall", self._alltoall_impl(values, size_bytes))

    # -- barrier -------------------------------------------------------------

    def _barrier_impl(self) -> Generator:
        """Block until every rank has entered the barrier."""
        tag = self._coll_tag("barrier")
        # linear: everyone checks in with rank 0, then 0 releases everyone
        if self.rank == 0:
            for _ in range(self.size - 1):
                yield self.recv(tag=(tag, "in"))
            for r in range(1, self.size):
                self.send(None, dest=r, tag=(tag, "out"))
        else:
            self.send(None, dest=0, tag=(tag, "in"))
            yield self.recv(source=0, tag=(tag, "out"))
        return None

    # -- broadcast -----------------------------------------------------------

    def _bcast_impl(self, value: Any, root: int = 0, size_bytes: int = 64) -> Generator:
        """Binomial-tree broadcast; returns the root's value on all ranks."""
        tag = self._coll_tag("bcast")
        size = self.size
        rrank = (self.rank - root) % size
        mask = 1
        # receive phase: wait for the parent (ranks other than root)
        while mask < size:
            if rrank < mask:
                break
            if rrank < 2 * mask:
                parent = (rrank - mask + root) % size
                msg = yield self.recv(source=parent, tag=tag)
                value = msg.data
                break
            mask <<= 1
        # send phase: forward down the tree
        while mask < size:
            if rrank < mask and rrank + mask < size:
                child = (rrank + mask + root) % size
                self.send(value, dest=child, tag=tag, size_bytes=size_bytes)
            mask <<= 1
        return value

    # -- gather / scatter ------------------------------------------------------

    def _gather_impl(self, value: Any, root: int = 0, size_bytes: int = 64) -> Generator:
        """Collect one value per rank at ``root`` (rank order); None elsewhere."""
        tag = self._coll_tag("gather")
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = value
            for _ in range(self.size - 1):
                msg = yield self.recv(tag=tag)
                out[msg.source] = msg.data
            return out
        self.send(value, dest=root, tag=tag, size_bytes=size_bytes)
        return None

    def _scatter_impl(self, values: Any, root: int = 0, size_bytes: int = 64) -> Generator:
        """Distribute ``values[r]`` from the root to each rank ``r``."""
        tag = self._coll_tag("scatter")
        if self.rank == root:
            if len(values) != self.size:
                raise ValueError(
                    f"scatter needs exactly {self.size} values, got {len(values)}"
                )
            for r in range(self.size):
                if r != root:
                    self.send(values[r], dest=r, tag=tag, size_bytes=size_bytes)
            return values[root]
        msg = yield self.recv(source=root, tag=tag)
        return msg.data

    def _allgather_impl(self, value: Any, size_bytes: int = 64) -> Generator:
        """Gather to rank 0 then broadcast the full list to everyone."""
        gathered = yield from self._gather_impl(value, root=0, size_bytes=size_bytes)
        result = yield from self._bcast_impl(gathered, root=0, size_bytes=size_bytes * self.size)
        return result

    # -- reductions --------------------------------------------------------

    def _reduce_impl(
        self,
        value: Any,
        op: Callable[[Any, Any], Any],
        root: int = 0,
        size_bytes: int = 64,
    ) -> Generator:
        """Binomial-tree reduction to ``root``; None on other ranks."""
        tag = self._coll_tag("reduce")
        size = self.size
        rrank = (self.rank - root) % size
        acc = value
        mask = 1
        while mask < size:
            if rrank & mask:
                parent = ((rrank & ~mask) + root) % size
                self.send(acc, dest=parent, tag=(tag, rrank), size_bytes=size_bytes)
                return None
            child_r = rrank | mask
            if child_r < size:
                msg = yield self.recv(tag=(tag, child_r))
                acc = op(acc, msg.data)
            mask <<= 1
        return acc

    def _allreduce_impl(
        self, value: Any, op: Callable[[Any, Any], Any], size_bytes: int = 64
    ) -> Generator:
        """Reduce to rank 0, then broadcast the result."""
        reduced = yield from self._reduce_impl(value, op, root=0, size_bytes=size_bytes)
        result = yield from self._bcast_impl(reduced, root=0, size_bytes=size_bytes)
        return result

    def _scan_impl(
        self, value: Any, op: Callable[[Any, Any], Any], size_bytes: int = 64
    ) -> Generator:
        """Inclusive prefix reduction: rank r gets op(v_0, ..., v_r).

        Linear pipeline: each rank receives the prefix from rank r−1,
        folds in its own value, and forwards to rank r+1.
        """
        tag = self._coll_tag("scan")
        acc = value
        if self.rank > 0:
            msg = yield self.recv(source=self.rank - 1, tag=tag)
            acc = op(msg.data, value)
        if self.rank + 1 < self.size:
            self.send(acc, dest=self.rank + 1, tag=tag, size_bytes=size_bytes)
        return acc

    def sendrecv(  # rainlint: disable=RL013 -- the MPI surface Sec. 2.5 ports
        self,
        sendobj: Any,
        dest: int,
        source: int,
        sendtag: Any = 0,
        recvtag: Any = 0,
        size_bytes: int = 64,
    ) -> Generator:
        """Combined send+receive (deadlock-free shift exchanges)."""
        self.send(sendobj, dest=dest, tag=sendtag, size_bytes=size_bytes)
        msg = yield self.recv(source=source, tag=recvtag)
        return msg.data

    def _alltoall_impl(self, values: Any, size_bytes: int = 64) -> Generator:
        """Personalized exchange: rank i sends ``values[j]`` to rank j."""
        tag = self._coll_tag("alltoall")
        if len(values) != self.size:
            raise ValueError(f"alltoall needs exactly {self.size} values")
        out: list[Any] = [None] * self.size
        out[self.rank] = values[self.rank]
        for r in range(self.size):
            if r != self.rank:
                self.send(values[r], dest=r, tag=tag, size_bytes=size_bytes)
        for _ in range(self.size - 1):
            msg = yield self.recv(tag=tag)
            out[msg.source] = msg.data
        return out
