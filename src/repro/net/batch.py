"""Struct-of-arrays packet batches for the vectorized data plane.

The per-object pipeline moves one :class:`~repro.net.packet.Packet`
through one scheduled callback per hop — fine for protocol traffic,
~30× too slow for bulk-bandwidth experiments.  This module holds the
bulk representation:

- :class:`PacketBatch` — one window of same-route datagrams as numpy
  columns (pid/size/send_time/arrival/hops) plus an object column for
  payloads, so serialization and arrival times are cumulative-sum
  array math and a whole window moves through each hop in **one**
  kernel callback;
- :class:`LossStream` — a block-buffered view of one per-direction rng
  stream whose vectorized ``draw(k)`` consumes *exactly* the same
  underlying PCG64 stream as ``k`` scalar ``one()`` calls, so the drop
  set of a batch is byte-identical to the per-packet loop's and mixing
  batched and per-object traffic on one link direction stays
  deterministic.

See docs/architecture.md ("Vectorized data plane") for the batch
lifecycle and the one rule that keeps batches off fault-armed networks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .packet import HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from .address import Endpoint, NicAddr

__all__ = ["PacketBatch", "LossStream"]


class LossStream:
    """Block-buffered draws from one per-(link, direction) rng stream.

    ``numpy.random.Generator.random(n)`` consumes the identical PCG64
    stream as ``n`` successive ``random()`` calls, so serving scalar
    draws out of a prefetched block — and whole batches out of
    ``draw(k)`` — yields the same per-packet decision sequence as the
    historical one-draw-per-packet loop, in reservation order, no
    matter how scalar and vectorized consumers interleave.
    """

    __slots__ = ("rng", "_buf", "_i")

    #: Draws per refill, 32 KiB per lossy link direction in use: several
    #: windows, so a draw seldom crosses an edge.  Any size, same sequence.
    BLOCK = 4096

    def __init__(self, rng):
        self.rng = rng
        self._buf = None
        self._i = 0

    def one(self) -> float:
        """The next single draw (identical to ``rng.random()``)."""
        buf = self._buf
        i = self._i
        if buf is None or i >= len(buf):
            buf = self._refill()
            i = 0
        self._i = i + 1
        return buf[i]

    def _refill(self) -> np.ndarray:
        buf = self._buf = self.rng.random(self.BLOCK)
        buf.flags.writeable = False  # draw() hands out views of it
        return buf

    def draw(self, k: int) -> np.ndarray:
        """The next ``k`` draws as an array — same stream as ``k`` calls
        to :meth:`one`, including any partially-consumed buffer.  Unless
        the draws cross a block edge, the result is a read-only view of
        the block."""
        buf, i = self._buf, self._i
        if buf is None or i >= len(buf):
            buf, i = self._refill(), 0
        if i + k <= len(buf):
            self._i = i + k
            return buf[i : i + k]
        # The rest of this block, then the stream itself: rng.random(m)
        # is the next m draws, and the next refill carries on after them.
        self._buf = None
        return np.concatenate((buf[i:], self.rng.random(k - (len(buf) - i))))


class PacketBatch:
    """One window of same-(src, dst, port) datagrams in struct-of-arrays
    form.

    Columns are parallel arrays indexed by position in the window:
    ``pid`` (object array — ints on a plain network, ``(host, seq)``
    tuples on a sharded one), ``size_bytes``/``wire_bytes`` (int64),
    ``send_time``/``arrival`` (float64), ``hops`` (int64), and
    ``payloads`` (a list, opaque to the network).  ``alive`` masks the
    survivors; link loss clears bits instead of rebuilding arrays.

    Invariants:

    - column lengths never change after :meth:`transmit <repro.net.
      network.Network.transmit_batch>` — drops only clear ``alive``;
    - a batch is owned by the network while in flight; the delivery
      callback may read it only for the duration of the callback (copy
      out to retain);
    - batches never carry span contexts and never run on a fault-armed
      network (which every sharded replica is): ``transmit_batch``
      refuses them there.
    """

    __slots__ = (
        "src",
        "dst",
        "src_nic",
        "dst_nic",
        "pid",
        "size_bytes",
        "wire_bytes",
        "send_time",
        "arrival",
        "hops",
        "payloads",
        "alive",
    )

    def __init__(
        self,
        src: "Endpoint",
        dst: "Endpoint",
        payloads: list,
        size_bytes,
        pids: list,
        src_nic: Optional["NicAddr"] = None,
        dst_nic: Optional["NicAddr"] = None,
    ):
        n = len(payloads)
        self.src = src
        self.dst = dst
        self.src_nic = src_nic
        self.dst_nic = dst_nic
        self.payloads = payloads
        self.size_bytes = np.asarray(size_bytes, dtype=np.int64)
        if self.size_bytes.ndim == 0:
            self.size_bytes = np.full(n, int(size_bytes), dtype=np.int64)
        if len(self.size_bytes) != n:
            raise ValueError("size_bytes length != payload count")
        self.wire_bytes = self.size_bytes + HEADER_BYTES
        self.pid = np.empty(n, dtype=object)
        self.pid[:] = pids
        self.send_time = np.zeros(n, dtype=np.float64)
        self.arrival = np.zeros(n, dtype=np.float64)
        self.hops = np.zeros(n, dtype=np.int64)
        self.alive = np.ones(n, dtype=bool)

    def __len__(self) -> int:
        return len(self.payloads)

    @property
    def n_alive(self) -> int:
        """Number of surviving packets in the window."""
        return int(self.alive.sum())

    def alive_indices(self) -> np.ndarray:
        """Positions of the survivors, in send order."""
        return self.alive.nonzero()[0]


def fifo_finish_times(
    ready: np.ndarray, ser: np.ndarray, busy_until: float
) -> np.ndarray:
    """Vectorized FIFO serializer reservation for a window.

    Reproduces, in closed form, the per-packet recurrence
    ``finish[i] = max(ready[i], finish[i-1], busy_until) + ser[i]``:
    each packet starts when it is ready *and* the serializer has
    finished everything queued before it.  Uses the identity
    ``finish = cumsum(ser) + cummax(ready' - shifted_cumsum)`` with
    ``ready'[0]`` folded against ``busy_until``.
    """
    cum = ser.cumsum()
    base = ready.copy()
    base[1:] -= cum[:-1]
    if busy_until > base[0]:
        base[0] = busy_until
    np.maximum.accumulate(base, out=base)
    base += cum
    return base


__all__.append("fifo_finish_times")
