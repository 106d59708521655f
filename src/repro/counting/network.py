"""Counting networks with fault-tolerant balancers (paper ref. [44]).

The RAIN interconnect work includes Riedel & Bruck, *"Tolerating Faults
in Counting Networks"* (cited in Sec. 1.3 alongside the topology
results).  A counting network distributes tokens arriving on arbitrary
input wires across its output wires with the *step property*: in any
quiescent state the output counts ``c_0 ≥ c_1 ≥ ... ≥ c_{w-1}`` differ
pairwise by at most one — a scalable building block for distributed
counters and load balancers.

This module implements:

- :class:`Balancer` — the 2×2 toggle, with the stuck-fault model
  (a faulty balancer forwards every token to one fixed output);
- :func:`bitonic_network` — the Aspnes–Herlihy–Shavit bitonic counting
  network of width w (a power of two), built from Batcher's bitonic
  wiring with comparators replaced by balancers;
- :class:`CountingNetwork` — traversal, fault injection, and the
  correction construction of [44]: appending a (fault-free) counting
  stage restores the step property no matter how faults skewed the
  upstream distribution, because a counting network is also a smoothing
  network for arbitrary input distributions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import MetricsRegistry

__all__ = [
    "Balancer",
    "CountingNetwork",
    "bitonic_network",
    "has_step_property",
    "smoothness",
]


class Balancer:
    """A 2×2 toggle balancer.

    Healthy behaviour alternates tokens between ``top`` and ``bottom``
    (top first).  The fault model of [44] is *stuck*: a faulty balancer
    forwards every token to one fixed output, losing the alternation.
    """

    __slots__ = ("top", "bottom", "state", "stuck")

    def __init__(self, top: int, bottom: int):
        if top == bottom:
            raise ValueError("balancer wires must differ")
        self.top = top
        self.bottom = bottom
        self.state = 0
        self.stuck: Optional[int] = None  # None healthy; else fixed output wire

    def fail_stuck(self, to_top: bool = True) -> None:
        """Make the balancer forward everything to one output."""
        self.stuck = self.top if to_top else self.bottom

    def repair(self) -> None:
        """Clear the fault (toggle state resumes where it was)."""
        self.stuck = None

    def route(self, wire: int) -> int:
        """Pass one token through; returns the output wire."""
        if wire not in (self.top, self.bottom):
            raise ValueError(f"token on wire {wire} does not enter this balancer")
        if self.stuck is not None:
            return self.stuck
        out = self.top if self.state == 0 else self.bottom
        self.state ^= 1
        return out


def bitonic_network(width: int) -> list[list[Balancer]]:
    """Layers of the bitonic counting network B[width] (width = 2^p).

    Batcher's bitonic wiring; 'descending' comparator regions become
    balancers whose *top* output is the higher wire, which is exactly
    the orientation that makes the network count.
    """
    if width < 1 or width & (width - 1):
        raise ValueError("width must be a power of two")
    layers: list[list[Balancer]] = []
    k = 2
    while k <= width:
        j = k // 2
        while j >= 1:
            layer = []
            for i in range(width):
                partner = i ^ j
                if partner > i:
                    if (i & k) == 0:
                        layer.append(Balancer(i, partner))
                    else:
                        layer.append(Balancer(partner, i))
            layers.append(layer)
            j //= 2
        k *= 2
    return layers


def has_step_property(counts: Sequence[int]) -> bool:
    """Whether output counts satisfy the step property."""
    return all(counts[i] - counts[i + 1] in (0, 1) for i in range(len(counts) - 1))


def smoothness(counts: Sequence[int]) -> int:
    """Max minus min output count (0 or 1 for a counting network)."""
    return max(counts) - min(counts) if counts else 0


class CountingNetwork:
    """A runnable balancing network with fault injection and correction."""

    def __init__(
        self,
        width: int,
        layers: Optional[list[list[Balancer]]] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ):
        self.width = width
        self.layers = layers if layers is not None else bitonic_network(width)
        self.output_counts = [0] * width
        self.tokens_routed = 0
        # Counting networks are pure (no simulator); experiments that
        # want them on a cluster report pass the report's registry in.
        self._m_tokens = (
            metrics.counter(
                "counting.network.tokens", help="tokens routed through the network"
            ).labels(width=width)
            if metrics is not None
            else None
        )
        # wire -> balancer lookup per layer, for O(depth) traversal
        self._index: list[dict[int, Balancer]] = []
        for layer in self.layers:
            lut: dict[int, Balancer] = {}
            for b in layer:
                lut[b.top] = b
                lut[b.bottom] = b
            self._index.append(lut)

    @property
    def depth(self) -> int:
        """Number of layers."""
        return len(self.layers)

    @property
    def size(self) -> int:
        """Total balancer count."""
        return sum(len(layer) for layer in self.layers)

    def balancers(self) -> Iterable[Balancer]:
        """All balancers, layer by layer."""
        for layer in self.layers:
            yield from layer

    def traverse(self, wire: int) -> int:
        """Route one token entering on ``wire``; returns the output wire."""
        if not (0 <= wire < self.width):
            raise ValueError(f"wire {wire} out of range")
        w = wire
        for lut in self._index:
            b = lut.get(w)
            if b is not None:
                w = b.route(w)
        self.output_counts[w] += 1
        self.tokens_routed += 1
        if self._m_tokens is not None:
            self._m_tokens.inc()
        return w

    def run(self, arrivals: Iterable[int]) -> list[int]:
        """Route a batch of tokens; returns the output counts so far."""
        for wire in arrivals:
            self.traverse(wire)
        return list(self.output_counts)

    # -- fault handling (ref. [44]) -----------------------------------------

    def inject_stuck_faults(
        self, count: int, rng: np.random.Generator, to_top: Optional[bool] = None
    ) -> list[Balancer]:
        """Make ``count`` distinct random balancers stuck; returns them."""
        all_b = list(self.balancers())
        if count > len(all_b):
            raise ValueError("more faults than balancers")
        idx = rng.choice(len(all_b), size=count, replace=False)
        failed = []
        for i in idx:
            b = all_b[int(i)]
            b.fail_stuck(to_top if to_top is not None else bool(rng.integers(2)))
            failed.append(b)
        return failed

    def with_correction(self) -> "CountingNetwork":
        """The fault-tolerance construction of [44]: append a healthy
        counting stage.

        A counting network smooths *any* input distribution to the step
        property, so feeding the (possibly fault-skewed) outputs of this
        network into a fresh bitonic stage restores correct counting —
        at the cost of doubling the depth.  The returned network shares
        this network's layers and appends new healthy ones.
        """
        corrected = CountingNetwork(
            self.width, layers=[*self.layers, *bitonic_network(self.width)]
        )
        return corrected
