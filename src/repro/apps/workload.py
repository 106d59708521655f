"""Synthetic workload generators for the proof-of-concept applications.

Substitutes for what the paper's demos consumed: video files on disk
(RAINVideo), per-VIP firewall traffic (Rainwall), and long-running
compute jobs (RAINCheck).  All generators are deterministic under the
simulation's seeded RNG streams.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["synthetic_block", "VideoSpec", "FlowModel"]


def synthetic_block(tag: str, size: int) -> bytes:
    """Deterministic pseudo-random content for ``tag`` (e.g. one video
    block or one checkpoint image); reproducible without storing it."""
    seed = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


@dataclass(frozen=True)
class VideoSpec:
    """A synthetic video: fixed-rate blocks with playback deadlines."""

    name: str
    blocks: int = 50
    block_bytes: int = 64 * 1024
    block_duration: float = 0.5  # seconds of playback per block

    def block_id(self, i: int) -> str:
        """Storage object id of block ``i``."""
        return f"video:{self.name}:{i}"

    def block_data(self, i: int) -> bytes:
        """Deterministic content of block ``i``."""
        return synthetic_block(self.block_id(i), self.block_bytes)

    @property
    def duration(self) -> float:
        """Total playback time in seconds."""
        return self.blocks * self.block_duration


class FlowModel:
    """Per-virtual-IP traffic rates for the Rainwall experiments.

    Each VIP carries a fluctuating offered load (Mbps).  Rates follow a
    bounded random walk, re-sampled every ``update_interval``; the total
    offered load is normalized to ``total_mbps`` so experiments sweep
    cluster size at constant demand.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        vips: list[str],
        total_mbps: float,
        volatility: float = 0.2,
    ):
        if not vips:
            raise ValueError("need at least one VIP")
        self.rng = rng
        self.vips = list(vips)
        self.total = total_mbps
        self.volatility = volatility
        weights = rng.uniform(0.5, 1.5, size=len(vips))
        self._weights = weights / weights.sum()

    def rates(self) -> dict[str, float]:
        """Current offered Mbps per VIP (sums to ``total``)."""
        return {v: float(self.total * w) for v, w in zip(self.vips, self._weights)}

    def step(self) -> dict[str, float]:
        """Randomly perturb the split and return the new rates."""
        jitter = self.rng.uniform(1 - self.volatility, 1 + self.volatility, len(self.vips))
        w = self._weights * jitter
        self._weights = w / w.sum()
        return self.rates()
