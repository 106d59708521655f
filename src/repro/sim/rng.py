"""Deterministic, named random-number streams.

Every stochastic component of the simulation (link loss, workload
inter-arrivals, fault schedules, ...) draws from its *own* named stream so
that adding a new random component never perturbs existing ones, and so a
whole experiment replays bit-identically from one master seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngRegistry", "stream_seed"]


def stream_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for stream ``name`` from ``master_seed``.

    Uses SHA-256 so the derivation is stable across Python processes
    (``hash()`` is salted per-process and unusable here).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """Factory and cache of named :class:`numpy.random.Generator` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same stream object within one
        registry, and to an identically-seeded stream across registries
        built with the same master seed.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(stream_seed(self.master_seed, name))
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:
        return f"RngRegistry(master_seed={self.master_seed}, streams={len(self._streams)})"
