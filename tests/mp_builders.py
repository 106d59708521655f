"""Scenario builders imported by shard_mp *worker processes* in tests.

These must be module-level callables reachable by import under the
``spawn`` start method, which is why they live here rather than inline
in the test functions — workers re-import this module by name via the
``"tests.mp_builders:attr"`` direct builder form.
"""

from __future__ import annotations

from repro.sim.shard import Handoff, ShardedSimulator


def _stage(kernel, dest: int, time: float) -> None:
    kernel.stage(Handoff(dest, time, ("probe", time)))


def build_no_handler(seed: int = 0, shards: int = 2, **_):
    """Shard 1 stages a conservative handoff, but shard 0 never installs
    ``on_inject`` — delivery must fail inside the destination worker."""
    sim = ShardedSimulator(seed=seed, shards=shards, lookahead=0.1)
    k = sim.kernels[1]
    sim.control_at(0.05, 1, _stage, k, 0, 0.25)
    return sim


def build_window_violation(seed: int = 0, shards: int = 2, **_):
    """Shard 1 stages a handoff arriving *inside* shard 0's bound (0.05
    + 0.1) — lookahead claims 0.1 s but the 'link' delivers in 0.01 s,
    the misconfiguration the conservative check exists to catch."""
    sim = ShardedSimulator(seed=seed, shards=shards, lookahead=0.1)
    k = sim.kernels[1]
    sim.control_at(0.05, 1, _stage, k, 0, 0.06)
    return sim


def _boom() -> None:
    raise RuntimeError("worker event exploded")


def build_raising_event(seed: int = 0, shards: int = 2, **_):
    """An event callback raises mid-window inside a worker."""
    sim = ShardedSimulator(seed=seed, shards=shards, lookahead=0.1)
    sim.control_at(0.05, 1, _boom)
    return sim


def _receive(kernel, payloads: list):
    def on_inject(payload) -> None:
        payloads.append(payload)

    kernel.on_inject = on_inject


def build_ping(seed: int = 0, shards: int = 2, **_):
    """A benign two-shard exchange: shard 1 sends, shard 0 receives."""
    sim = ShardedSimulator(seed=seed, shards=shards, lookahead=0.1)
    _receive(sim.kernels[0], [])
    _receive(sim.kernels[1], [])
    sim.control_at(0.05, 1, _stage, sim.kernels[1], 0, 0.25)
    return sim
