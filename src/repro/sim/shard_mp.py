"""Multiprocessing executor for sharded simulations.

The round protocol lives in :mod:`repro.sim.shard`; this module only
moves its step into worker processes.  :func:`run_sharded_mp` is the
:meth:`~repro.sim.shard.WindowGrants.advance` loop the in-process
executor runs, with a ``step`` that broadcasts ``("step", bounds,
handoffs)`` — one pipe round-trip per round — and each worker answers
``("out", staged, peeks)`` from
:meth:`~repro.sim.shard.ShardedSimulator.run_window` over its ranks.

**Persistent workers.**  The spawned pool (one pipe + process per
worker) is kept alive in a module-level registry keyed by worker
count, so bench repeats and repeated CLI runs in one process reuse the
warm interpreters instead of paying the ``spawn`` import cost per run;
each run re-sends its ``build`` op, naming the scenario builder as an
importable ``"module:attr"`` spec.  Pools are discarded (quit sent,
pipes closed, processes joined) whenever a run errors, and
:func:`shutdown_pools` reaps everything explicitly.

Routing never opens a handoff: the coordinator moves
:class:`~repro.sim.shard.Handoff` objects between pipes as the pipes
deliver them, and the payload is handed to its shard's ``on_inject``
only in the destination worker, via
:func:`~repro.sim.shard.deliver_handoff`.  The pipes pickle — the only
copy the protocol makes; in-process handoffs pass by reference — and
this module deliberately does not import ``pickle`` itself (a unit test
pins that).

Every injected event carries a layout-invariant key, so worker
scheduling adds no nondeterminism: ``workers=N`` produces the same
merged report as ``workers=1``, which the golden tests assert — the
copying executor is the oracle for the in-process one's by-reference
handoffs.  Tracing is refused here (in-process tracers share open-span
tables across kernels, which has no cross-process equivalent); run
with ``workers=1`` for span exports.
"""

from __future__ import annotations

import atexit
import importlib
import multiprocessing as mp
from typing import Any, Optional

from .shard import SimulationError, WindowGrants

__all__ = [
    "run_sharded_mp",
    "run_cluster_mp",
    "shutdown_pools",
    "MergedRun",
]


def _resolve(builder: str):
    """Import the ``"module:attribute"`` builder spec in this process."""
    module, _, attribute = builder.partition(":")
    try:
        return getattr(importlib.import_module(module), attribute)
    except (ImportError, AttributeError, ValueError) as exc:
        raise SimulationError(
            f"unknown shard-mp builder {builder!r}: {exc}"
        ) from None


def _worker_main(conn) -> None:
    """Generic persistent worker: builds on demand, steps until quit.

    Every op replies exactly once.  Failures reply ``("error", msg)``
    and *keep the loop alive* — the pool stays drainable and reusable;
    it is the coordinator's choice to discard it after an error.
    """
    sharded: Any = None
    ranks: list[int] = []
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        op = msg[0]
        if op == "quit":
            conn.close()
            return
        try:
            if op == "build":
                _, builder, spec, ranks, shards = msg
                built = _resolve(builder)(shards=shards, **spec)
                sharded = getattr(built, "sharded", built)
                # The monitor checks one process's kernels against each
                # other; a worker sees only its own ranks, so an
                # inherited REPRO_SANITIZE monitor would slow the run
                # and prove nothing (the sanitize CLI is in-process).
                sharded._hb = None
                for k in sharded.kernels:
                    k._hb = None
                if any(sharded.kernels[r].obs.tracer is not None for r in ranks):
                    raise SimulationError(
                        "tracers are not supported under workers > 1"
                    )
                reply = ("ready", sharded.lookahead, sharded.peeks(ranks))
            elif op == "step":
                _, bounds, handoffs = msg
                reply = ("out", *sharded.run_window(ranks, bounds, handoffs))
            else:  # "snapshot"
                hubs = [sharded.kernels[r].obs for r in ranks]
                reply = ("snap", [(o.metrics.snapshot(), o.bus.topic_counts()) for o in hubs])
        except Exception as exc:  # noqa: BLE001 — forwarded verbatim
            reply = ("error", str(exc) or repr(exc))
        conn.send(reply)


class _WorkerPool:
    """A persistent set of generic spawn workers joined by pipes."""

    def __init__(self, n_workers: int):
        ctx = mp.get_context("spawn")
        self.n_workers = n_workers
        self.conns = []
        self.procs = []
        for _ in range(n_workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    def pids(self) -> list:
        return [proc.pid for proc in self.procs]

    def broadcast(self, msgs: list) -> list:
        """Send one message per worker, then collect one reply per worker.

        All replies are drained before any error is raised, so the
        pipes are empty and the pool stays protocol-synchronized even
        when a worker reports a failure.
        """
        for conn, msg in zip(self.conns, msgs):
            conn.send(msg)
        replies, errors = [], []
        for conn in self.conns:
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                reply = ("error", "worker process died")
            replies.append(reply)
            if reply[0] == "error":
                errors.append(reply[1])
        if errors:
            raise SimulationError(errors[0])
        return replies

    def shutdown(self, timeout: float = 2.0) -> None:
        for conn in self.conns:
            try:
                conn.send(("quit",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self.conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - cleanup path
                proc.terminate()
                proc.join(timeout=timeout)
        self.conns, self.procs = [], []


#: live pools keyed by worker count, reused across runs in this process
_POOLS: dict[int, _WorkerPool] = {}


def _get_pool(n_workers: int) -> _WorkerPool:
    pool = _POOLS.get(n_workers)
    if pool is not None and all(proc.is_alive() for proc in pool.procs):
        return pool
    if pool is not None:
        pool.shutdown()
    pool = _POOLS[n_workers] = _WorkerPool(n_workers)
    return pool


def _discard_pool(pool: _WorkerPool) -> None:
    _POOLS.pop(pool.n_workers, None)
    pool.shutdown()


def shutdown_pools() -> None:
    """Quit and join every persistent worker pool (idempotent)."""
    for pool in list(_POOLS.values()):
        _discard_pool(pool)


atexit.register(shutdown_pools)


def run_sharded_mp(
    builder: str,
    spec: dict,
    shards: int,
    until: float,
    workers: Optional[int] = None,
) -> tuple[list[dict], list[dict]]:
    """Run a sharded scenario across worker processes.

    Returns ``(metric snapshots, event counts)`` — one entry per shard,
    ready for :func:`repro.obs.merge.merge_metric_snapshots` /
    :func:`merge_event_counts`.
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    n_workers = min(workers or shards, shards)
    if n_workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    # contiguous rank ranges per worker, like switch arcs per shard
    rank_sets = [
        list(range(w * shards // n_workers, (w + 1) * shards // n_workers))
        for w in range(n_workers)
    ]
    owner = [w for w, ranks in enumerate(rank_sets) for _ in ranks]
    pool = _get_pool(n_workers)
    try:
        replies = pool.broadcast(
            [("build", builder, spec, ranks, shards) for ranks in rank_sets]
        )
        grants = WindowGrants(
            replies[0][1], owner, [peek for reply in replies for peek in reply[2]]
        )

        def step(bounds: list, inbox: list) -> list:
            msgs = [("step", bounds, group) for group in inbox]
            return [reply[1:] for reply in pool.broadcast(msgs)]

        while grants.advance(step, until) < until:
            pass
        replies = pool.broadcast([("snapshot",)] * n_workers)
        snaps = [snap for reply in replies for snap in reply[1]]  # rank order
        return [metrics for metrics, _ in snaps], [events for _, events in snaps]
    except BaseException:
        # Failed runs must not leave workers blocked in recv() or
        # half-way through a protocol exchange: quit + close + join
        # immediately and drop the pool from the registry.
        _discard_pool(pool)
        raise


class MergedRun:
    """Report facade over a completed multiprocessing run."""

    def __init__(self, sim_time: float, metrics: dict, events: dict):
        self.sim_time = sim_time
        self._metrics = metrics
        self._events = events

    def metrics(self, scenario: str = "", **extra: Any):
        from ..obs import ClusterReport

        return ClusterReport(
            scenario=scenario,
            sim_time=self.sim_time,
            metrics=self._metrics,
            events=self._events,
            extra=dict(extra),
        )


def run_cluster_mp(
    builder: str,
    spec: dict,
    shards: int,
    until: float,
    workers: Optional[int] = None,
) -> MergedRun:
    """Run a registered cluster scenario under workers and merge."""
    from ..obs.merge import merge_event_counts, merge_metric_snapshots

    metric_snaps, event_counts = run_sharded_mp(
        builder, spec, shards, until, workers=workers
    )
    return MergedRun(
        sim_time=until,
        metrics=merge_metric_snapshots(metric_snaps),
        events=merge_event_counts(event_counts),
    )
