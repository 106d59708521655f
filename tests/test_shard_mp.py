"""Multiprocessing executor: protocol contracts and failure paths.

The byte-identical ``workers=N == workers=1`` equality lives in
``test_shard_golden.py``; this module pins the executor's operational
contracts — errors surface as :class:`SimulationError` with worker
processes cleanly reaped, the coordinator never touches blob payloads,
and the worker pool persists across runs.
"""

from __future__ import annotations

import inspect
import multiprocessing as mp

import pytest

import repro.sim.shard_mp as shard_mp
from repro.sim.shard import Handoff, SimulationError
from repro.sim.shard_mp import run_sharded_mp, shutdown_pools


@pytest.fixture(autouse=True)
def _clean_pools():
    # Start from a cold pool registry so "workers reaped" assertions
    # see only processes this test created; leave none behind either.
    shutdown_pools()
    yield
    shutdown_pools()


def _assert_reaped():
    assert not shard_mp._POOLS, "failed run left its pool registered"
    assert mp.active_children() == [], "failed run left live workers"


# -- error paths -------------------------------------------------------------


@pytest.mark.parametrize(
    "builder",
    [
        "no-such-builder",  # colon-less: only "module:attr" specs resolve
        "churn",  # the registry entry that used to exist
        "tests.mp_builders:no_such_attr",
        "no_such_module:build",
        ":build",
    ],
)
def test_unknown_builder_raises_and_reaps(builder):
    with pytest.raises(SimulationError, match="unknown shard-mp builder"):
        run_sharded_mp(builder, {}, shards=2, until=0.5, workers=2)
    _assert_reaped()


def test_missing_injection_handler_raises_and_reaps():
    with pytest.raises(SimulationError, match="no injection handler"):
        run_sharded_mp(
            "tests.mp_builders:build_no_handler",
            {"seed": 3},
            shards=2,
            until=0.5,
            workers=2,
        )
    _assert_reaped()


def test_window_violation_raises_and_reaps():
    with pytest.raises(SimulationError, match="conservative window violated"):
        run_sharded_mp(
            "tests.mp_builders:build_window_violation",
            {"seed": 3},
            shards=2,
            until=0.5,
            workers=2,
        )
    _assert_reaped()


def test_worker_event_exception_raises_and_reaps():
    with pytest.raises(SimulationError, match="worker event exploded"):
        run_sharded_mp(
            "tests.mp_builders:build_raising_event",
            {"seed": 3},
            shards=2,
            until=0.5,
            workers=2,
        )
    _assert_reaped()


# -- the pipes are the only copy -----------------------------------------------


def test_coordinator_never_pickles():
    """Routing passes handoffs through unopened: the coordinator module
    must not pickle or unpickle payloads itself — the pipes copy them,
    and the payload reaches a handler only in the destination worker via
    ``deliver_handoff``."""
    assert not hasattr(shard_mp, "pickle")
    src = inspect.getsource(shard_mp)
    assert "import pickle" not in src
    assert "pickle.loads" not in src
    assert "pickle.dumps" not in src


def test_handoff_has_slots():
    h = Handoff(dest=0, time=1.0, payload=b"x")
    assert not hasattr(h, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        h.extra = 1  # type: ignore[attr-defined]


# -- pool persistence --------------------------------------------------------


def test_pool_persists_across_runs():
    spec = {"seed": 3}
    run_sharded_mp("tests.mp_builders:build_ping", spec, 2, until=0.5, workers=2)
    pool = shard_mp._POOLS.get(2)
    assert pool is not None, "successful run should leave a warm pool"
    pids = pool.pids()
    assert all(proc.is_alive() for proc in pool.procs)
    run_sharded_mp("tests.mp_builders:build_ping", spec, 2, until=0.5, workers=2)
    assert shard_mp._POOLS.get(2) is pool
    assert pool.pids() == pids, "second run should reuse the same workers"
    shutdown_pools()
    assert mp.active_children() == []


def test_snapshots_cover_every_shard():
    metric_snaps, event_counts = run_sharded_mp(
        "tests.mp_builders:build_ping", {"seed": 3}, 4, until=0.5, workers=2
    )
    assert len(metric_snaps) == 4
    assert len(event_counts) == 4
