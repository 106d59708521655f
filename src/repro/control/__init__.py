"""Control plane: steerable simulations with streaming telemetry.

The batch entry points (``python -m repro metrics``, the benchmarks)
run a scenario to its horizon and print one report.  This package wraps
every entry of the same table (:data:`repro.scenarios.SCENARIOS`) in a
*steerable* driver — run/pause/resume, step by simulated duration, run
to an event count — and serves live telemetry
over a stdlib HTTP JSON API plus a zero-dependency single-file HTML
dashboard (``python -m repro serve <scenario>``).

Layering: everything here sits strictly *above* the simulation stack.
The driver only calls :class:`~repro.sim.ShardedSimulator`'s public
``run`` / ``run_events`` (both callers of its one round protocol; one
shard is its exact event-granularity case), and telemetry rides
the existing observability substrate (:class:`~repro.obs.EventRing`,
:class:`~repro.obs.ClusterReport`, :class:`~repro.obs.SpanTracer`), so
serving a simulation cannot change what it computes.

Determinism contract: table scenarios are **fully scripted at build
time** — faults and workloads are scheduled before the first step — so
driving one to its horizon through any sequence of pause/step/run calls
yields a :class:`~repro.obs.ClusterReport` byte-identical to the batch
``python -m repro metrics <scenario>`` run (pinned by
``tests/test_control_driver.py``).  Interactive fault injection
(``POST /api/fault``) deliberately breaks from the script — the point
of the dashboard — and is applied only while the driver is paused, at a
barrier-synchronized instant, so the run stays deterministic *given*
the injection times.
"""

from __future__ import annotations

from .driver import ScenarioDriver

__all__ = ["ScenarioDriver"]
