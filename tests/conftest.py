"""Shared fixtures: flight-recorder capture for failing tests, and the
whole tree linted once per session.

Tests that drive a simulation can opt into crash-dump capture::

    def test_something(flight_recorder):
        sim = Simulator(seed=7)
        flight_recorder.attach(sim)
        ...

If the test then fails, the report grows a "flight recorder" section
holding the last-N-events ring buffer and any open spans as canonical
JSON: :meth:`repro.obs.FlightRecorder.dump`, serialized with sorted
keys.
"""

from __future__ import annotations

import contextlib
import io
import json
from types import SimpleNamespace

import pytest

#: what CI lints: the library plus the benchmarks and examples that call it
LINTED_TREE = ("src", "benchmarks", "examples")


class FlightRecorderRegistry:
    """Per-test collection of attached flight recorders."""

    def __init__(self):
        self.recorders = []  # list of (label, FlightRecorder)

    def attach(self, sim_or_obs, capacity: int = 512, label: str | None = None):
        """Install a recorder on a simulator (or hub) and track it."""
        obs = getattr(sim_or_obs, "obs", sim_or_obs)
        rec = obs.install_flight_recorder(capacity=capacity)
        self.recorders.append((label or f"sim{len(self.recorders)}", rec))
        return rec


@pytest.fixture
def flight_recorder():
    """Opt-in fixture: attach flight recorders; dumps ride failure reports."""
    registry = FlightRecorderRegistry()
    yield registry
    for _, rec in registry.recorders:
        rec.close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    registry = getattr(item, "funcargs", {}).get("flight_recorder")
    if not isinstance(registry, FlightRecorderRegistry):
        return
    for label, rec in registry.recorders:
        report.sections.append(
            (
                f"flight recorder ({label})",
                json.dumps(
                    rec.dump("test-failure", test=item.nodeid),
                    indent=2,
                    sort_keys=True,
                    default=str,
                )
                + "\n",
            )
        )


@pytest.fixture(scope="session")
def linted_tree():
    """The tree linted the way CI lints it, once per session.

    ``code`` and ``output`` are ``python -m repro lint <tree> --strict``'s
    exit status and text report; ``index`` is a separate whole-program
    index of the same tree, for tests that inspect or re-run rules on it.
    """
    from repro.__main__ import main
    from repro.analysis import build_program_index

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lint", *LINTED_TREE, "--strict"])
    return SimpleNamespace(
        paths=LINTED_TREE,
        code=code,
        output=out.getvalue(),
        index=build_program_index(LINTED_TREE),
    )
