"""RainSan's dynamic head: happens-before sanitizer tests.

Clean runs must be silent; seeded violations must be caught.  The
seeding follows the *mutation-testing* recipe — the sanitizer is only
trustworthy if it flags the actual historical bugs it was built for, so
each mutation below re-introduces a real (fixed) defect in a throwaway
subclass and asserts the monitor reports it:

1. **HB002 — the PR 6 rudp cross-shard bug.**  The rudp transport once
   reached through ``transport.sim`` after a rebinding, so a timer could
   be scheduled onto a kernel that belongs to a different shard while
   another shard's window was executing (the fix is the "bound once"
   comment in :class:`repro.rudp.transport.RudpConnection`).
   ``_CrossShardTransport`` resurrects exactly that shape: ``self.sim``
   rebound to a peer shard's kernel, then a keepalive scheduled through
   it from inside the owning shard's window.  The monitor must flag the
   insert on the foreign kernel.

2. **HB001 — a deleted conservative-window check.**
   ``_UncheckedShardedSimulator`` routes through a copy of
   ``WindowGrants.advance`` *without* the ``h.time <= bounds[h.dest]``
   guard — the protocol's single check site, shared by both executors,
   so the mutation a refactor of the grant loop could introduce.  A
   handoff arriving exactly at its destination's bound then reaches the
   destination kernel.  Detection must survive because the check also
   lives at the kernel's one staging point (``ShardKernel.stage``), not
   only in the coordinator loop the mutation removed.  Two sibling
   mutants break the other halves of the rule: a grant that reports the
   run settled while a handoff is still pending (it is injected by the
   next ``run()``, below a frontier the destination already ran to),
   and a drive that keeps running a kernel after it stages (the reply
   of a ping-pong lands below the sender's frontier).  Both are caught
   at the one injection point (``deliver_handoff``).

3. **HB003 — a diverged replicated gauge.**  Control-replicated gauges
   (cluster shape) must agree across kernels; poking one replica's
   value simulates a codepath that updated state on only one shard.

To add a new sanitizer rule, follow the same pattern: find (or imagine)
the bug class, re-introduce it in a throwaway subclass here, and assert
the new rule fires with everything else silent.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.hb import HbMonitor, install_sanitizer, sanitize_enabled
from repro.rudp import RudpTransport
from repro.scenarios import SCENARIOS
from repro.sim import ShardedSimulator, SimulationError, host_origin
from repro.sim.shard import Handoff, ShardKernel, WindowGrants


MEMBERSHIP = SCENARIOS["membership"]


def _membership_cluster(shards: int):
    """The table's 6-node ring, crash-4 / 911-rejoin script installed."""
    return MEMBERSHIP.build(7, shards)


def _rules(monitor: HbMonitor) -> list:
    return sorted(f.rule for f in monitor.violations)


# -- clean runs are silent --------------------------------------------------


@pytest.mark.parametrize("shards", [1, 4])
def test_clean_membership_run_has_zero_findings(shards):
    cluster = _membership_cluster(shards)
    monitor = install_sanitizer(cluster.sharded)
    cluster.run(MEMBERSHIP.horizon)
    monitor.check_gauges(
        [k.obs.metrics.snapshot() for k in cluster.sharded.kernels]
    )
    report = monitor.report()
    assert report.ok, report.render()
    assert report.findings == []
    assert report.stats["events"] > 0
    if shards > 1:
        assert report.stats["windows"] > 0
        assert report.stats["handoffs"] > 0
        # every shard executed something and the barriers joined clocks
        assert report.stats["vc_min"] > 0


def test_elevated_grants_are_live_in_process_and_clean(capsys):
    """The in-process executor grants per-kernel bounds: rounds are far
    fewer than the ``horizon / lookahead`` lock-step count (and than the
    3,766 windows one global ``min(peek) + L`` window per round took),
    with no findings."""
    from repro.__main__ import main
    from repro.scenarios import CHURN_SMALL

    assert main(["sanitize", "churn-small", "--shards", "4", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["findings"] == []
    stats = report["stats"]
    lock_step = CHURN_SMALL["horizon"] / stats["lookahead"]
    assert lock_step == pytest.approx(16_000)
    assert 0 < stats["windows"] < lock_step / 12  # 991 rounds at seed 7
    assert stats["handoffs"] > 0


def test_shard1k_rounds_stay_within_budget(capsys):
    """The flagship at four shards settles in at most 1,500 rounds (995
    at seed 7); one global ``min(peek) + L`` window per round took
    7,438, because whoever held the token moved one lookahead a window."""
    from repro.__main__ import main

    assert main(["sanitize", "shard1k", "--shards", "4", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["findings"] == []
    assert 0 < report["stats"]["windows"] <= 1_500


def test_install_sanitizer_is_idempotent():
    cluster = _membership_cluster(2)
    monitor = install_sanitizer(cluster.sharded)
    assert install_sanitizer(cluster.sharded) is monitor
    assert all(k._hb is monitor for k in cluster.sharded.kernels)


def test_sanitizer_is_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not sanitize_enabled()
    # zero-cost-off contract: no monitor objects anywhere, and the class
    # attribute (not a per-instance dict entry) carries the None
    assert ShardKernel._hb is None
    sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.5)
    assert sharded._hb is None
    assert all(k._hb is None for k in sharded.kernels)
    assert all("_hb" not in k.__dict__ for k in sharded.kernels)


def test_env_var_installs_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sharded = ShardedSimulator(seed=1, shards=2, lookahead=0.5)
    assert isinstance(sharded._hb, HbMonitor)
    assert all(k._hb is sharded._hb for k in sharded.kernels)


_BUILD_SCRIPT = """
import sys
from repro.cluster import ShardedRainCluster
from repro.topology import diameter_ring

cluster = ShardedRainCluster(diameter_ring(6), seed=7, shards=2)
print(type(cluster.sharded._hb).__name__, "repro.analysis" in sys.modules)
"""


@pytest.mark.parametrize("env, want", [("", "NoneType False"), ("1", "HbMonitor True")])
def test_sharded_build_loads_the_analysis_package_only_when_sanitizing(env, want):
    # A fresh interpreter: the session around this test has imported
    # repro.analysis long ago.  Without REPRO_SANITIZE a sharded build
    # must not pay for compiling the linter and model checkers.
    src = str(Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _BUILD_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src, REPRO_SANITIZE=env),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == want


# -- mutation 1: the PR 6 rudp cross-shard scheduling bug (HB002) -----------


class _CrossShardTransport(RudpTransport):
    """Throwaway resurrection of the fixed rudp bug: ``self.sim`` rebound
    after construction, so timers land on whatever kernel the stale
    binding points at — here, deliberately, a peer shard's."""

    def adopt_foreign_kernel(self, kernel) -> None:
        self.sim = kernel  # the bug: breaks the bound-once invariant

    def keepalive(self) -> None:
        self.sim.call_in(1e-3, _noop)


def _noop() -> None:
    pass


def test_hb002_flags_cross_shard_schedule_from_rudp_bug():
    cluster = _membership_cluster(2)
    # a node owned by shard 0, and a kernel that is NOT its own
    i0 = next(i for i in range(6) if cluster.rank_of(i) == 0)
    rep = cluster.replica_of(i0)
    foreign = cluster.sharded.kernels[1]
    with rep.kernel.origin(host_origin(i0)):
        tp = _CrossShardTransport(rep.hosts[i0], port=5999)
    tp.adopt_foreign_kernel(foreign)
    # fire the buggy keepalive from inside shard 0's window
    cluster.sharded.control_at(0.5, 0, tp.keepalive)
    monitor = install_sanitizer(cluster.sharded)
    cluster.run(1.0)
    assert _rules(monitor) == ["HB002"]
    (finding,) = monitor.violations
    assert finding.path == "shard/1"  # flagged at the kernel written to
    assert "shard 0 scheduled onto shard 1" in finding.message


def test_same_shape_on_own_kernel_is_clean():
    """The control: the identical keepalive through the *correct*
    binding (the owning host's kernel) must not be flagged."""
    cluster = _membership_cluster(2)
    i0 = next(i for i in range(6) if cluster.rank_of(i) == 0)
    rep = cluster.replica_of(i0)
    with rep.kernel.origin(host_origin(i0)):
        tp = _CrossShardTransport(rep.hosts[i0], port=5999)
    cluster.sharded.control_at(0.5, 0, tp.keepalive)
    monitor = install_sanitizer(cluster.sharded)
    cluster.run(1.0)
    assert monitor.violations == []


# -- mutation 2: a deleted conservative-window check (HB001) ----------------


class _UncheckedGrants(WindowGrants):
    """Throwaway mutant: the stock ``advance`` with the window check
    (the ``h.time <= bounds[h.dest]`` raise) deleted."""

    def advance(self, step, until):
        bounds = self.bounds(until)
        replies = step(bounds, self.inbox)
        self.peeks = [p for _, peeks in replies for p in peeks]
        self.inbox = inbox = [[] for _ in replies]
        frontier = min(self.peeks)
        for staged, _ in replies:
            for h in staged:
                inbox[self.owner[h.dest]].append(h)
                frontier = min(frontier, h.time)
        if frontier > until:
            self.clock = until
        return self.clock


class _EarlySettlingGrants(WindowGrants):
    """Throwaway mutant: reports the run settled after every round,
    whatever is still pending."""

    def advance(self, step, until):
        super().advance(step, until)
        self.clock = until
        return until


class _UncheckedShardedSimulator(ShardedSimulator):
    grants = _UncheckedGrants

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        stock = self._grants
        self._grants = self.grants(self.lookahead, stock.owner, stock.peeks)


class _EarlySettlingShardedSimulator(_UncheckedShardedSimulator):
    grants = _EarlySettlingGrants


def _run_through_stages(kernel, until):
    while True:
        kernel.run(until)
        if not kernel._stopped:
            return


class _NonStoppingShardedSimulator(ShardedSimulator):
    """Throwaway mutant: the drive keeps running a kernel to its bound
    after it stages, instead of ending its round there."""

    def _advance_window(self, until, drive=_run_through_stages):
        return super()._advance_window(until, drive)


def _horizon_handoff_run(sim_cls, untils=(1.0,), arrival=0.5):
    """Drive rounds in which shard 0's event at ``t = 0`` stages a
    handoff to shard 1.

    At the default ``arrival`` it breaks the one contract the protocol
    rests on by the smallest margin: it lands at exactly ``t + L``, not
    strictly after, which is exactly shard 1's bound in that round (shard
    0's earliest event plus L)."""
    sim = sim_cls(seed=7, shards=2, lookahead=0.5)
    got = []
    sim.kernels[1].on_inject = got.append

    def stage() -> None:
        sim.kernels[0].stage(Handoff(1, arrival, arrival))

    sim.kernels[0].schedule_keyed(0.0, (1, 1), 0, stage, sched_time=0.0)
    monitor = install_sanitizer(sim)
    for until in untils:
        sim.run(until)
    assert got == [arrival]
    return monitor


def test_hb001_flags_injection_below_horizon_with_check_deleted():
    monitor = _horizon_handoff_run(_UncheckedShardedSimulator)
    assert _rules(monitor) == ["HB001"]
    (finding,) = monitor.violations
    assert finding.path == "shard/0"  # flagged where it was staged
    assert "at or before shard 1's bound t=0.5" in finding.message


def test_hb001_flags_injection_when_the_handoff_waited_across_runs():
    """A legal handoff (arriving at 0.6, beyond shard 1's bound 0.5) is
    left pending by a grant that settles ``run(0.7)`` early; the next
    ``run()`` injects it below the frontier 0.7 that shard 1 was moved
    to.  Frontiers persist across runs, so the injection is checked."""
    monitor = _horizon_handoff_run(
        _EarlySettlingShardedSimulator, untils=(0.7, 1.0), arrival=0.6
    )
    assert _rules(monitor) == ["HB001"]
    (finding,) = monitor.violations
    assert finding.path == "shard/1"  # flagged where it was injected
    assert "below the frontier t=0.7" in finding.message


def test_stock_exchange_still_raises_on_horizon_handoff():
    """The control: the un-mutated coordinator refuses the same handoff
    outright (the sanitizer is defense in depth, not the only guard),
    and settles the legal one inside the run that staged it."""
    with pytest.raises(SimulationError, match="conservative window violated"):
        _horizon_handoff_run(ShardedSimulator)
    monitor = _horizon_handoff_run(ShardedSimulator, untils=(0.7, 1.0), arrival=0.6)
    assert monitor.violations == []


def test_hb001_flags_handoff_staged_inside_window():
    """The sender-side variant: staging a handoff that arrives at or
    before its destination's bound is flagged at stage time, before the
    coordinator ever sees it."""
    monitor = HbMonitor(shards=2, lookahead=0.5)
    monitor.on_round([1.0, 0.5])
    monitor.on_stage(0, 1, 0.3)
    assert _rules(monitor) == ["HB001"]
    assert monitor.violations[0].path == "shard/0"  # flagged at the sender


def _ping_pong(sim_cls):
    """Shard 0 pings shard 1 at t=0 and has local work at 1.0 and 2.0;
    shard 1 answers at the ping's arrival (0.6), one hop of 0.6 back.
    The reply lands at 1.2, beyond shard 0's bound 1.1 in the round it
    is staged — but only a kernel that stopped at its ping has not run
    past 1.2 by then."""
    sim = sim_cls(seed=7, shards=2, lookahead=0.5)
    k0, k1 = sim.kernels
    replies, local = [], []
    k0.on_inject = replies.append

    def ping() -> None:
        k0.stage(Handoff(1, k0.now + 0.6, "ping"))

    def pong() -> None:
        k1.stage(Handoff(0, k1.now + 0.6, "pong"))

    k1.on_inject = lambda payload: k1.schedule_keyed(
        0.6, (1, 2), 0, pong, sched_time=0.0
    )
    k0.schedule_keyed(0.0, (1, 1), 0, ping, sched_time=0.0)
    for t in (1.0, 2.0):
        k0.schedule_keyed(t, (1, 1), 1, local.append, t, sched_time=0.0)
    monitor = install_sanitizer(sim)
    sim.run(3.0)
    assert replies == ["pong"] and local == [1.0, 2.0]
    return monitor


def test_hb001_flags_a_reply_below_the_frontier_of_a_kernel_that_ran_on():
    monitor = _ping_pong(_NonStoppingShardedSimulator)
    assert _rules(monitor) == ["HB001"]
    (finding,) = monitor.violations
    assert finding.path == "shard/0"  # the pinging kernel ran on to t=3
    assert "at t=1.2, at or below the frontier t=3" in finding.message


def test_ping_pong_is_clean_when_the_pinging_kernel_stops():
    assert _ping_pong(ShardedSimulator).violations == []


# -- mutation 3: a diverged replicated gauge (HB003) ------------------------


def test_hb003_flags_gauge_divergence():
    cluster = _membership_cluster(2)
    monitor = install_sanitizer(cluster.sharded)
    cluster.run(1.0)
    # mutate one replica's control-replicated gauge after the run
    shape = cluster.replicas[0].kernel.obs.metrics.gauge("cluster.config.shape")
    shape.labels(param="nodes").set(999.0)
    monitor.check_gauges(
        [k.obs.metrics.snapshot() for k in cluster.sharded.kernels]
    )
    assert _rules(monitor) == ["HB003"]
    msg = monitor.violations[0].message
    assert "cluster.config.shape" in msg and "999" in msg


# -- report shape -----------------------------------------------------------


def test_report_is_canonical_and_deterministic():
    monitor = _horizon_handoff_run(_UncheckedShardedSimulator)
    report = monitor.report()
    assert not report.ok
    assert report.kind == "sanitize"
    assert report.stats["shards"] == 2
    assert report.stats["lookahead"] == 0.5
    assert report.stats["windows"] == 2
    # serialization is stable under repetition
    assert report.to_json() == monitor.report().to_json()
    rendered = report.render()
    assert "HB001" in rendered
