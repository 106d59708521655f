"""Tests for the protocol model checkers (Figs. 7-8, Sec. 3)."""

import json

import pytest

from repro.analysis import (
    FIG7_STATES,
    FaultSchedule,
    check_fig7,
    enumerate_single_fault_schedules,
    explore_pair,
    pair_report,
    ring_report,
    run_schedule,
)
from repro.analysis import chm_model
from repro.channel.state_machine import ConsistentHistoryMachine
from repro.__main__ import main


class TestFig7:
    def test_reachable_set_is_exactly_the_papers_five_states(self):
        result = check_fig7()
        assert result.complete, "exploration must reach a fixpoint"
        assert result.ok, [f.message for f in result.findings]
        assert result.endpoint_states() == FIG7_STATES

    def test_up0_is_unreachable_in_piggyback_mode(self):
        result = check_fig7()
        assert ("up", 0) not in result.endpoint_states()

    def test_pair_space_is_finite_and_closed(self):
        result = check_fig7()
        assert 0 < len(result.states) < 200
        assert result.transitions > len(result.states)


class TestExhaustivePair:
    @pytest.mark.parametrize("slack", [2, 3])
    @pytest.mark.parametrize("titi", [True, False])
    def test_invariants_hold_at_fixpoint(self, slack, titi):
        result = explore_pair(slack=slack, token_implies_tin=titi)
        assert result.complete
        assert result.ok, [f.message for f in result.findings]

    @pytest.mark.parametrize("slack", [2, 3])
    def test_token_conservation_exactly_2n(self, slack):
        result = explore_pair(slack=slack)
        assert all(s.total_tokens() == 2 * slack for s in result.states)

    @pytest.mark.parametrize("slack", [2, 3])
    def test_histories_never_differ_by_more_than_n(self, slack):
        result = explore_pair(slack=slack)
        assert max(abs(s.lead) for s in result.states) <= slack
        # the bound is tight: some interleaving actually reaches it
        assert max(abs(s.lead) for s in result.states) == slack

    def test_depth_cap_marks_run_incomplete(self):
        result = explore_pair(slack=2, max_depth=1)
        assert not result.complete

    def test_deterministic_exploration(self):
        a = explore_pair(slack=3)
        b = explore_pair(slack=3)
        assert sorted(a.states) == sorted(b.states)
        assert a.transitions == b.transitions


class _LeakyMachine(ConsistentHistoryMachine):
    """A deliberately broken machine: tout destroys the token instead of
    sending it (breaks conservation), to prove the checker catches bugs."""

    def on_timeout(self, now=0.0):
        res = super().on_timeout(now)
        if res.tokens_to_send:
            self.tokens_sent_total -= res.tokens_to_send
            res.tokens_to_send = 0
        return res


class _HyperMachine(ConsistentHistoryMachine):
    """Broken the other way: a token receipt flips the view twice
    (breaks stability and the slack accounting)."""

    def on_token(self, now=0.0):
        res = super().on_token(now)
        if res.transition is not None:
            self._flip(res.transition.trigger, now)
        return res


class TestCheckerCatchesBugs:
    def test_conservation_violation_detected(self, monkeypatch):
        monkeypatch.setattr(chm_model, "ConsistentHistoryMachine", _LeakyMachine)
        result = explore_pair(slack=2)
        assert not result.ok
        assert any(f.rule == "MC001" for f in result.findings)

    def test_stability_violation_detected(self, monkeypatch):
        monkeypatch.setattr(chm_model, "ConsistentHistoryMachine", _HyperMachine)
        result = explore_pair(slack=2)
        assert not result.ok
        assert any(f.rule == "MC003" for f in result.findings)


class TestPairReport:
    def test_full_battery_passes(self):
        report = pair_report(slacks=(2, 3))
        assert report.ok, report.render()
        assert report.stats["fig7_endpoint_states"] == 5
        assert report.stats["pair_runs"] == 5

    def test_report_is_deterministic(self):
        assert pair_report().to_json() == pair_report().to_json()


class TestRingExploration:
    def test_schedule_enumeration_is_deterministic_cross_product(self):
        schedules = enumerate_single_fault_schedules(
            ["B", "A"], [1.0, 0.5], [None, 2.0]
        )
        assert len(schedules) == 8
        assert schedules[0] == FaultSchedule("A", 0.5, None)
        assert [s.victim for s in schedules[:4]] == ["A"] * 4

    def test_single_schedule_crash_of_first_holder(self):
        result = run_schedule(FaultSchedule(victim="A", fail_at=0.65))
        assert result.ok, result.violations

    def test_single_schedule_crash_and_rejoin(self):
        result = run_schedule(
            FaultSchedule(victim="B", fail_at=1.35, recover_after=4.0)
        )
        assert result.ok, result.violations

    def test_quick_grid_all_single_fault_schedules_pass(self):
        report = ring_report(n=3, detections=("aggressive",), quick=True)
        assert report.ok, report.render()
        assert report.stats["ring_schedules"] == 12
        # regenerations happen (the fault grid actually kills holders)
        assert report.stats["ring_max_lineages"] >= 2


class TestCli:
    def test_modelcheck_quick_exits_zero(self, capsys):
        assert main(["modelcheck", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "modelcheck: OK" in out
        assert "fig7_endpoint_states = 5" in out

    def test_modelcheck_json_is_deterministic(self, capsys):
        assert main(["modelcheck", "--quick", "--skip-ring", "--json"]) == 0
        first = capsys.readouterr().out
        assert json.loads(first)["ok"] is True
        assert main(["modelcheck", "--quick", "--skip-ring", "--json"]) == 0
        assert capsys.readouterr().out == first
