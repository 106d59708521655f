"""Tests for the consistent-history state machine (paper Figs. 7-8).

Includes an executable model of the two-endpoint system (machines plus a
reliable FIFO token channel) used to check the paper's three properties:
correctness, bounded slack, and stability.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import ChannelView, ConsistentHistoryMachine, Trigger


def test_initial_state_is_up_full_tokens():
    m = ConsistentHistoryMachine(slack=2)
    assert m.view is ChannelView.UP
    assert m.tokens == 2
    assert m.state_label() == "Up(t=2)"
    assert m.unacknowledged == 0


def test_slack_below_two_rejected():
    with pytest.raises(ValueError):
        ConsistentHistoryMachine(slack=1)


class TestFig7Edges:
    """Every edge of the five-state N=2 machine, one by one."""

    def mk(self):
        return ConsistentHistoryMachine(slack=2, token_implies_tin=True)

    def test_up2_tout_to_down1(self):
        m = self.mk()
        r = m.on_timeout()
        assert r.tokens_to_send == 1 and r.transition is not None
        assert m.state_label() == "Down(t=1)"

    def test_up2_token_to_down2_catching_up(self):
        m = self.mk()
        r = m.on_token()
        assert r.tokens_to_send == 1 and r.transition is not None
        assert m.state_label() == "Down(t=2)"

    def test_down2_token_to_up2(self):
        m = self.mk()
        m.on_token()  # -> Down(2)
        r = m.on_token()
        assert r.tokens_to_send == 1 and r.transition is not None
        assert m.state_label() == "Up(t=2)"

    def test_down2_tout_noop(self):
        m = self.mk()
        m.on_token()  # -> Down(2)
        r = m.on_timeout()
        assert r.transition is None and r.tokens_to_send == 0
        assert m.state_label() == "Down(t=2)"

    def test_down1_token_to_up1(self):
        m = self.mk()
        m.on_timeout()  # -> Down(1)
        r = m.on_token()
        assert r.transition is not None and r.tokens_to_send == 1
        assert m.state_label() == "Up(t=1)"

    def test_down1_tout_noop(self):
        m = self.mk()
        m.on_timeout()
        r = m.on_timeout()
        assert r.transition is None
        assert m.state_label() == "Down(t=1)"

    def test_up1_token_absorbs_to_up2(self):
        m = self.mk()
        m.on_timeout()
        m.on_token()  # -> Up(1)
        r = m.on_token()
        assert r.transition is None and r.tokens_to_send == 0
        assert m.state_label() == "Up(t=2)"

    def test_up1_tout_to_down0(self):
        m = self.mk()
        m.on_timeout()
        m.on_token()  # -> Up(1)
        r = m.on_timeout()
        assert r.transition is not None and r.tokens_to_send == 1
        assert m.state_label() == "Down(t=0)"

    def test_down0_token_absorbs_to_down1_no_flip(self):
        m = self.mk()
        m.on_timeout()
        m.on_token()
        m.on_timeout()  # -> Down(0)
        r = m.on_token()
        assert r.transition is None and r.tokens_to_send == 0
        assert m.state_label() == "Down(t=1)"

    def test_down0_tout_noop(self):
        m = self.mk()
        m.on_timeout()
        m.on_token()
        m.on_timeout()  # -> Down(0)
        r = m.on_timeout()
        assert r.transition is None
        assert m.state_label() == "Down(t=0)"

    def test_exactly_five_states_reachable(self):
        # BFS over the trigger alphabet from the initial state.
        seen = set()
        frontier = [()]
        while frontier:
            path = frontier.pop()
            m = self.mk()
            for trig in path:
                m.feed(trig)
            label = m.state_label()
            if label in seen:
                continue
            seen.add(label)
            if len(path) < 8:
                frontier.extend(
                    [path + (Trigger.TOUT,), path + (Trigger.TOKEN,)]
                )
        assert seen == {"Up(t=2)", "Down(t=2)", "Down(t=1)", "Up(t=1)", "Down(t=0)"}


class TestGeneralSlack:
    def test_explicit_tin_transitions(self):
        m = ConsistentHistoryMachine(slack=3, token_implies_tin=False)
        m.on_timeout()
        assert m.state_label() == "Down(t=2)"
        r = m.on_timein()
        assert r.transition is not None and m.state_label() == "Up(t=1)"

    def test_tin_while_up_noop(self):
        m = ConsistentHistoryMachine(slack=3, token_implies_tin=False)
        r = m.on_timein()
        assert r.transition is None

    def test_slack_blocks_at_zero_tokens(self):
        m = ConsistentHistoryMachine(slack=2, token_implies_tin=False)
        m.on_timeout()  # Down(1)
        m.on_timein()  # Up(0)
        r = m.on_timeout()  # blocked: would exceed slack
        assert r.blocked and r.transition is None
        assert m.blocked_events == 1
        assert m.view is ChannelView.UP  # stuck Up until a token arrives

    def test_lead_never_exceeds_slack(self):
        for n in (2, 3, 5):
            m = ConsistentHistoryMachine(slack=n, token_implies_tin=False)
            for _ in range(20):  # flap hard with no acknowledgements
                m.on_timeout()
                m.on_timein()
            assert m.unacknowledged <= n
            assert m.transition_count <= n

    def test_token_without_tin_mode_stays_down_until_tin(self):
        m = ConsistentHistoryMachine(slack=2, token_implies_tin=False)
        m.on_timeout()  # Down(1)
        r = m.on_token()  # absorbs only
        assert r.transition is None
        assert m.state_label() == "Down(t=2)"


class _FifoWorld:
    """Two machines joined by reliable FIFO token channels.

    Models the paper's system: tokens are conserved, never lost or
    duplicated, delivered in order (the sliding window layer guarantees
    this); touts/tins arrive adversarially.
    """

    def __init__(self, slack=2, token_implies_tin=True):
        self.a = ConsistentHistoryMachine(slack, token_implies_tin, name="A")
        self.b = ConsistentHistoryMachine(slack, token_implies_tin, name="B")
        self.to_b: deque[int] = deque()
        self.to_a: deque[int] = deque()
        self.max_lead = 0

    def _after(self, side, result):
        q = self.to_b if side is self.a else self.to_a
        for _ in range(result.tokens_to_send):
            q.append(1)
        lead = abs(self.a.transition_count - self.b.transition_count)
        self.max_lead = max(self.max_lead, lead)

    def step(self, side_name: str, action: str) -> None:
        side = self.a if side_name == "a" else self.b
        if action == "tout":
            self._after(side, side.on_timeout())
        elif action == "tin":
            self._after(side, side.on_timein())
        elif action == "deliver":
            q = self.to_a if side is self.a else self.to_b
            if q:
                q.popleft()
                self._after(side, side.on_token())

    def drain(self) -> None:
        """Deliver all in-flight tokens (channel eventually live)."""
        for _ in range(1000):
            if not self.to_a and not self.to_b:
                return
            if self.to_a:
                self.step("a", "deliver")
            if self.to_b:
                self.step("b", "deliver")
        raise AssertionError("token exchange did not quiesce")

    def histories_consistent(self) -> bool:
        ha = [t.view for t in self.a.history]
        hb = [t.view for t in self.b.history]
        shorter, longer = (ha, hb) if len(ha) <= len(hb) else (hb, ha)
        return longer[: len(shorter)] == shorter


class TestTwoEndpointProperties:
    def test_simple_outage_and_recovery(self):
        w = _FifoWorld()
        w.step("a", "tout")  # A times out
        w.drain()  # channel recovers; tokens flow
        assert w.histories_consistent()
        assert w.a.view is ChannelView.UP and w.b.view is ChannelView.UP
        views = [t.view for t in w.a.history]
        assert views == [ChannelView.DOWN, ChannelView.UP]

    def test_both_sides_tout_simultaneously(self):
        w = _FifoWorld()
        w.step("a", "tout")
        w.step("b", "tout")
        w.drain()
        assert w.histories_consistent()
        assert w.a.view is w.b.view is ChannelView.UP
        assert w.a.transition_count == w.b.transition_count == 2

    def test_rapid_flapping_respects_slack(self):
        w = _FifoWorld()
        for _ in range(10):  # A flaps without hearing back
            w.step("a", "tout")
            w.step("a", "deliver")  # nothing queued; no-op
        assert w.a.transition_count <= 2
        assert w.max_lead <= 2

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.sampled_from(["tout", "tin", "deliver"]),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_property_bounded_slack_and_consistency(self, script):
        w = _FifoWorld(slack=2, token_implies_tin=True)
        for side, action in script:
            w.step(side, action)
            assert w.histories_consistent(), "histories diverged"
            assert (
                abs(w.a.transition_count - w.b.transition_count) <= 2 + len(w.to_a) + len(w.to_b)
            )
        w.drain()
        assert w.histories_consistent()
        # After quiescence both sides agree exactly.
        assert w.a.transition_count == w.b.transition_count
        assert w.a.view is w.b.view
        # Bounded slack held throughout.
        assert w.max_lead <= 2

    @given(
        st.integers(min_value=2, max_value=5),
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.sampled_from(["tout", "tin", "deliver"]),
            ),
            max_size=150,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_general_slack(self, slack, script):
        w = _FifoWorld(slack=slack, token_implies_tin=False)
        for side, action in script:
            w.step(side, action)
        w.drain()
        assert w.histories_consistent()
        assert w.max_lead <= slack

    def test_stability_one_transition_per_trigger(self):
        # Each fed event yields at most one observable transition.
        m = ConsistentHistoryMachine(slack=2)
        rng_script = [Trigger.TOUT, Trigger.TOKEN, Trigger.TOUT, Trigger.TOKEN] * 10
        for trig in rng_script:
            before = m.transition_count
            m.feed(trig)
            assert m.transition_count - before <= 1
