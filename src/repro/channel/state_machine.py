"""The consistent-history state machine (paper Figs. 7 and 8).

Pure protocol logic, no I/O: feed triggers in, get token-send actions
out.  One machine runs at each end of a monitored channel; tokens travel
between them on a reliable in-order substrate (in practice, cumulative
counters piggybacked on pings — see :mod:`repro.channel.monitor`).

Semantics, reconstructed from the paper's state descriptions
(Sec. 2.3/2.4):

- The machine holds ``t`` tokens, ``0 ≤ t ≤ N`` (the slack).  ``N − t``
  is the number of the machine's own transitions not yet acknowledged by
  the peer.  Both sides start Up with ``t = N``.
- **tout** while Up: if ``t > 0``, flip to Down and send one token
  (consuming it); if ``t == 0`` the flip is *blocked* by the
  bounded-slack constraint (the monitor will re-raise the tout later).
  A tout while Down is a no-op.
- **tin** while Down: symmetric — flip to Up and send one token when
  ``t > 0``; blocked at ``t == 0``; no-op while Up.
- **token receipt**: if ``t == N`` the peer has gotten *ahead* (it made
  a transition we have not mirrored), so flip immediately — a
  "catching-up" transition — and send a token back (``t`` stays ``N``).
  Otherwise absorb the token (``t += 1``) as an acknowledgement of one
  of our past transitions.
- **token-implies-tin** (the Fig. 7 / N = 2 behaviour, used whenever
  tokens ride on ping responses): a token that arrives is itself proof
  the channel works, so after absorbing, if we are fully acknowledged
  (``t == N``) and still Down, flip Up as if a tin had fired.  With
  ``slack=2`` and this flag the machine is *exactly* the five-state
  machine of Fig. 7 (Up2, Down2, Down1, Up1, Down0).

The three paper properties are testable on this object:

- *Correctness* — with a live channel both ends converge to the true
  state (see monitor tests);
- *Bounded slack* — ``lead = N − t`` never exceeds ``N``, hence the two
  ends' transition counts never differ by more than ``N``;
- *Stability* — each trigger causes at most one observable transition
  (``transitions_per_trigger`` in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .events import ChannelView, Transition, Trigger

__all__ = ["ConsistentHistoryMachine", "StepResult"]


@dataclass
class StepResult:
    """Outcome of feeding one trigger to the machine."""

    tokens_to_send: int = 0
    transition: Optional[Transition] = None
    blocked: bool = False


class ConsistentHistoryMachine:
    """One endpoint of the consistent-history link protocol.

    Parameters
    ----------
    slack:
        The bound N ≥ 2 on how far this endpoint's transition history may
        lead or lag the peer's.
    token_implies_tin:
        Treat token arrival as evidence of connectivity (Fig. 7 mode;
        required when tokens are piggybacked on pings and no explicit
        tin source exists).
    name:
        Label used in traces.
    """

    def __init__(self, slack: int = 2, token_implies_tin: bool = True, name: str = ""):
        if slack < 2:
            raise ValueError("slack must be at least 2 (paper Sec. 2.3)")
        self.slack = slack
        self.token_implies_tin = token_implies_tin
        self.name = name
        self.view = ChannelView.UP
        self.tokens = slack  # t: starts full, no unacknowledged transitions
        self.history: list[Transition] = []
        self.tokens_sent_total = 0
        self.tokens_received_total = 0
        self.blocked_events = 0

    # -- invariant helpers -----------------------------------------------

    @property
    def unacknowledged(self) -> int:
        """Own transitions the peer has not yet acknowledged (= N − t)."""
        return self.slack - self.tokens

    @property
    def transition_count(self) -> int:
        """Observable transitions made so far."""
        return len(self.history)

    def state_label(self) -> str:
        """Paper-style state name, e.g. ``Up(t=2)``."""
        return f"{'Up' if self.view is ChannelView.UP else 'Down'}(t={self.tokens})"

    # -- core step -------------------------------------------------------------

    def _flip(self, trigger: Trigger, now: float) -> Transition:
        self.view = self.view.flipped()
        tr = Transition(
            index=len(self.history), view=self.view, trigger=trigger, time=now
        )
        self.history.append(tr)
        return tr

    def on_timeout(self, now: float = 0.0) -> StepResult:
        """Feed a tout (link probably lost)."""
        if self.view is ChannelView.DOWN:
            return StepResult()  # already down: nothing observable
        if self.tokens == 0:
            self.blocked_events += 1
            return StepResult(blocked=True)
        self.tokens -= 1
        self.tokens_sent_total += 1
        return StepResult(tokens_to_send=1, transition=self._flip(Trigger.TOUT, now))

    def on_timein(self, now: float = 0.0) -> StepResult:
        """Feed a tin (link probably restored)."""
        if self.view is ChannelView.UP:
            return StepResult()
        if self.tokens == 0:
            self.blocked_events += 1
            return StepResult(blocked=True)
        self.tokens -= 1
        self.tokens_sent_total += 1
        return StepResult(tokens_to_send=1, transition=self._flip(Trigger.TIN, now))

    def on_token(self, now: float = 0.0) -> StepResult:
        """Feed one received token."""
        self.tokens_received_total += 1
        if self.tokens == self.slack:
            # Peer got ahead of us: mirror its transition immediately
            # ("catching-up" state in the paper), passing the token on.
            self.tokens_sent_total += 1
            return StepResult(
                tokens_to_send=1, transition=self._flip(Trigger.TOKEN, now)
            )
        self.tokens += 1
        if (
            self.token_implies_tin
            and self.tokens == self.slack
            and self.view is ChannelView.DOWN
        ):
            # Fully acknowledged, channel demonstrably alive: implicit tin.
            self.tokens -= 1
            self.tokens_sent_total += 1
            return StepResult(
                tokens_to_send=1, transition=self._flip(Trigger.TOKEN, now)
            )
        return StepResult()

    def feed(self, trigger: Trigger, now: float = 0.0) -> StepResult:
        """Dispatch by trigger kind (convenience for property tests)."""
        if trigger is Trigger.TOUT:
            return self.on_timeout(now)
        if trigger is Trigger.TIN:
            return self.on_timein(now)
        return self.on_token(now)

    def __repr__(self) -> str:
        # "?" for unnamed machines: falling back to id(self) here once
        # injected a per-process memory address into traces (RL003).
        return f"<CHM {self.name or '?'} {self.state_label()} n={self.transition_count}>"
