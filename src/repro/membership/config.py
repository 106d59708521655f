"""Tuning knobs for the membership protocol.

Defaults follow the regimes implied by the paper: a token hop every
100 ms and a ~2 s starvation timeout give the "about two seconds"
fail-over the paper reports for Rainwall (Sec. 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MembershipConfig"]


@dataclass(frozen=True)
class MembershipConfig:
    """Membership protocol parameters."""

    token_interval: float = 0.1  # hold time before passing the token on
    ack_timeout: float = 0.5  # silence after a send => failure suspected
    starvation_timeout: float = 2.0  # tokenless time before a 911
    detection: str = "aggressive"  # or "conservative"
    conservative_threshold: int = 2  # consecutive failed sends => removal

    def __post_init__(self):
        if self.detection not in ("aggressive", "conservative"):
            raise ValueError(f"unknown detection mode {self.detection!r}")
        if self.conservative_threshold < 1:
            raise ValueError("conservative_threshold must be >= 1")
