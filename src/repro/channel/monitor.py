"""Ping-based link monitoring with consistent history (paper Sec. 2.2).

Each host runs a :class:`LinkMonitorService`; for every physical path it
cares about — a (local NIC, remote NIC) pair, since RAIN nodes have
bundled interfaces — it creates a :class:`PathMonitor`.  The monitor
sends small hello packets on that exact path at a fixed interval.  Each
hello carries the sender's *cumulative token count*; because the count
is cumulative and hellos repeat, token delivery is reliable and in-order
without a separate reliability layer — exactly the paper's "map reliable
messaging on top of the ping messages with only a sequence number and
acknowledge number as data".

Triggers are generated per the paper's requirements:

- **tout** when nothing has been heard from the peer for
  ``timeout`` seconds (bidirectional communication probably lost) —
  re-raised every ping interval while the silence persists, so a flip
  blocked by the slack bound is retried;
- **token** when the peer's cumulative count increases;
- **tin** implicitly via token receipt (``token_implies_tin``), since a
  token that arrives proves the path works.

Both endpoints of a path therefore publish identical Up/Down transition
histories, within the configured slack — the property Fig. 6(b)
illustrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..net import Endpoint, Host, Packet
from ..sim import Simulator
from .events import ChannelView, Transition
from .state_machine import ConsistentHistoryMachine

__all__ = ["MonitorConfig", "HelloMsg", "PathMonitor", "LinkMonitorService", "MONITOR_PORT"]

#: Well-known port for link monitor traffic.
MONITOR_PORT = 5001

#: Wire size of a hello.
HELLO_SIZE = 16


@dataclass(frozen=True)
class MonitorConfig:
    """Tunable timing and slack for path monitoring."""

    ping_interval: float = 0.1  # seconds between hellos
    timeout: float = 0.5  # silence before a tout fires
    slack: int = 2  # bounded-slack N of the protocol
    token_implies_tin: bool = True
    #: False disables the token protocol: each endpoint flips on its own
    #: local evidence only.  This is the Fig. 6(a) baseline — endpoints'
    #: histories may diverge without bound.
    consistent: bool = True


@dataclass(slots=True)
class HelloMsg:
    """One hello packet: path identity plus the cumulative token count."""

    src_if: int
    dst_if: int
    tokens_cum: int
    seq: int


class PathMonitor:
    """Monitors one (local NIC, remote NIC) path to one peer."""

    def __init__(
        self,
        service: "LinkMonitorService",
        peer: str,
        local_if: int,
        remote_if: int,
    ):
        self.service = service
        self.sim: Simulator = service.sim
        self.peer = peer
        self.local_if = local_if
        self.remote_if = remote_if
        cfg = service.config
        self.config = cfg
        self.machine = ConsistentHistoryMachine(
            slack=cfg.slack,
            token_implies_tin=cfg.token_implies_tin,
            name=f"{service.host.name}.nic{local_if}->{peer}.nic{remote_if}",
        )
        self.tokens_received_cum = 0
        self.last_heard: Optional[float] = None
        self._seq = 0
        self._peer_endpoint = Endpoint(peer, service.port)
        self._listeners: list[Callable[["PathMonitor", Transition], None]] = []
        self.started_at = self.sim.now
        self._m_transitions = self.sim.obs.metrics.counter(
            "channel.monitor.transitions", help="observable Up/Down flips"
        )
        # view name -> bound series; series appear on first flip (so
        # snapshots only list views that happened) but the label lookup
        # runs once per view, not once per transition.
        self._m_by_view: dict[str, object] = {}
        # One kernel callback per ping interval, not a process (see Ticker).
        self._ticker = self.sim.ticker(cfg.ping_interval, self._tick)

    # -- public state ----------------------------------------------------

    @property
    def view(self) -> ChannelView:
        """Current observable channel state."""
        return self.machine.view

    @property
    def is_up(self) -> bool:
        """Convenience: view == UP."""
        return self.machine.view is ChannelView.UP

    @property
    def history(self) -> list[Transition]:
        """This endpoint's full transition history."""
        return self.machine.history

    def subscribe(self, fn: Callable[["PathMonitor", Transition], None]) -> None:
        """Call ``fn(monitor, transition)`` on every observable flip."""
        self._listeners.append(fn)

    # -- internals ----------------------------------------------------------

    def _notify(self, transition: Optional[Transition]) -> None:
        if transition is None:
            return
        view = transition.view.name.lower()
        series = self._m_by_view.get(view)
        if series is None:
            series = self._m_transitions.labels(view=view)
            self._m_by_view[view] = series
        series.inc()
        self.sim.obs.bus.publish(
            "channel.monitor.transition",
            path=self.machine.name,
            view=view,
            index=transition.index,
        )
        for fn in self._listeners:
            fn(self, transition)

    def _tick(self) -> None:
        cfg = self.config
        # A down host is silent; its peers cannot know and keep pinging.
        if self.service.host.up:
            self._send_hello()
        # Silence check: tout while the peer has been quiet too long.
        quiet_since = self.last_heard if self.last_heard is not None else self.started_at
        if self.sim.now - quiet_since > cfg.timeout:
            if cfg.consistent:
                result = self.machine.on_timeout(self.sim.now)
                self._notify(result.transition)
            else:
                self._naive_flip(ChannelView.DOWN)

    def _send_hello(self) -> None:
        self._seq += 1
        msg = HelloMsg(
            src_if=self.local_if,
            dst_if=self.remote_if,
            tokens_cum=self.machine.tokens_sent_total,
            seq=self._seq,
        )
        self.service.host.send(
            self._peer_endpoint,
            payload=msg,
            size_bytes=HELLO_SIZE,
            src_port=self.service.port,
            src_nic=self.local_if,
            dst_nic=self.remote_if,
        )

    def _naive_flip(self, to_view: ChannelView) -> None:
        """Fig. 6(a) baseline: flip on local evidence, no token gating."""
        if self.machine.view is to_view:
            return
        self.machine.view = to_view
        tr = Transition(
            index=len(self.machine.history),
            view=to_view,
            trigger=None,  # type: ignore[arg-type] - no protocol trigger
            time=self.sim.now,
        )
        self.machine.history.append(tr)
        self._notify(tr)

    def _on_hello(self, msg: HelloMsg) -> None:
        self.last_heard = self.sim.now
        if not self.config.consistent:
            self._naive_flip(ChannelView.UP)
            return
        while self.tokens_received_cum < msg.tokens_cum:
            self.tokens_received_cum += 1
            result = self.machine.on_token(self.sim.now)
            self._notify(result.transition)

    def stop(self) -> None:
        """Stop pinging (e.g. when the peer is decommissioned)."""
        self._ticker.stop()


class LinkMonitorService:
    """Per-host endpoint demultiplexing hello traffic to path monitors."""

    def __init__(
        self,
        host: Host,
        config: Optional[MonitorConfig] = None,
        port: int = MONITOR_PORT,
    ):
        self.host = host
        self.sim = host.sim
        self.config = config if config is not None else MonitorConfig()
        self.port = port
        self.paths: dict[tuple[str, int, int], PathMonitor] = {}
        host.bind(port, self._on_packet)

    def watch(self, peer: str, local_if: int = 0, remote_if: int = 0) -> PathMonitor:
        """Start (or return) the monitor for one path to ``peer``.

        The peer host must call ``watch`` with mirrored interface indices
        for the protocol to run on both ends.
        """
        key = (peer, local_if, remote_if)
        mon = self.paths.get(key)
        if mon is None:
            mon = PathMonitor(self, peer, local_if, remote_if)
            self.paths[key] = mon
        return mon

    def path(self, peer: str, local_if: int = 0, remote_if: int = 0) -> Optional[PathMonitor]:
        """The monitor for a path, if one was started."""
        return self.paths.get((peer, local_if, remote_if))

    def _on_packet(self, pkt: Packet) -> None:
        msg = pkt.payload
        if not isinstance(msg, HelloMsg):
            return
        # The peer's (src_if, dst_if) is our (remote_if, local_if).
        key = (pkt.src.node, msg.dst_if, msg.src_if)
        mon = self.paths.get(key)
        if mon is not None:
            mon._on_hello(msg)
