"""Token-ring group membership with the 911 mechanism (paper Sec. 3).

Each cluster node runs a :class:`MembershipNode` over RUDP.  A single
token circulates the logical ring carrying the authoritative membership
(Sec. 3.2); the holder detects unresponsive successors (aggressive or
conservative policy, Fig. 9) and updates the ring; sequence numbers make
stale tokens harmless and arbitrate regeneration.  The 911 mechanism
(Sec. 3.3) unifies three recoveries under one message:

- *token regeneration* — a starving node asks every member for the right
  to regenerate; any node with a more recent token copy denies, so only
  the node holding the latest copy wins;
- *dynamic join* — a 911 from a non-member is a join request: the
  receiver adds the newcomer next time it holds the token and passes the
  token straight to it;
- *transient-failure / wrong-exclusion recovery* — an excluded node
  starves, sends a 911, and is re-added exactly like a joiner, so local
  detector mistakes self-heal (Sec. 3.3.3).

Beyond the paper's prose, two engineering details make partition *heal*
converge (the paper's asynchronous-system caveat): a node whose ring has
collapsed to itself keeps serving as a singleton cluster but enters
"solo mode", soliciting known peers with join-911s and adopting any
incoming token that contains it; and a member that unknowingly passed a
stale token is told so with a NACK, killing duplicate token chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..net import Host
from ..rudp import RudpTransport
from ..sim import Interrupt, Simulator
from .config import MembershipConfig
from .detection import make_policy
from .token import Token

__all__ = ["MembershipNode", "MembershipEvent", "KnownPeers", "MEMBERSHIP_SERVICE"]

#: RUDP service name carrying membership traffic.
MEMBERSHIP_SERVICE = "membership"

#: wire size charged per token hop
TOKEN_SIZE = 256
#: how long a 911 collects replies (seconds)
REPLY_WAIT = 0.5


@dataclass(frozen=True)
class MembershipEvent:
    """One observable membership change at one node."""

    time: float
    node: str  # where the event was observed
    kind: str  # token|excluded|join_added|view|regen|solo|abandon
    subject: Any = None  # affected node, ring snapshot, seq, ...


class KnownPeers:
    """Every name a node has heard of, less its own: the bootstrap ring
    (one tuple shared by every node) plus a small per-node set of names
    learned beyond it (911 requesters, join contacts, joined members)."""

    __slots__ = ("me", "base", "extra", "_seen")

    def __init__(self, me: str):
        self.me, self.base, self.extra = me, (), set()
        self._seen: Optional[frozenset] = None  # last ring member set folded in

    def __bool__(self) -> bool:
        return bool(self.extra) or any(n != self.me for n in self.base)

    def learn(self, token: Token) -> None:
        """Fold ``token``'s ring in: free for the base ring or the last
        set folded in, else one C-level difference against that set."""
        members, seen = token.members, self._seen
        if members is not seen and token.ring is not self.base:
            new = members.difference(self.base if seen is None else seen)
            self.extra.update(n for n in new if n != self.me and n not in self.base)
        self._seen = members

    def with_view(self, view: tuple[str, ...]) -> set[str]:
        """The 911 targets: these names plus ``view``'s."""
        return (set(view).union(self.base) - {self.me}) | self.extra


class MembershipNode:
    """One node's membership protocol instance."""

    def __init__(
        self,
        host: Host,
        transport: RudpTransport,
        config: Optional[MembershipConfig] = None,
    ):
        config = config if config is not None else MembershipConfig()
        self.host = host
        self.sim: Simulator = host.sim
        self.name = host.name
        self.transport = transport
        self.config = config
        self.policy = make_policy(config.detection, config.conservative_threshold)
        transport.register(MEMBERSHIP_SERVICE, self._on_msg)

        self.view: tuple[str, ...] = (self.name,)
        self.known_peers = KnownPeers(self.name)
        self.local_seq = 0
        self.local_copy: Optional[Token] = None
        self.last_token_time = self.sim.now
        self.holding: Optional[Token] = None
        self.solo_mode = False
        self.regen_count = 0
        self.pending_joins: set[str] = set()
        self._pending_ack: Optional[tuple[int, Any]] = None
        self._hold_hooks: list[Callable[[Token], None]] = []
        self._listeners: list[Callable[[MembershipEvent], None]] = []
        self.events: list[MembershipEvent] = []
        self.tokens_seen = 0
        self._watchdog = None
        metrics = self.sim.obs.metrics
        self._f_token_rtt = metrics.histogram(
            "membership.token.rtt",
            help="simulated seconds between successive token holds",
        )
        self._f_regens = metrics.counter(
            "membership.protocol.regenerations", help="911 token regenerations"
        )
        self._f_exclusions = metrics.counter(
            "membership.protocol.exclusions", help="members excluded by this detector"
        )
        self._f_911s = metrics.counter(
            "membership.protocol.msgs_911", help="911 requests sent"
        )
        # This node's series of each family, bound on first observation
        # so a report lists only what happened.
        self._m_token_rtt = self._m_regens = self._m_exclusions = self._m_911s = None

    # -- public API --------------------------------------------------------

    def bootstrap(self, members: Sequence[str], first_holder: bool = False) -> None:
        """Install the initial membership; one node must be the
        ``first_holder`` and generates the first token.  A tuple is
        shared, not copied: pass every node the same one."""
        if self.name not in members:
            raise ValueError(f"{self.name} missing from initial membership")
        self.view = self.known_peers.base = tuple(members)
        self._start_watchdog()
        if first_holder:
            token = Token(seq=1, ring=self.view)
            self.sim.call_in(0.0, self._adopt, token, self.name)

    def join(self, contact: str) -> None:
        """Start as a non-member that knows one cluster contact; the 911
        mechanism performs the join (Sec. 3.3.2)."""
        self.known_peers.extra.add(contact)
        self.solo_mode = True
        self._start_watchdog()
        self._send_911s()

    @property
    def membership(self) -> tuple[str, ...]:
        """This node's current membership view, in ring order."""
        return tuple(self.view)

    def on_hold(self, fn: Callable[[Token], None]) -> None:
        """Run ``fn(token)`` every time this node holds the token — the
        paper's attachment hook (SNOW's HTTP queue rides here).  The
        token is held by exactly one node at a time, so hooks execute
        under cluster-wide mutual exclusion."""
        self._hold_hooks.append(fn)

    def subscribe(self, fn: Callable[[MembershipEvent], None]) -> None:
        """Observe membership events as they happen."""
        self._listeners.append(fn)

    # -- event plumbing ----------------------------------------------------

    def _emit(self, kind: str, subject: Any = None) -> None:
        ev = MembershipEvent(self.sim.now, self.name, kind, subject)
        self.events.append(ev)
        # Every membership event also rides the observability bus, so
        # cross-layer tests (failover timelines, Fig. 9 token paths) can
        # subscribe without wiring per-node listeners.
        self.sim.obs.bus.publish(
            f"membership.node.{kind}", node=self.name, subject=subject
        )
        tracer = self.sim.obs.tracer
        if tracer is not None:
            # Transition spans inherit the ambient context: during message
            # dispatch that is the causing RUDP/packet span, so Fig. 9
            # stories ("why did this node change view?") fall out of the
            # ancestor chain.
            tracer.instant(
                f"membership.{kind}",
                node=self.name,
                subject=(
                    subject
                    if isinstance(subject, (str, int, float, type(None)))
                    else str(subject)
                ),
            )
        if kind == "regen":
            if self._m_regens is None:
                self._m_regens = self._f_regens.labels(node=self.name)
            self._m_regens.inc()
        elif kind == "excluded":
            if self._m_exclusions is None:
                self._m_exclusions = self._f_exclusions.labels(node=self.name)
            self._m_exclusions.inc()
        for fn in self._listeners:
            fn(ev)

    # -- messaging ----------------------------------------------------------

    def _send(self, target: str, msg: tuple, size: int = 64) -> None:
        self.transport.send(target, MEMBERSHIP_SERVICE, msg, size_bytes=size)

    def _on_msg(self, src: str, msg: tuple) -> None:
        if not self.host.up:
            return
        kind = msg[0]
        if kind == "TOKEN":
            self._on_token(src, msg[1])
        elif kind == "ACK":
            self._on_ack(msg[1])
        elif kind == "NACK":
            self._on_nack(msg[1], msg[2])
        elif kind == "M911":
            self._on_911(src, msg[1], msg[2])
        elif kind == "M911R":
            self._on_911_reply(src, msg[1], msg[2])

    # -- token mechanism ---------------------------------------------------

    def _on_token(self, src: str, token: Token) -> None:
        accept = token.seq > self.local_seq
        if not accept and self.solo_mode and self.name in token.ring and len(token.ring) >= 2:
            accept = True  # partition heal: adopt the bigger cluster's token
        if self.name not in token.ring:
            accept = False  # never adopt a ring that excludes us
        if not accept:
            self._send(src, ("NACK", token.seq, self.local_seq))
            return
        self._send(src, ("ACK", token.seq))
        self._adopt(token.copy(), src)

    def _adopt(self, token: Token, src: str) -> None:
        """Become the token holder."""
        tracer = self.sim.obs.tracer
        if tracer is None:
            self._adopt_body(token, src, None)
            return
        # Adoptions caused by an inbound TOKEN run under that message's
        # activation, chaining holder to holder; a genesis/regeneration
        # adoption (src == self.name, no ambient context) roots a trace.
        span = tracer.start(
            "membership.adopt",
            node=self.name,
            seq=token.seq,
            src=src,
            lineage=str(token.lineage),
        )
        with tracer.activate(span.ctx):
            self._adopt_body(token, src, span.ctx)
        tracer.end(span)

    def _adopt_body(self, token: Token, src: str, ctx: Any) -> None:
        was_view = self.view
        self.tokens_seen += 1
        if self.tokens_seen > 1:
            # token round-trip time as this node observes it (Fig. 9)
            rtt = self._m_token_rtt
            if rtt is None:
                rtt = self._m_token_rtt = self._f_token_rtt.labels(node=self.name)
            rtt.observe(self.sim.now - self.last_token_time)
        self.solo_mode = False
        self.local_seq = token.seq
        self.regen_count = token.regen_count
        self.last_token_time = self.sim.now
        self.view = token.ring
        self.known_peers.learn(token)
        self.local_copy = token.copy()
        if was_view != self.view:
            self._emit("view", self.view)
        self._emit("token", token.seq)
        self._emit("accept", (token.lineage, token.seq))
        # Dynamic joins: add pending newcomers right after ourselves.
        for newcomer in sorted(self.pending_joins):
            if newcomer not in token.ring:
                token.insert_after(self.name, newcomer)
                self._emit("join_added", newcomer)
        self.pending_joins.clear()
        if token.ring != self.view:
            self.view = token.ring
            self.local_copy = token.copy()
            self._emit("view", self.view)
        # Mutual-exclusion zone: attachments are processed while holding.
        for hook in self._hold_hooks:
            hook(token)
        self.holding = token
        # The pass process carries the adopt span's context so the TOKEN
        # send (and any exclusions it decides) stay in this trace.
        self.sim.process(self._pass_proc(token), name=f"pass:{self.name}", ctx=ctx)

    def _pass_proc(self, token: Token):
        cfg = self.config
        yield self.sim.timeout(cfg.token_interval)
        while True:
            if self.holding is not token:
                return  # superseded (adopted a newer token, or NACKed)
            if not self.host.up:
                self.holding = None  # crashed while holding: token is lost
                return
            target = token.next_after(self.name)
            if target == self.name:
                # Alone in the ring: run as a singleton cluster but keep
                # soliciting peers (solo mode) so partitions heal.
                if self.known_peers and not self.solo_mode:
                    self.solo_mode = True
                    self._emit("solo", self.view)
                token.seq += 1
                self.local_seq = token.seq
                self.last_token_time = self.sim.now
                self.local_copy = token.copy()
                for newcomer in sorted(self.pending_joins):
                    token.insert_after(self.name, newcomer)
                    self._emit("join_added", newcomer)
                self.pending_joins.clear()
                if len(token.ring) > 1:
                    continue  # someone joined: hand the token over
                # a singleton cluster still holds the token: attachments
                # (VIP tables, queues) must keep being processed
                for hook in self._hold_hooks:
                    hook(token)
                self._solo_ticks = getattr(self, "_solo_ticks", 0) + 1
                solicit_every = max(1, int(cfg.starvation_timeout / cfg.token_interval))
                if self.solo_mode and self._solo_ticks % solicit_every == 0:
                    self._send_911s()  # keep inviting known peers back
                yield self.sim.timeout(cfg.token_interval)
                continue
            token.seq += 1
            self.local_seq = token.seq
            self.local_copy = token.copy()
            ack = self.sim.event()
            self._pending_ack = (token.seq, ack)
            self._send(target, ("TOKEN", token.copy()), size=TOKEN_SIZE)
            winner = yield self.sim.any_of([ack, self.sim.timeout(cfg.ack_timeout)])
            if self.holding is not token:
                return
            if winner is ack:
                if ack.value == "ack":
                    self.policy.on_send_success(token, target)
                    self.holding = None
                    return
                # NACKed: our token is stale; abandon it.
                self.holding = None
                self._emit("abandon", token.seq)
                return
            # Timed out: the successor is unreachable — failure detection.
            excluded = self.policy.on_send_failure(token, self.name, target)
            if excluded is not None:
                self._emit("excluded", excluded)
            self.view = token.ring
            self.local_copy = token.copy()

    def _on_ack(self, seq: int) -> None:
        if self._pending_ack and self._pending_ack[0] == seq:
            _, sig = self._pending_ack
            self._pending_ack = None
            if not sig.triggered:
                sig.succeed("ack")

    def _on_nack(self, seq: int, their_seq: int) -> None:
        # A NACK is only meaningful for the exact send it negates.  Old
        # NACKs can arrive long after the fact (RUDP queues across
        # partitions); matching loosely here once let a NACK for an
        # ancient token kill a freshly merged one.
        if self._pending_ack and self._pending_ack[0] == seq:
            _, sig = self._pending_ack
            self._pending_ack = None
            if not sig.triggered:
                sig.succeed("nack")
        elif self.holding is not None and self.holding.seq == seq:
            self.holding = None
            self._emit("abandon", seq)

    # -- 911 mechanism (Sec. 3.3) -----------------------------------------------

    def _start_watchdog(self) -> None:
        if self._watchdog is None:
            self._watchdog = self.sim.process(
                self._watchdog_proc(), name=f"watchdog:{self.name}"
            )

    def _watchdog_proc(self):
        cfg = self.config
        try:
            while True:
                yield self.sim.timeout(cfg.starvation_timeout / 4)
                if not self.host.up or self.holding is not None:
                    continue
                if self.sim.now - self.last_token_time <= cfg.starvation_timeout:
                    continue
                # STARVING (Sec. 3.3.1): request regeneration / rejoin.
                self._911_replies: list[tuple[str, str, int]] = []
                self._send_911s()
                yield self.sim.timeout(REPLY_WAIT)
                if not self.host.up:
                    continue
                if self.sim.now - self.last_token_time <= cfg.starvation_timeout:
                    continue  # a token arrived while we waited
                replies = self._911_replies
                if any(r[1] == "deny" for r in replies):
                    # someone has a fresher copy; they will regenerate
                    self.last_token_time = self.sim.now
                    continue
                if any(r[1] == "join_pending" for r in replies):
                    # we are not a member there; they will re-add us
                    self.last_token_time = self.sim.now
                    continue
                # All reachable members approved (or nobody answered):
                # we hold the most recent copy — regenerate (Sec. 3.3.1).
                self._regenerate()
        except Interrupt:
            return

    def _send_911s(self) -> None:
        targets = self.known_peers.with_view(self.view)
        tracer = self.sim.obs.tracer
        span = None
        if tracer is not None:
            span = tracer.start(
                "membership.911",
                node=self.name,
                seq=self.local_seq,
                targets=len(targets),
            )
            tracer._stack.append(span.ctx)
        if targets and self._m_911s is None:
            self._m_911s = self._f_911s.labels(node=self.name)
        try:
            for target in sorted(targets):
                self._m_911s.inc()
                self._send(target, ("M911", self.name, self.local_seq))
        finally:
            if span is not None:
                tracer._stack.pop()
                tracer.end(span)

    def _on_911(self, src: str, requester: str, req_seq: int) -> None:
        self.known_peers.extra.add(requester)
        if requester not in self.view:
            # Join request (Sec. 3.3.2) — also covers rejoin after a
            # wrong exclusion or transient failure (Sec. 3.3.3).
            if self.view == (self.name,) and self.holding is None and not self.local_copy:
                # Neither side has a token (fresh bootstrap by joins):
                # deterministic tie-break — smaller name creates the ring.
                if self.name < requester:
                    self.pending_joins.add(requester)
                    self._regenerate()
                return
            self.pending_joins.add(requester)
            self._send(requester, ("M911R", "join_pending", self.local_seq))
            return
        # Regeneration request: deny iff our copy is more recent
        # (sequence number, then name, so arbitration is total).
        if (self.local_seq, self.name) > (req_seq, requester) or self.holding is not None:
            self._send(requester, ("M911R", "deny", self.local_seq))
        else:
            self._send(requester, ("M911R", "approve", self.local_seq))

    def _on_911_reply(self, src: str, verdict: str, their_seq: int) -> None:
        if hasattr(self, "_911_replies"):
            self._911_replies.append((src, verdict, their_seq))

    def _regenerate(self) -> None:
        """Create a fresh token from our latest state (Sec. 3.3.1)."""
        if not self.host.up:
            return
        ring = list(self.view)
        if self.name not in ring:
            ring.append(self.name)
        for newcomer in sorted(self.pending_joins):
            if newcomer not in ring:
                ring.append(newcomer)
        self.pending_joins.clear()
        token = Token(
            seq=self.local_seq + 1,
            ring=ring,
            regen_count=self.regen_count + 1,
            attachments=dict(self.local_copy.attachments) if self.local_copy else {},
            lineage=(self.regen_count + 1, self.name),
        )
        self._emit("regen", token.seq)
        self._adopt(token, self.name)

    # -- teardown ----------------------------------------------------------

    def stop(self) -> None:
        """Stop background activity (watchdog); for test teardown."""
        if self._watchdog is not None and self._watchdog.is_alive:
            self._watchdog.interrupt("stopped")
            self._watchdog = None
