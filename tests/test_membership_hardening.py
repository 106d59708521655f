"""Hardening tests for membership: bootstrap-by-join, loss, attachments."""

from collections import defaultdict

from repro.channel import Segment
from repro.membership import MembershipConfig, MembershipNode, membership_converged
from repro.net import FaultInjector, Network
from repro.rudp import RudpTransport
from repro.sim import Simulator


def bare_hosts(n, seed=1, loss=0.0):
    sim = Simulator(seed=seed)
    net = Network(sim, default_loss_rate=loss)
    sw = net.add_switch("SW", ports=32)
    hosts = []
    for i in range(n):
        h = net.add_host(chr(ord("A") + i))
        net.link(h.nic(0), sw)
        hosts.append(h)
    return sim, net, hosts


def test_bootstrap_entirely_by_joins():
    # no initial membership anywhere: two fresh nodes find each other
    # via join-911s; the smaller name creates the ring (tie-break)
    sim, net, hosts = bare_hosts(2)
    nodes = [
        MembershipNode(h, RudpTransport(h), MembershipConfig()) for h in hosts
    ]
    nodes[0].join(contact="B")
    nodes[1].join(contact="A")
    sim.run(until=20.0)
    assert membership_converged(nodes, ["A", "B"])


def test_third_node_joins_pair():
    sim, net, hosts = bare_hosts(3)
    nodes = [
        MembershipNode(h, RudpTransport(h), MembershipConfig()) for h in hosts
    ]
    nodes[0].bootstrap(["A", "B"], first_holder=True)
    nodes[1].bootstrap(["A", "B"])
    nodes[2].join(contact="A")
    sim.run(until=20.0)
    assert membership_converged(nodes, ["A", "B", "C"])


class _LossTap(Network):
    """A network that records, per RUDP data segment ``(src, dst, seq)``,
    the times it was sent, whether a copy was dropped, and when the
    first copy landed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tries: dict[tuple, list[float]] = defaultdict(list)
        self.dropped: set[tuple] = set()
        self.landed: dict[tuple, float] = {}

    @staticmethod
    def _key(pkt):
        seg = pkt.payload
        if isinstance(seg, Segment) and seg.seq:
            return (pkt.src.node, pkt.dst.node, seg.seq)
        return None

    def transmit(self, pkt):
        key = self._key(pkt)
        if key is not None:
            self.tries[key].append(self.sim.now)
        super().transmit(pkt)

    def _drop(self, pkt, reason):
        key = self._key(pkt)
        if key is not None:
            self.dropped.add(key)
        super()._drop(pkt, reason)

    def _deliver(self, pkt, nic):
        key = self._key(pkt)
        if key is not None and nic.up and nic.host.up:
            self.landed.setdefault(key, self.sim.now)
        super()._deliver(pkt, nic)


def test_every_exclusion_under_packet_loss_follows_a_lost_segment():
    # Sustained 10% loss on every link.  RUDP retransmits mask a loss
    # only as fast as its backoff allows: a segment lost four times in a
    # row is resent at 0.2 + 0.4 + 0.8 + 0.8 s, past ack_timeout=2.0, so
    # a detector *will* exclude on some seeds (6 of seeds 1-40: 7, 8,
    # 16, 18, 24 and 39).  What must hold on every
    # seed: each exclusion of Y by X at time t follows a data segment
    # between X and Y, sent in [t - ack_timeout, t), that was lost on
    # every try before t (the TOKEN, its ACK, or one that blocks them in
    # order); and the 911 rejoin heals the ring when time remains.
    from repro.membership import build_membership

    ack_timeout, starvation, horizon = 2.0, 6.0, 40.0
    cfg = MembershipConfig(ack_timeout=ack_timeout, starvation_timeout=starvation)
    unexplained, unhealed = [], []
    for seed in range(1, 41):
        sim = Simulator(seed=seed)
        net = _LossTap(sim, default_loss_rate=0.1)
        sw = net.add_switch("SW", ports=32)
        hosts = []
        for i in range(4):
            h = net.add_host(chr(ord("A") + i))
            net.link(h.nic(0), sw)
            hosts.append(h)
        nodes = build_membership(hosts, cfg)
        sim.run(until=horizon)
        excluded = [e for n in nodes for e in n.events if e.kind == "excluded"]
        for e in excluded:
            pair, t = {e.node, e.subject}, e.time
            lost = [
                key
                for key, tries in net.tries.items()
                if {key[0], key[1]} == pair
                and key in net.dropped
                and net.landed.get(key, float("inf")) >= t
                and any(t - ack_timeout <= s < t for s in tries)
            ]
            if not lost:
                unexplained.append((seed, e))
        # a rejoin takes one starvation timeout plus a 911 round
        if excluded and max(e.time for e in excluded) <= horizon - 2 * starvation:
            if not membership_converged(nodes, "ABCD"):
                unhealed.append(seed)
    assert not unexplained, f"exclusions no lost segment explains: {unexplained}"
    assert not unhealed, f"rings that did not re-converge: {unhealed}"


def test_tight_timeouts_under_loss_churn_but_recover():
    # The flip side: detection timeouts comparable to the loss-recovery
    # time cause spurious exclusions — and the 911 mechanism keeps
    # healing them (nodes re-join automatically, Sec. 3.3.3).
    sim, net, hosts = bare_hosts(4, seed=7, loss=0.3)
    from repro.membership import build_membership

    nodes = build_membership(hosts, MembershipConfig())  # tight defaults
    sim.run(until=40.0)
    excluded = [e for n in nodes for e in n.events if e.kind == "excluded"]
    rejoined = [e for n in nodes for e in n.events if e.kind == "join_added"]
    assert excluded, "expected churn under tight timeouts + loss"
    assert rejoined, "911 rejoin must keep healing the membership"


def test_attachments_survive_regeneration():
    sim, net, hosts = bare_hosts(4, seed=3)
    from repro.membership import build_membership

    nodes = build_membership(hosts, MembershipConfig())

    def writer(tok):
        tok.attachments["counter"] = tok.attachments.get("counter", 0) + 1

    nodes[0].on_hold(writer)
    sim.run(until=3.0)
    # kill the current holder: token regenerates from a local copy,
    # which must carry the attachments forward
    holder = max(nodes, key=lambda n: n.last_token_time)
    before = max(
        (n.local_copy.attachments.get("counter", 0) for n in nodes if n.local_copy),
        default=0,
    )
    assert before > 0
    FaultInjector(net).fail(holder.host)
    sim.run(until=20.0)
    survivors = [n for n in nodes if n.host.up]
    after = max(
        n.local_copy.attachments.get("counter", 0) for n in survivors if n.local_copy
    )
    assert after >= before  # history not reset by regeneration


def test_rapid_crash_recover_cycles_converge():
    sim, net, hosts = bare_hosts(4, seed=5)
    from repro.membership import build_membership

    nodes = build_membership(hosts, MembershipConfig())
    fi = FaultInjector(net)
    for k in range(3):
        fi.outage(hosts[3], start=3.0 + k * 12.0, duration=5.0)
    sim.run(until=60.0)
    assert membership_converged(nodes, "ABCD")


def test_simultaneous_double_crash():
    sim, net, hosts = bare_hosts(5, seed=6)
    from repro.membership import build_membership

    nodes = build_membership(hosts, MembershipConfig())
    sim.run(until=3.0)
    fi = FaultInjector(net)
    fi.fail(hosts[1])
    fi.fail(hosts[2])  # same instant
    sim.run(until=25.0)
    survivors = [n for n in nodes if n.host.up]
    assert membership_converged(survivors, ["A", "D", "E"])


def test_seq_numbers_strictly_increase_at_each_node():
    sim, net, hosts = bare_hosts(4, seed=8)
    from repro.membership import build_membership

    nodes = build_membership(hosts, MembershipConfig())
    fi = FaultInjector(net)
    fi.outage(hosts[2], start=3.0, duration=4.0)
    sim.run(until=30.0)
    for n in nodes:
        seqs = [e.subject for e in n.events if e.kind == "token"]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
