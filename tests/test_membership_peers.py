"""Per-node membership state: shared rings and ``known_peers`` as a
shared base plus a per-node delta.

The plain-set ``known_peers`` logic the protocol used before the split
is kept here verbatim as the oracle: every drawn script of bootstrap,
adoptions (exclusions, demotions, joins, regenerated rings), 911
requests and joins must leave the real node sending 911s to exactly the
oracle's targets, in the same order, and agreeing on whether it knows
anyone at all.
"""

from __future__ import annotations

import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedRainCluster
from repro.membership import MembershipNode, Token
from repro.scenarios import SCENARIOS, build_churn_cluster
from repro.sim import Simulator
from repro.topology import diameter_ring


class SetPeers:
    """The pre-split ``known_peers``: one plain set per node."""

    def __init__(self, name):
        self.name = name
        self.known_peers = set()

    def bootstrap(self, members):
        self.known_peers.update(m for m in members if m != self.name)

    def join(self, contact):
        self.known_peers.add(contact)

    def adopt(self, token):
        peers = self.known_peers
        knew_self = self.name in peers
        peers.update(token.ring)
        if not knew_self:
            peers.discard(self.name)

    def on_911(self, requester):
        self.known_peers.add(requester)

    def targets(self, view):
        targets = set(n for n in view if n != self.name) | self.known_peers
        return sorted(targets)


class _Host:
    def __init__(self, sim, name):
        self.sim, self.name, self.up = sim, name, True


class _Transport:
    def __init__(self):
        self.sent = []

    def register(self, service, fn):
        pass

    def send(self, target, service, msg, size_bytes=64):
        self.sent.append((target, msg))


def node_with_oracle(name):
    """A membership node on a stub transport whose every adoption —
    scripted or a 911 regeneration — is mirrored into the oracle."""
    tp = _Transport()
    node = MembershipNode(_Host(Simulator(seed=0), name), tp)
    oracle = SetPeers(name)
    adopt = node._adopt

    def mirrored(token, src):
        oracle.adopt(token)
        adopt(token, src)

    node._adopt = mirrored
    return node, tp, oracle


OUTSIDERS = ("x0", "x1", "x2")
_step = st.tuples(
    st.sampled_from(["same", "exclude", "demote", "join", "regen", "fresh", "911", "contact"]),
    st.integers(0, 20),
    st.lists(st.integers(0, 20), max_size=8),
)


class TestKnownPeersMatchesThePlainSet:
    @given(
        size=st.integers(1, 6),
        me=st.integers(0, 20),
        bootstrapped=st.booleans(),
        script=st.lists(_step, max_size=14),
    )
    @example(  # an excluded member must stay a 911 target
        size=3, me=0, bootstrapped=True, script=[("exclude", 1, [])]
    )
    @settings(max_examples=200, deadline=None)
    def test_same_911_targets_after_every_step(self, size, me, bootstrapped, script):
        base = tuple(f"n{i}" for i in range(size))
        pool = base + OUTSIDERS
        name = base[me % size] if bootstrapped else pool[me % len(pool)]
        node, tp, oracle = node_with_oracle(name)
        cur = Token(seq=1, ring=base)
        if bootstrapped:
            node.bootstrap(base)
            oracle.bootstrap(base)
        seq = 1
        for op, i, picks in script:
            who = pool[i % len(pool)]
            if op == "911":
                oracle.on_911(who)
                node._on_911(who, who, 0)
            elif op == "contact":
                oracle.join(who)
                node.join(who)
            else:
                seq += 1
                nxt = cur.copy()
                nxt.seq = seq
                if op == "exclude":
                    nxt.remove(who)
                elif op == "demote":
                    nxt.demote(who)
                elif op == "join":
                    nxt.insert_after(pool[len(picks) % len(pool)], who)
                elif op == "regen":
                    nxt = Token(seq=seq, ring=list(cur.ring))
                elif op == "fresh":
                    ring = dict.fromkeys(pool[p % len(pool)] for p in picks)
                    nxt = Token(seq=seq, ring=list(ring) or [who])
                cur = nxt
                node._adopt(nxt.copy(), who)
            tp.sent.clear()
            node._send_911s()
            assert [t for t, _ in tp.sent] == oracle.targets(node.view)
            assert bool(node.known_peers) == bool(oracle.known_peers)


class TestSharing:
    def test_every_member_shares_one_view_after_bootstrap(self):
        for shards in (1, 2):
            cl = ShardedRainCluster(diameter_ring(6), seed=7, shards=shards)
            members = [cl.member(i) for i in range(6)]
            assert all(m.view is members[0].view for m in members)
            assert all(m.known_peers.base is members[0].view for m in members)
            assert isinstance(members[0].view, tuple)

    def test_adoption_keeps_state_shared(self):
        # After churn, views are a handful of shared ring objects and no
        # node has learned names beyond the bootstrap ring.
        sc = SCENARIOS["churn-small"]
        cl = sc.build(7, 1)
        cl.run(sc.horizon)
        members = [cl.member(i) for i in range(len(cl.names))]
        assert sum(m.tokens_seen for m in members) > len(members)
        assert len({id(m.view) for m in members}) <= 4
        assert all(not m.known_peers.extra for m in members)

    def test_build_heap_budget_per_node(self):
        # The traced heap of the 1,000-node flagship build, per node; a
        # private ring copy plus a 999-name peer set per node is ~48 KiB,
        # eight eagerly created metric series per node another ~2.5 KiB.
        tracemalloc.start()
        try:
            cluster = build_churn_cluster(7)
            heap, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cluster.names) == 1000
        assert heap / 1000 <= 7 * 1024
