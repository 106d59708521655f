"""Edge-case sweep across modules: error paths and small behaviours."""

import pytest

from repro.net import FaultInjector, Network
from repro.sim import Simulator


class TestFaultInjectorEdges:
    def test_invalid_element_rejected(self):
        sim = Simulator()
        net = Network(sim)
        fi = FaultInjector(net)
        with pytest.raises(TypeError):
            fi.fail("not-an-element")

    def test_scheduled_flips_are_logged_at_their_times(self):
        sim = Simulator()
        net = Network(sim)
        s = net.add_switch("S")
        fi = FaultInjector(net)
        fi.fail_at(1.0, s)
        fi.repair_at(2.0, s)
        fi.fail_at(3.0, s)
        sim.run()
        assert [(e.time, e.action) for e in fi.log] == [
            (1.0, "fail"),
            (2.0, "repair"),
            (3.0, "fail"),
        ]


class TestFsRpcEdges:
    def test_unknown_op_returns_error(self):
        from repro import ClusterConfig, RainCluster
        from repro.codes import BCode
        from repro.fs import RainFsNode

        sim = Simulator(seed=1)
        cl = RainCluster(sim, ClusterConfig(nodes=6))
        fs = [
            RainFsNode(cl.member(i), cl.elections[i], cl.store_on(i, BCode(6)))
            for i in range(6)
        ]
        sim.run(until=2.0)
        # talk to the leader directly with a bogus op
        leader_fs = next(f for f in fs if f.election.is_leader)
        replies = []
        orig = leader_fs._reply
        leader_fs._reply = lambda dst, rid, ok, payload: replies.append((ok, payload))
        leader_fs._on_msg("node1", ("REQ", 999, "format_disk", ()))
        sim.run(until=sim.now + 1.0)
        assert replies and replies[0][0] is False
        assert replies[0][1][0] == "error"

    def test_non_leader_redirects(self):
        from repro import ClusterConfig, RainCluster
        from repro.codes import BCode
        from repro.fs import RainFsNode

        sim = Simulator(seed=2)
        cl = RainCluster(sim, ClusterConfig(nodes=6))
        fs = [
            RainFsNode(cl.member(i), cl.elections[i], cl.store_on(i, BCode(6)))
            for i in range(6)
        ]
        sim.run(until=2.0)
        follower = next(f for f in fs if not f.election.is_leader)
        replies = []
        follower._reply = lambda dst, rid, ok, payload: replies.append((ok, payload))
        follower._on_msg("node1", ("REQ", 1000, "stat", ("/x",)))
        sim.run(until=sim.now + 1.0)
        assert replies == [(False, ("redirect", follower.election.leader))]


class TestLinkEdges:
    def test_invalid_parameters(self):
        from repro.net.link import Link
        from repro.net.switch import Switch

        a, b = Switch("a"), Switch("b")
        with pytest.raises(ValueError):
            Link(a, b, latency_s=-1)
        with pytest.raises(ValueError):
            Link(a, b, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(a, b, loss_rate=1.5)

    def test_other_rejects_stranger(self):
        from repro.net.link import Link
        from repro.net.switch import Switch

        a, b, c = Switch("a"), Switch("b"), Switch("c")
        lk = Link(a, b)
        with pytest.raises(ValueError):
            lk.other(c)


class TestMembershipConfigEdges:
    def test_frozen(self):
        import dataclasses

        from repro.membership import MembershipConfig

        cfg = MembershipConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.token_interval = 99.0

