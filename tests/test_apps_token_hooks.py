"""Token attachments are snapshots: a hold hook never writes into them.

``Token.copy()`` copies the attachment map, not its values, so the
holder's ``local_copy`` (what a 911 regeneration restarts from) and the
copies in flight share every attachment value with the token a hook is
handed.  A hook may replace a value; writing into one would rewrite
those older copies too.  Each case wraps every node's hold hook, takes
a ``Token.copy()`` just before the hook runs, deep-snapshots it, and
checks the copy is unchanged afterwards.
"""

import copy

import pytest

from repro import ClusterConfig, RainCluster, Simulator
from repro.apps import FlowModel, JobSpec, RainCheckNode, RainwallCluster, SnowClient, SnowServer
from repro.codes import XCode
from repro.rudp import RudpTransport


def _snow(sim, cl):
    for h, tp, m in zip(cl.hosts, cl.transports, cl.membership):
        SnowServer(h, tp, m, batch=4, served_memory=16)
    chost = cl.network.add_host("web-client", nics=2)
    cl.network.link(chost.nic(0), cl.switches[0])
    cl.network.link(chost.nic(1), cl.switches[-1])
    client = SnowClient(chost, RudpTransport(chost))

    def traffic(sim):
        for i in range(120):
            # sprays and repeats: dedup against the queue and the record
            client.send_request(cl.names[: 1 + i % len(cl.names)], path=f"/p{i}")
            yield sim.timeout(0.02)

    sim.process(traffic(sim))


def _rainwall(sim, cl):
    flow = FlowModel(sim.rng.stream("flow"), [f"vip{i}" for i in range(6)], total_mbps=200.0)
    rw = RainwallCluster(cl.membership, flow)
    # console commands land on whichever gateway holds the token next;
    # later ones edit the prefer map earlier holds created
    script = [
        (1.0, "vip0", "node1"),
        (1.0, "vip1", "node2"),
        (2.0, "vip2", "node3"),
        (2.5, "vip3", "node0"),
        (3.0, "vip0", None),
        (3.5, "vip1", None),
    ]
    for t, vip, target in script:
        sim.call_at(t, rw.prefer, vip, target)


def _raincheck(sim, cl):
    jobs = [JobSpec(f"j{i}", total_steps=10, step_time=0.05) for i in range(6)]
    for i in range(len(cl.names)):
        RainCheckNode(cl.member(i), cl.elections[i], cl.store_on(i, XCode(5)), jobs)


@pytest.mark.parametrize(
    "build", [_snow, _rainwall, _raincheck], ids=["snow", "rainwall", "raincheck"]
)
def test_hold_hooks_leave_earlier_token_copies_unchanged(build):
    sim = Simulator(seed=3)
    cl = RainCluster(sim, ClusterConfig(nodes=5))
    build(sim, cl)
    checked = []

    def guarded(hook):
        def run(token):
            before = token.copy()
            snapshot = copy.deepcopy(before)
            hook(token)
            assert before == snapshot, f"{hook.__qualname__} wrote into a shared attachment"
            checked.append(token.seq)

        return run

    for node in cl.membership:
        node._hold_hooks[:] = [guarded(h) for h in node._hold_hooks]
    sim.run(until=6.0)
    assert len(checked) > 20
