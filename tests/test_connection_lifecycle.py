"""One connection lifecycle: an RUDP connection opens on first use.

Every builder (``RainCluster``, ``build_membership``, ``MpiWorld.build``
and ``ShardedRainCluster``) hands out transports with no connection and
no path monitor; ``RudpTransport.send`` and the receive path open one
when a first message goes out or comes in.  A pair that never talks
costs nothing, and a first contact across a dead path is bounded by the
monitor's timeout, one ping interval and the largest RTO backoff.
"""

from repro import ClusterConfig, RainCluster, Simulator
from repro.channel import MonitorConfig
from repro.membership import build_membership, membership_converged
from repro.mpi import MpiWorld
from repro.net import Network
from repro.rudp import RudpConfig


def _dual_plane_hosts(sim, n=4):
    net = Network(sim)
    planes = [net.add_switch(f"S{k}") for k in range(2)]
    hosts = [net.add_host(f"n{i}", nics=2) for i in range(n)]
    for h in hosts:
        for k, sw in enumerate(planes):
            net.link(h.nic(k), sw)
    return hosts


def _assert_unopened(transports):
    for tp in transports:
        assert tp.connections == {}
        assert tp.monitors.paths == {}


def _talking_pairs(transports):
    """The pairs with a connection; each delivered a message either way."""
    by_name = {tp.host.name: tp for tp in transports}
    pairs = set()
    for tp in transports:
        for peer, conn in tp.connections.items():
            back = by_name[peer].connections.get(tp.host.name)
            assert conn.messages_delivered + (back.messages_delivered if back else 0) > 0
            pairs.add(frozenset((tp.host.name, peer)))
    return pairs


def _ring_pairs(names):
    return {frozenset((a, names[(i + 1) % len(names)])) for i, a in enumerate(names)}


def test_rain_cluster_opens_ring_connections_only():
    sim = Simulator(seed=1)
    cl = RainCluster(sim, ClusterConfig(nodes=4))
    _assert_unopened(cl.transports)
    sim.run(until=2.0)
    assert cl.live_members_converged()
    assert _talking_pairs(cl.transports) == _ring_pairs(cl.names)


def test_build_membership_opens_ring_connections_only():
    sim = Simulator(seed=1)
    hosts = _dual_plane_hosts(sim)
    nodes = build_membership(hosts, None, RudpConfig(monitor=MonitorConfig()))
    transports = [m.transport for m in nodes]
    _assert_unopened(transports)
    sim.run(until=2.0)
    names = [h.name for h in hosts]
    assert membership_converged(nodes, names)
    assert _talking_pairs(transports) == _ring_pairs(names)


def test_mpi_world_opens_the_pair_that_talks_only():
    sim = Simulator(seed=1)
    world = MpiWorld.build(sim, _dual_plane_hosts(sim), RudpConfig(monitor=MonitorConfig()))
    transports = [comm.transport for comm in world.comms]
    _assert_unopened(transports)

    def program(comm):
        if comm.rank == 0:
            comm.send("ping", dest=1)
        elif comm.rank == 1:
            msg = yield comm.recv(source=0)
            return msg.data
        yield comm.sim.timeout(0)

    procs = world.launch(program)
    sim.run(until=1.0)
    assert procs[1].value == "ping"
    assert _talking_pairs(transports) == {frozenset(("n0", "n1"))}


def test_first_contact_across_a_dead_plane_is_bounded():
    """node0 first contacts node2 (not a ring neighbour) with plane 0
    down.  Its fresh monitors start Up, so the first segments take NIC 0
    and die; both pinned paths go Down within ``timeout + ping_interval``
    (node2 has no monitor yet, so NIC 1 is silent too), and an all-Down
    bundle that has never heard its peer tries the next path at the
    next retransmission, at most one capped RTO backoff later."""
    sim = Simulator(seed=1)
    config = ClusterConfig(nodes=4)
    cl = RainCluster(sim, config)
    sim.run(until=2.0)
    assert cl.live_members_converged()
    cl.faults.fail(cl.switches[0])
    sim.run(until=3.0)
    assert "node2" not in cl.transport(0).connections
    got = []
    cl.transport(2).register("probe", lambda src, data: got.append(sim.now))
    sent_at = sim.now
    cl.transport(0).send("node2", "probe", "first contact")
    sim.run(until=sent_at + 3.0)
    mon = config.monitor
    bound = mon.timeout + mon.ping_interval + 4 * RudpConfig().rto  # RTO backoff caps at 4x
    assert len(got) == 1
    assert got[0] - sent_at <= bound
    assert cl.live_members_converged()
