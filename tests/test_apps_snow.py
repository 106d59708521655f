"""Tests for the SNOW web cluster (paper Sec. 5.2)."""

import copy
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, RainCluster, Simulator
from repro.apps import SnowClient, SnowServer
from repro.apps.snow import _QUEUE_KEY, _SERVED_KEY
from repro.membership import Token
from repro.rudp import RudpTransport


def snow_cluster(nodes=4, seed=4, batch=16):
    sim = Simulator(seed=seed)
    cl = RainCluster(sim, ClusterConfig(nodes=nodes))
    servers = [
        SnowServer(h, tp, m, batch=batch)
        for h, tp, m in zip(cl.hosts, cl.transports, cl.membership)
    ]
    chost = cl.network.add_host("web-client", nics=2)
    cl.network.link(chost.nic(0), cl.switches[0])
    cl.network.link(chost.nic(1), cl.switches[-1])
    client = SnowClient(chost, RudpTransport(chost))
    sim.run(until=1.0)
    return sim, cl, servers, client


def test_single_request_single_reply():
    sim, cl, servers, client = snow_cluster()

    def go(sim):
        rid, srv = yield from client.request([cl.names[0]], path="/index.html")
        return rid, srv

    rid, srv = sim.run_process(go(sim), until=sim.now + 20)
    assert srv in cl.names
    assert client.reply_counts() == {rid: 1}


def test_exactly_once_across_many_requests():
    sim, cl, servers, client = snow_cluster()

    def go(sim):
        for i in range(30):
            client.send_request([cl.names[i % 4]], path=f"/p{i}")
            yield sim.timeout(0.05)
        yield sim.timeout(10.0)

    sim.run_process(go(sim), until=sim.now + 60)
    counts = client.reply_counts()
    assert len(counts) == 30
    assert all(v == 1 for v in counts.values()), counts


def test_sprayed_request_answered_exactly_once():
    # the client sends the same request to EVERY server; the token queue
    # dedupes: one and only one server replies.
    sim, cl, servers, client = snow_cluster()

    def go(sim):
        rid = client.send_request(cl.names, path="/sprayed")
        yield sim.timeout(8.0)
        return rid

    rid = sim.run_process(go(sim), until=sim.now + 20)
    assert len(client.responses[rid]) == 1


def test_load_balanced_across_servers():
    sim, cl, servers, client = snow_cluster()

    def go(sim):
        for i in range(40):
            client.send_request([cl.names[i % 4]], path=f"/{i}")
            yield sim.timeout(0.02)
        yield sim.timeout(10.0)

    sim.run_process(go(sim), until=sim.now + 60)
    served = [len(s.served) for s in servers]
    assert sum(served) == 40
    assert max(served) - min(served) <= 16  # token rotation spreads work


def test_requests_survive_server_crash():
    sim, cl, servers, client = snow_cluster()

    def go(sim):
        ids = []
        for i in range(30):
            # clients spray at two servers so a dead one is covered
            ids.append(client.send_request(cl.names[:2], path=f"/{i}"))
            yield sim.timeout(0.1)
        yield sim.timeout(15.0)
        return ids

    cl.faults.fail_at(2.0, cl.host(0))
    ids = sim.run_process(go(sim), until=sim.now + 90)
    counts = client.reply_counts()
    answered = [rid for rid in ids if counts.get(rid)]
    # every request eventually answered (node1 still received them all),
    # and none answered more than once
    assert len(answered) == 30
    assert all(counts[rid] == 1 for rid in answered)
    # the dead server served nothing after the crash
    late = [r for r in servers[0].served if False]
    assert not late


def test_no_external_load_balancer_needed():
    # requests go to ANY single server; replies still come from the
    # whole cluster via token rotation (no front-end director).  A small
    # per-hold batch models per-server service capacity, so the backlog
    # spills onto the token queue for other holders to drain.
    sim, cl, servers, client = snow_cluster(batch=2)

    def go(sim):
        for i in range(24):
            client.send_request([cl.names[0]], path=f"/{i}")  # all to node0
            yield sim.timeout(0.01)
        yield sim.timeout(10.0)

    sim.run_process(go(sim), until=sim.now + 60)
    served = {s.host.name: len(s.served) for s in servers}
    assert sum(served.values()) == 24
    # more than one server did the answering
    assert sum(1 for v in served.values() if v > 0) >= 2


def test_scalability_more_nodes_share_work():
    sim, cl, servers, client = snow_cluster(nodes=6)

    def go(sim):
        for i in range(36):
            client.send_request([cl.names[i % 6]], path=f"/{i}")
            yield sim.timeout(0.02)
        yield sim.timeout(10.0)

    sim.run_process(go(sim), until=sim.now + 60)
    served = [len(s.served) for s in servers]
    assert sum(served) == 36
    assert sum(1 for v in served if v > 0) >= 4


# -- the token hook against the tuple record it replaced --------------------


class _TupleSnowServer(SnowServer):
    """The token hook as it was when the served ids rode the token as a
    tuple, rebuilt into a list and a set on every visit."""

    def _on_token(self, token):
        queue = list(token.attachments.get(_QUEUE_KEY, ()))
        served_ids = list(token.attachments.get(_SERVED_KEY, ()))
        served_set = set(served_ids)
        queued_ids = {r.req_id for r in queue}
        for req in self._inbox:
            if req.req_id not in served_set and req.req_id not in queued_ids:
                queue.append(req)
                queued_ids.add(req.req_id)
        self._inbox.clear()
        to_serve, queue = queue[: self.batch], queue[self.batch :]
        for req in to_serve:
            self._reply(req)
            served_ids.append(req.req_id)
        del served_ids[: max(0, len(served_ids) - self.served_memory)]
        token.attachments[_QUEUE_KEY] = tuple(queue)
        token.attachments[_SERVED_KEY] = tuple(served_ids)


class _World:
    """Servers driven by hand: no network, one token, the older copies a
    911 regeneration could restart from."""

    def __init__(self, kind, n, batch, memory):
        sim = Simulator(seed=0)
        self.replies = []
        self.servers = []
        for i in range(n):
            host = SimpleNamespace(sim=sim, name=f"s{i}", up=True)
            transport = SimpleNamespace(
                register=lambda service, fn: None,
                send=lambda peer, service, msg, size_bytes, i=i: self.replies.append((i, msg[1])),
            )
            membership = SimpleNamespace(on_hold=lambda fn: None)
            server = kind(host, transport, membership, batch=batch, served_memory=memory)
            self.servers.append(server)
        self.token = Token(seq=0, ring=tuple(f"s{i}" for i in range(n)))
        self.copies = []  # (copy, deep snapshot taken with it)

    def step(self, op):
        kind, a, b = op
        if kind == "get":  # b: spray at every server
            for srv in self.servers if b else [self.servers[a % len(self.servers)]]:
                srv._on_msg("client", ("GET", f"r{a}", "/"))
        elif kind == "visit":
            before = self.token.copy()  # the holder's local_copy
            self.copies.append((before, copy.deepcopy(before)))
            self.servers[a % len(self.servers)]._on_token(self.token)
        elif self.copies:  # regenerate from an older copy
            self.token = self.copies[a % len(self.copies)][0].copy()

    def record(self):
        att = self.token.attachments
        return tuple(att.get(_QUEUE_KEY, ())), tuple(att.get(_SERVED_KEY, ()))


_SNOW_OPS = st.lists(
    st.tuples(st.sampled_from(("get", "get", "visit", "visit", "regen")),
              st.integers(0, 11), st.booleans()),
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(ops=_SNOW_OPS, n=st.integers(1, 3), batch=st.integers(1, 4), memory=st.integers(0, 6))
def test_served_record_matches_the_tuple_hook(ops, n, batch, memory):
    got = _World(SnowServer, n, batch, memory)
    want = _World(_TupleSnowServer, n, batch, memory)
    for op in ops:
        got.step(op)
        want.step(op)
        queue, served = want.record()
        # the map counts an id once, so the tuple must never hold one twice
        assert len(set(served)) == len(served)
        assert got.record() == (queue, served)
        assert got.replies == want.replies
        assert [s.served for s in got.servers] == [s.served for s in want.servers]
    for before, snapshot in got.copies:  # earlier copies kept their version
        assert before == snapshot
