"""Tests for distributed store/retrieve (paper Sec. 4.2)."""

import pytest

from repro.codes import BCode, ReedSolomon
from repro.net import FaultInjector, Network
from repro.rudp import RudpTransport
from repro.sim import Simulator
from repro.storage import (
    DistributedStore,
    FirstK,
    LeastLoaded,
    RetrieveError,
    StorageNode,
    StoreResult,
)


def storage_cluster(n=6, code=None, seed=1, placement=None):
    """n storage hosts + 1 client, all on one switch."""
    sim = Simulator(seed=seed)
    net = Network(sim)
    sw = net.add_switch("SW", ports=32)
    hosts = []
    servers = []
    for i in range(n):
        h = net.add_host(f"s{i}")
        net.link(h.nic(0), sw)
        tp = RudpTransport(h)
        servers.append(StorageNode(h, tp))
        hosts.append(h)
    client_host = net.add_host("client")
    net.link(client_host.nic(0), sw)
    tp = RudpTransport(client_host)
    code = code or BCode(6)
    store = DistributedStore(
        client_host,
        tp,
        [h.name for h in hosts],
        code,
        placement=placement,
    )
    return sim, net, hosts, servers, store


def run(sim, gen, until=30.0):
    return sim.run_process(gen, until=sim.now + until)


def corrupt(server, object_id, flip_byte=0):
    """Flip one byte of a stored symbol underneath its checksum (bit rot)."""
    idx, share, data_len, digest = server.symbols[object_id]
    mutated = bytearray(share)
    if mutated:
        mutated[flip_byte % len(mutated)] ^= 0xFF
    server.symbols[object_id] = (idx, bytes(mutated), data_len, digest)


def test_store_places_one_symbol_per_node():
    sim, net, hosts, servers, store = storage_cluster()
    result = run(sim, store.store("obj", b"data block payload"))
    assert isinstance(result, StoreResult) and result.complete
    assert sorted(result.acked) == [h.name for h in hosts]
    for i, srv in enumerate(servers):
        idx, share, dlen, digest = srv.symbols["obj"]
        assert idx == i and dlen == 18


def test_retrieve_roundtrip():
    sim, net, hosts, servers, store = storage_cluster()
    data = bytes(range(200))
    run(sim, store.store("blob", data))
    out = run(sim, store.retrieve("blob"))
    assert out == data


def test_retrieve_uses_only_k_nodes_when_healthy():
    sim, net, hosts, servers, store = storage_cluster()
    run(sim, store.store("o", b"x" * 50))
    served_before = [s.gets_served for s in servers]
    run(sim, store.retrieve("o"))
    served = [s.gets_served - b for s, b in zip(servers, served_before)]
    assert sum(served) == store.code.k


def test_survives_up_to_m_node_failures():
    sim, net, hosts, servers, store = storage_cluster()
    data = b"important state" * 10
    run(sim, store.store("ckpt", data))
    fi = FaultInjector(net)
    fi.fail(hosts[0])
    fi.fail(hosts[3])  # m = 2 for bcode(6,4)
    out = run(sim, store.retrieve("ckpt"), until=60.0)
    assert out == data


def test_too_many_failures_raises():
    sim, net, hosts, servers, store = storage_cluster()
    run(sim, store.store("o", b"payload"))
    fi = FaultInjector(net)
    for i in (0, 1, 2):
        fi.fail(hosts[i])

    def attempt(sim):
        try:
            yield from store.retrieve("o")
            return "ok"
        except RetrieveError:
            return "failed"

    assert run(sim, attempt(sim), until=120.0) == "failed"


def test_store_reports_missing_nodes():
    sim, net, hosts, servers, store = storage_cluster()
    FaultInjector(net).fail(hosts[5])
    result = run(sim, store.store("o", b"zz"), until=30.0)
    assert result.missing == ["s5"]
    assert not result.complete
    # but the object is still retrievable (5 >= k symbols landed)
    out = run(sim, store.retrieve("o"), until=60.0)
    assert out == b"zz"


def test_requests_that_time_out_leave_nothing_pending():
    # A crashed node never answers: the store gives up on it at its
    # deadline, the retrieve rotates past it, and neither op leaves a
    # request id behind for a reply that will never come.
    sim, net, hosts, servers, store = storage_cluster()
    fi = FaultInjector(net)
    fi.fail(hosts[0])
    result = run(sim, store.store("o", b"payload" * 20))
    assert result.missing == ["s0"]
    assert store._pending == {}
    assert run(sim, store.retrieve("o"), until=60.0) == b"payload" * 20
    assert store._pending == {}
    for i in (1, 2):
        fi.fail(hosts[i])

    def attempt(sim):
        try:
            yield from store.retrieve("o")
        except RetrieveError:
            return "failed"

    assert run(sim, attempt(sim), until=120.0) == "failed"
    assert store._pending == {}
    assert all(v == 0 for v in store.outstanding.values())


def test_hot_swap_node_replacement():
    # store, lose a node, the object survives; a repaired node serves
    # again after a fresh store
    sim, net, hosts, servers, store = storage_cluster()
    run(sim, store.store("v1", b"version-1"))
    fi = FaultInjector(net)
    fi.fail(hosts[1])
    assert run(sim, store.retrieve("v1"), until=60.0) == b"version-1"
    fi.repair(hosts[1])
    run(sim, store.store("v2", b"version-2"))
    assert run(sim, store.retrieve("v2"), until=60.0) == b"version-2"


def test_retrieve_missing_object():
    sim, net, hosts, servers, store = storage_cluster()

    def attempt(sim):
        try:
            yield from store.retrieve("ghost")
            return "ok"
        except RetrieveError:
            return "missing"

    assert run(sim, attempt(sim), until=60.0) == "missing"


def test_drop_removes_symbols():
    sim, net, hosts, servers, store = storage_cluster()
    run(sim, store.store("tmp", b"scratch"))
    store.drop("tmp")
    sim.run(until=sim.now + 2.0)
    assert all("tmp" not in s.symbols for s in servers)


def test_works_with_reed_solomon():
    sim, net, hosts, servers, store = storage_cluster(code=ReedSolomon(6, 3))
    data = bytes(range(120))
    run(sim, store.store("rs-obj", data))
    fi = FaultInjector(net)
    for i in (1, 2, 4):
        fi.fail(hosts[i])
    assert run(sim, store.retrieve("rs-obj"), until=60.0) == data


def test_code_node_count_mismatch_rejected():
    sim = Simulator()
    net = Network(sim)
    h = net.add_host("h")
    sw = net.add_switch("SW")
    net.link(h.nic(0), sw)
    tp = RudpTransport(h)
    with pytest.raises(ValueError):
        DistributedStore(h, tp, ["a", "b"], BCode(6))


def test_multiple_stores_share_transport():
    sim, net, hosts, servers, store = storage_cluster()
    store2 = DistributedStore(
        store.host, store.transport, store.nodes, BCode(6)
    )
    run(sim, store.store("one", b"first"))
    run(sim, store2.store("two", b"second"))
    assert run(sim, store.retrieve("two")) == b"second"
    assert run(sim, store2.retrieve("one")) == b"first"


class TestPlacement:
    def test_first_k_order(self):
        assert FirstK().order(["c", "a", "b"]) == ["c", "a", "b"]

    def test_least_loaded_order(self):
        loads = {"a": 5.0, "b": 1.0, "c": 3.0}
        pl = LeastLoaded(lambda n: loads[n])
        assert pl.order(["a", "b", "c"]) == ["b", "c", "a"]

    def test_least_loaded_retrieval_spreads_load(self):
        sim, net, hosts, servers, store = storage_cluster(
            placement=LeastLoaded(lambda n: 0)
        )
        # make it dynamic: placement keyed on gets served so far
        by_name = {h.name: srv for h, srv in zip(hosts, servers)}
        store.placement = LeastLoaded(lambda n: by_name[n].gets_served)
        run(sim, store.store("o", b"spread me" * 20))

        def many_reads(sim):
            for _ in range(12):
                yield from store.retrieve("o")

        run(sim, many_reads(sim), until=120.0)
        served = [s.gets_served for s in servers]
        assert max(served) - min(served) <= 2  # near-uniform spread


class TestIntegrity:
    """Checksummed symbols: bit rot is detected and routed around."""

    def test_corrupt_symbol_never_served(self):
        sim, net, hosts, servers, store = storage_cluster()
        data = b"precious " * 100
        run(sim, store.store("obj", data))
        corrupt(servers[0], "obj")
        out = run(sim, store.retrieve("obj"), until=60.0)
        assert out == data  # decoded from the clean symbols
        assert servers[0].corruptions_detected == 1
        assert "obj" not in servers[0].symbols  # corrupt copy discarded

    def test_m_corruptions_plus_zero_failures_survive(self):
        sim, net, hosts, servers, store = storage_cluster()
        data = b"belt and braces " * 32
        run(sim, store.store("obj", data))
        corrupt(servers[1], "obj")
        corrupt(servers[4], "obj", flip_byte=7)
        out = run(sim, store.retrieve("obj"), until=60.0)
        assert out == data

    def test_beyond_m_corruptions_fail_loudly(self):
        sim, net, hosts, servers, store = storage_cluster()
        run(sim, store.store("obj", b"too far"))
        for i in (0, 2, 5):
            corrupt(servers[i], "obj")

        def attempt(sim=sim):
            try:
                yield from store.retrieve("obj")
                return "ok"
            except RetrieveError:
                return "failed"

        # never silent corruption: either clean data or a clean failure
        assert run(sim, attempt(), until=120.0) == "failed"
