"""Tests for the MPI layer over RUDP (paper Sec. 2.5)."""

import pytest

from repro.channel import MonitorConfig
from repro.mpi import ANY_SOURCE, ANY_TAG, MpiError, MpiWorld, RankError
from repro.net import FaultInjector, Network
from repro.rudp import RudpConfig
from repro.sim import Simulator


def build_world(n=4, nics=2, monitor=None, seed=1):
    """n hosts, dual NICs, two switches, full connectivity."""
    sim = Simulator(seed=seed)
    net = Network(sim)
    s0 = net.add_switch("S0", ports=32)
    s1 = net.add_switch("S1", ports=32)
    hosts = []
    for i in range(n):
        h = net.add_host(f"n{i}", nics=nics)
        net.link(h.nic(0), s0)
        if nics > 1:
            net.link(h.nic(1), s1)
        hosts.append(h)
    world = MpiWorld.build(sim, hosts, rudp_config=RudpConfig(monitor=monitor))
    return sim, net, world


def run_all(sim, procs, until=60.0):
    sim.run(until=until)
    for p in procs:
        assert p.triggered, f"{p.name} did not finish"
        if not p._ok:
            raise p.value
    return [p.value for p in procs]


def test_send_recv_pair():
    sim, net, world = build_world(2)

    def program(comm):
        if comm.rank == 0:
            comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
            return "sent"
        msg = yield comm.recv(source=0, tag=11)
        return msg.data

    results = run_all(sim, world.launch(program))
    assert results == ["sent", {"a": 7, "b": 3.14}]


def test_recv_any_source_any_tag():
    sim, net, world = build_world(3)

    def program(comm):
        if comm.rank == 0:
            received = []
            for _ in range(2):
                msg = yield comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                received.append((msg.source, msg.tag, msg.data))
            return sorted(received)
        comm.send(f"hello-{comm.rank}", dest=0, tag=comm.rank * 10)
        return None

    results = run_all(sim, world.launch(program))
    assert results[0] == [(1, 10, "hello-1"), (2, 20, "hello-2")]


def test_tag_matching_out_of_order():
    sim, net, world = build_world(2)

    def program(comm):
        if comm.rank == 0:
            comm.send("first", dest=1, tag=1)
            comm.send("second", dest=1, tag=2)
            return None
        # receive tag 2 before tag 1: matching must not be fooled by
        # arrival order
        m2 = yield comm.recv(source=0, tag=2)
        m1 = yield comm.recv(source=0, tag=1)
        return (m1.data, m2.data)

    results = run_all(sim, world.launch(program))
    assert results[1] == ("first", "second")


def test_isend_irecv():
    sim, net, world = build_world(2)

    def program(comm):
        if comm.rank == 0:
            req = comm.isend([1, 2, 3], dest=1, tag=5)
            yield req.wait()
            assert req.test()
            return None
        req = comm.irecv(source=0, tag=5)
        msg = yield req.wait()
        return msg.data

    results = run_all(sim, world.launch(program))
    assert results[1] == [1, 2, 3]


def test_probe():
    sim, net, world = build_world(2)

    def program(comm):
        if comm.rank == 0:
            comm.send("x", dest=1, tag=9)
            return None
        yield comm.sim.timeout(1.0)  # let it arrive unexpected
        st = comm.probe()
        assert st is not None and st.source == 0 and st.tag == 9
        assert comm.probe(tag=42) is None
        msg = yield comm.recv(source=0, tag=9)
        return msg.data

    results = run_all(sim, world.launch(program))
    assert results[1] == "x"


def test_rank_bounds():
    sim, net, world = build_world(2)
    comm = world.comm(0)
    with pytest.raises(RankError):
        comm.send("x", dest=5)


def test_program_must_be_generator():
    sim, net, world = build_world(2)
    with pytest.raises(MpiError):
        world.launch(lambda comm: None)


class TestCollectives:
    def test_barrier_synchronizes(self):
        sim, net, world = build_world(4)
        exit_times = {}

        def program(comm):
            yield comm.sim.timeout(comm.rank * 0.5)  # stagger entry
            yield from comm.barrier()
            exit_times[comm.rank] = comm.sim.now

        run_all(sim, world.launch(program))
        latest_entry = 3 * 0.5
        assert all(t >= latest_entry for t in exit_times.values())

    def test_bcast_from_each_root(self):
        for root in range(4):
            sim, net, world = build_world(4)

            def program(comm, root=root):
                value = f"payload-{root}" if comm.rank == root else None
                result = yield from comm.bcast(value, root=root)
                return result

            results = run_all(sim, world.launch(program))
            assert results == [f"payload-{root}"] * 4

    def test_scatter_gather_roundtrip(self):
        sim, net, world = build_world(4)

        def program(comm):
            values = [i * i for i in range(comm.size)] if comm.rank == 0 else None
            mine = yield from comm.scatter(values, root=0)
            doubled = mine * 2
            out = yield from comm.gather(doubled, root=0)
            return out

        results = run_all(sim, world.launch(program))
        assert results[0] == [0, 2, 8, 18]
        assert results[1] is None

    def test_scatter_wrong_length(self):
        sim, net, world = build_world(2)

        def program(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError):
                    yield from comm.scatter([1, 2, 3], root=0)
                comm.send(None, dest=1, tag="unblock")
            else:
                yield comm.recv(source=0, tag="unblock")

        run_all(sim, world.launch(program))

    def test_allgather(self):
        sim, net, world = build_world(4)

        def program(comm):
            result = yield from comm.allgather(comm.rank * 10)
            return result

        results = run_all(sim, world.launch(program))
        assert results == [[0, 10, 20, 30]] * 4

    def test_reduce_sum(self):
        sim, net, world = build_world(5)

        def program(comm):
            result = yield from comm.reduce(comm.rank + 1, op=lambda a, b: a + b, root=0)
            return result

        results = run_all(sim, world.launch(program))
        assert results[0] == 15
        assert results[1:] == [None] * 4

    def test_allreduce_max(self):
        sim, net, world = build_world(4)

        def program(comm):
            result = yield from comm.allreduce(comm.rank * 7 % 5, op=max)
            return result

        results = run_all(sim, world.launch(program))
        expected = max(r * 7 % 5 for r in range(4))
        assert results == [expected] * 4

    def test_alltoall(self):
        sim, net, world = build_world(3)

        def program(comm):
            values = [f"{comm.rank}->{j}" for j in range(comm.size)]
            result = yield from comm.alltoall(values)
            return result

        results = run_all(sim, world.launch(program))
        for j, row in enumerate(results):
            assert row == [f"{i}->{j}" for i in range(3)]

    def test_back_to_back_collectives_do_not_cross_match(self):
        sim, net, world = build_world(3)

        def program(comm):
            a = yield from comm.bcast("first" if comm.rank == 0 else None, root=0)
            b = yield from comm.bcast("second" if comm.rank == 0 else None, root=0)
            c = yield from comm.allreduce(1, op=lambda x, y: x + y)
            return (a, b, c)

        results = run_all(sim, world.launch(program))
        assert results == [("first", "second", 3)] * 3


class TestFaultMasking:
    """Paper Sec. 2.5: link failures are masked up to the installed
    redundancy; beyond it, MPI hangs until repair, then resumes."""

    def test_single_switch_failure_masked(self):
        mon = MonitorConfig(ping_interval=0.05, timeout=0.2)
        sim, net, world = build_world(4, monitor=mon)
        FaultInjector(net).fail_at(1.0, net.switches["S0"])

        def program(comm):
            total = 0
            for _round in range(30):
                value = yield from comm.allreduce(comm.rank, op=lambda a, b: a + b)
                total += value
                yield comm.sim.timeout(0.1)
            return total

        results = run_all(sim, world.launch(program), until=120.0)
        assert results == [30 * 6] * 4  # 0+1+2+3 = 6 per round

    def test_double_failure_hangs_until_repair(self):
        mon = MonitorConfig(ping_interval=0.05, timeout=0.2)
        sim, net, world = build_world(2, monitor=mon)
        fi = FaultInjector(net)
        fi.outage(net.switches["S0"], start=1.0, duration=10.0)
        fi.outage(net.switches["S1"], start=1.0, duration=10.0)
        times = {}

        def program(comm):
            if comm.rank == 0:
                yield comm.sim.timeout(2.0)  # during the blackout
                comm.send("through-the-storm", dest=1, tag=0)
            else:
                msg = yield comm.recv(source=0, tag=0)
                times["recv"] = comm.sim.now
                return msg.data

        results = run_all(sim, world.launch(program), until=60.0)
        assert results[1] == "through-the-storm"
        assert times["recv"] >= 11.0  # only after the repair


class TestExtraCollectives:
    def test_scan_prefix_sums(self):
        sim, net, world = build_world(5)

        def program(comm):
            result = yield from comm.scan(comm.rank + 1, op=lambda a, b: a + b)
            return result

        results = run_all(sim, world.launch(program))
        assert results == [1, 3, 6, 10, 15]

    def test_sendrecv_ring_shift(self):
        sim, net, world = build_world(4)

        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            got = yield from comm.sendrecv(
                f"from-{comm.rank}", dest=right, source=left,
                sendtag="shift", recvtag="shift",
            )
            return got

        results = run_all(sim, world.launch(program))
        assert results == ["from-3", "from-0", "from-1", "from-2"]

    def test_scan_single_rank(self):
        sim, net, world = build_world(2)

        def program(comm):
            if comm.rank == 0:
                r = yield from comm.scan(7, op=lambda a, b: a + b)
            else:
                r = yield from comm.scan(5, op=lambda a, b: a + b)
            return r

        results = run_all(sim, world.launch(program))
        assert results == [7, 12]


class TestScale:
    def test_sixteen_rank_collectives(self):
        sim, net, world = build_world(16)

        def program(comm):
            total = yield from comm.allreduce(comm.rank, op=lambda a, b: a + b)
            gathered = yield from comm.allgather(comm.rank * comm.rank)
            prefix = yield from comm.scan(1, op=lambda a, b: a + b)
            return total, gathered[comm.rank], prefix

        results = run_all(sim, world.launch(program), until=120.0)
        expected_total = sum(range(16))
        for rank, (total, sq, prefix) in enumerate(results):
            assert total == expected_total
            assert sq == rank * rank
            assert prefix == rank + 1

    def test_bcast_depth_is_logarithmic(self):
        # binomial tree: a 16-rank bcast completes in ~4 network RTTs,
        # far faster than 15 sequential sends would
        sim, net, world = build_world(16)
        finish = {}

        def program(comm):
            value = "payload" if comm.rank == 0 else None
            yield from comm.bcast(value, root=0)
            finish[comm.rank] = comm.sim.now

        world.launch(program)
        sim.run(until=30.0)
        assert len(finish) == 16
        # latency grows with tree depth, not rank count: last rank
        # finishes within ~6x the first non-root rank's latency
        base = min(t for r, t in finish.items() if r != 0)
        assert max(finish.values()) < 6 * base + 0.01
