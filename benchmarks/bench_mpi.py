"""E16 — MPI over RUDP experiments (paper Sec. 2.5).

The paper's MPI port claims: (1) individual networking components can
fail up to the installed redundancy with the MPI program proceeding "as
if nothing had happened"; (2) beyond the redundancy the application
hangs until the link is restored, then resumes (MPI has no error path
for links); (3) the redundant hardware provides increased bandwidth
(interface bundling/striping).
"""

from __future__ import annotations

from conftest import once

from repro.channel import MonitorConfig
from repro.mpi import MpiWorld
from repro.net import FaultInjector, Network
from repro.rudp import RudpConfig, RudpTransport
from repro.sim import Simulator


def dual_plane_world(n=4, seed=51, bandwidth=1e9):
    sim = Simulator(seed=seed)
    net = Network(sim, default_bandwidth_bps=bandwidth)
    s0 = net.add_switch("S0", ports=32)
    s1 = net.add_switch("S1", ports=32)
    hosts = []
    for i in range(n):
        h = net.add_host(f"n{i}", nics=2)
        net.link(h.nic(0), s0)
        net.link(h.nic(1), s1)
        hosts.append(h)
    mon = MonitorConfig(ping_interval=0.05, timeout=0.2)
    world = MpiWorld.build(sim, hosts, rudp_config=RudpConfig(monitor=mon))
    return sim, net, world


def test_single_failure_masked(benchmark, record):
    """One switch plane dies mid-run: the MPI program never notices."""

    def run():
        sim, net, world = dual_plane_world()
        FaultInjector(net).fail_at(2.0, net.switches["S0"])
        round_times = []

        def program(comm):
            for _ in range(50):
                total = yield from comm.allreduce(comm.rank, op=lambda a, b: a + b)
                assert total == 6
                if comm.rank == 0:
                    round_times.append(comm.sim.now)
                yield comm.sim.timeout(0.1)
            return "done"

        procs = world.launch(program)
        sim.run(until=120.0)
        results = [p.value for p in procs]
        gaps = [b - a for a, b in zip(round_times, round_times[1:])]
        return results, max(gaps), sum(gaps) / len(gaps)

    results, max_gap, mean_gap = once(benchmark, run)
    assert results == ["done"] * 4
    assert max_gap < 1.5  # no long stall across the failover
    text = ["MPI over RUDP (Sec. 2.5) — switch plane S0 killed at t=2s", ""]
    text.append("50 allreduce rounds completed on all 4 ranks: True")
    text.append(f"mean round gap {mean_gap * 1e3:.1f} ms, worst {max_gap * 1e3:.1f} ms")
    text.append("")
    text.append("paper: 'if all machines have two network adaptors and one link")
    text.append("fails, the MPI program will proceed as if nothing had happened.'")
    record(
        "E16_single_failure_masked",
        "\n".join(text),
        ranks_done=len(results),
        mean_gap_ms=round(mean_gap * 1e3, 2),
        max_gap_ms=round(max_gap * 1e3, 2),
    )


def test_double_failure_hangs_then_resumes(benchmark, record):
    """Both planes die: the send stalls inside RUDP until the repair."""

    def run():
        sim, net, world = dual_plane_world(n=2)
        fi = FaultInjector(net)
        fi.outage(net.switches["S0"], start=1.0, duration=9.0)
        fi.outage(net.switches["S1"], start=1.0, duration=9.0)
        recv_time = {}

        def program(comm):
            if comm.rank == 0:
                yield comm.sim.timeout(2.0)  # inside the blackout
                comm.send("payload", dest=1, tag=7)
            else:
                msg = yield comm.recv(source=0, tag=7)
                recv_time["t"] = comm.sim.now
                return msg.data

        procs = world.launch(program)
        sim.run(until=60.0)
        return procs[1].value, recv_time["t"]

    value, t = once(benchmark, run)
    assert value == "payload"
    assert t >= 10.0  # only after both planes repaired at t=10
    text = ["MPI over RUDP — both planes down 1s-10s; send issued at t=2s", ""]
    text.append(f"message received at t={t:.2f}s (repair at t=10s)")
    text.append("")
    text.append("paper: 'If a second link fails, the MPI application may hang")
    text.append("until the link is restored... the RUDP layer knows of the loss")
    text.append("of connectivity [but] must wait for the problem to be resolved.'")
    record(
        "E16_double_failure_hang",
        "\n".join(text),
        received_at=round(t, 3),
        repair_at=10.0,
    )


def test_bundling_bandwidth(benchmark, record):
    """Striping over two NICs ~doubles bulk throughput on slow links."""

    def run():
        out = {}
        for policy in ("failover", "stripe"):
            sim = Simulator(seed=52)
            net = Network(sim, default_bandwidth_bps=8e6)  # 1 MB/s links
            s0 = net.add_switch("S0")
            s1 = net.add_switch("S1")
            a = net.add_host("A", nics=2)
            b = net.add_host("B", nics=2)
            net.link(a.nic(0), s0)
            net.link(a.nic(1), s1)
            net.link(b.nic(0), s0)
            net.link(b.nic(1), s1)
            ta = RudpTransport(a, RudpConfig(window=256, policy=policy))
            tb = RudpTransport(b)
            ta.connect("B")  # bundles (0, 0) and (1, 1)
            tb.connect("A")
            got = []
            tb.register("bulk", lambda src, x: got.append(sim.now))
            total_bytes = 2_000_000
            chunk = 8000
            for i in range(total_bytes // chunk):
                ta.send("B", "bulk", i, size_bytes=chunk)
            sim.run(until=30.0)
            duration = got[-1] if got else float("inf")
            out[policy] = (len(got) * chunk * 8 / 1e6, duration,
                           len(got) * chunk * 8 / duration / 1e6)
        return out

    out = once(benchmark, run)
    mb_f, dur_f, mbps_f = out["failover"]
    mb_s, dur_s, mbps_s = out["stripe"]
    assert mbps_s > 1.6 * mbps_f  # ~2x from dual interfaces
    text = ["Interface bundling — 2 MB bulk transfer over 8 Mb/s links", ""]
    text.append(f"{'policy':>10} {'delivered (Mb)':>15} {'time (s)':>9} {'throughput (Mb/s)':>18}")
    for policy, (mb, dur, mbps) in out.items():
        text.append(f"{policy:>10} {mb:>15.1f} {dur:>9.2f} {mbps:>18.2f}")
    text.append("")
    text.append("paper: bundled interfaces 'not only add fault tolerance to the")
    text.append("network, but also give improved bandwidth'.")
    record(
        "E16_bundling_bandwidth",
        "\n".join(text),
        **{f"mbps_{policy}": round(mbps, 2) for policy, (_, _, mbps) in out.items()},
    )


def test_collectives_latency(benchmark, record):
    """Simulated latency of each collective at n=8 (reference table)."""

    def run():
        rows = []
        for coll in ("barrier", "bcast", "gather", "allreduce", "alltoall"):
            sim, net, world = dual_plane_world(n=8, seed=53)
            t0 = {}

            def program(comm, coll=coll):
                yield comm.sim.timeout(0.01)
                start = comm.sim.now
                if coll == "barrier":
                    yield from comm.barrier()
                elif coll == "bcast":
                    yield from comm.bcast("x" if comm.rank == 0 else None, root=0)
                elif coll == "gather":
                    yield from comm.gather(comm.rank, root=0)
                elif coll == "allreduce":
                    yield from comm.allreduce(comm.rank, op=lambda a, b: a + b)
                elif coll == "alltoall":
                    yield from comm.alltoall(list(range(comm.size)))
                if comm.rank == 0:
                    t0["dt"] = comm.sim.now - start

            world.launch(program)
            sim.run(until=30.0)
            rows.append((coll, t0["dt"]))
        return rows

    rows = once(benchmark, run)
    assert all(dt < 1.0 for _, dt in rows)
    text = ["MPI collectives — simulated completion latency, 8 ranks", ""]
    text.append(f"{'collective':>11} {'latency (ms)':>13}")
    for coll, dt in rows:
        text.append(f"{coll:>11} {dt * 1e3:>13.3f}")
    record(
        "E16_collectives",
        "\n".join(text),
        **{f"{coll}_ms": round(dt * 1e3, 3) for coll, dt in rows},
    )
