"""Fixed-seed benchmark workloads for the regression harness.

Each workload is a deterministic scenario over one subsystem: the same
seed produces the same event trace, the same metric values, and the
same checksum on every run.  The harness exploits that — it repeats a
workload several times for timing stability and *fails* if any
repetition's (ops, checksum) pair differs, so a change that introduces
nondeterminism is caught before it can skew a number.

Seeds come from :func:`bench_seed` (one policy for the whole suite):
a stable CRC of the workload name, so adding workloads never perturbs
existing ones.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

__all__ = ["Workload", "WORKLOADS", "bench_seed", "checksum"]


def bench_seed(name: str) -> int:
    """Deterministic per-workload seed: a stable CRC of the name."""
    return zlib.crc32(name.encode()) & 0x7FFFFFFF


def checksum(*parts: object) -> int:
    """Deterministic fingerprint of a workload's observable outcome."""
    h = 0
    for part in parts:
        h = zlib.crc32(repr(part).encode(), h)
    return h


@dataclass(frozen=True)
class Workload:
    """One benchmark: ``fn(quick)`` returns ``(ops, checksum)``."""

    name: str
    unit: str  # what ops_per_sec counts: events, msgs, xors
    description: str
    fn: Callable[[bool], tuple[int, int]]


# ---------------------------------------------------------------------------
# kernel: raw event-loop dispatch + generator-process switching
# ---------------------------------------------------------------------------


def _wl_kernel(quick: bool) -> tuple[int, int]:
    from repro.sim import Simulator

    n = 4_000 if quick else 20_000
    sim = Simulator(seed=bench_seed("kernel"))
    count = [0]

    def tick() -> None:
        count[0] += 1

    for i in range(n):
        sim.call_in(i * 1e-6, tick)
    sim.run()
    ops = int(sim.obs.metrics.value("sim.kernel.events"))
    return ops, checksum(count[0], ops, round(sim.now, 9))


# ---------------------------------------------------------------------------
# channel: monitored lossy channel carrying a bulk batched data stream
# ---------------------------------------------------------------------------


def _wl_channel(quick: bool) -> tuple[int, int]:
    from repro.channel import LinkMonitorService, MonitorConfig
    from repro.net import Network
    from repro.sim import Simulator

    sim = Simulator(seed=bench_seed("channel"))
    net = Network(sim, default_loss_rate=0.15)
    a = net.add_host("A")
    b = net.add_host("B")
    s = net.add_switch("S")
    net.link(a.nic(0), s)
    net.link(b.nic(0), s)
    cfg = MonitorConfig(ping_interval=0.05, timeout=0.18)
    ma = LinkMonitorService(a, cfg).watch("B", 0, 0)
    mb = LinkMonitorService(b, cfg).watch("A", 0, 0)
    # Bulk data plane over the monitored channel: A pumps open-loop
    # windows at B through the same lossy switch the monitors watch —
    # per-object hellos and batched bulk share serializers and loss
    # streams.  Pre-batching, the same traffic moved one callback per
    # packet per hop; the ratcheted baseline enforces the batched win.
    horizon = 8.0 if quick else 40.0
    window, interval = 256, 0.05
    received = [0]
    b.bind_batch(7000, lambda batch: received.__setitem__(0, received[0] + batch.n_alive))
    bulk_dst = b.endpoint(7000)

    def pump() -> None:
        a.send_batch(bulk_dst, [None] * window, size_bytes=1024)
        if sim.now + interval < horizon:
            sim.call_in(interval, pump)

    sim.call_in(0.0, pump)
    sim.run(until=horizon)
    ops = int(net.stats.sums["packets_delivered"])
    return ops, checksum(
        ops,
        received[0],
        [t.view.name for t in ma.history],
        [t.view.name for t in mb.history],
    )


# ---------------------------------------------------------------------------
# flood: open-loop many-sender packet flood through a ring of switches
# ---------------------------------------------------------------------------


def _wl_flood(quick: bool) -> tuple[int, int]:
    from repro.net import Network
    from repro.sim import Simulator

    n_sw = 8
    sim = Simulator(seed=bench_seed("flood"))
    net = Network(sim, default_loss_rate=0.02)
    switches = [net.add_switch(f"S{i}") for i in range(n_sw)]
    for i in range(n_sw):
        net.link(switches[i], switches[(i + 1) % n_sw])
    hosts = [net.add_host(f"H{i}") for i in range(n_sw)]
    for i, host in enumerate(hosts):
        net.link(host.nic(0), switches[i])
    received = [0]
    for host in hosts:
        host.bind_batch(9000, lambda batch: received.__setitem__(0, received[0] + batch.n_alive))
    # Every host floods the host three switches around the ring, so
    # windows from different senders contend for the same inter-switch
    # serializers in both directions (5 hops end to end, 2% loss per
    # link drawn vectorized per window).
    horizon = 1.0 if quick else 5.0
    window, interval = 128 if quick else 256, 0.02
    targets = [hosts[(i + 3) % n_sw].endpoint(9000) for i in range(n_sw)]

    def pump(i: int) -> None:
        hosts[i].send_batch(targets[i], [None] * window, size_bytes=4096)
        if sim.now + interval < horizon:
            sim.call_in(interval, pump, i)

    for i in range(n_sw):
        sim.call_in(0.0, pump, i)
    sim.run(until=horizon)
    ops = int(net.stats.sums["packets_delivered"])
    dropped = int(net.stats.sums["packets_dropped"])
    return ops, checksum(ops, received[0], dropped, round(sim.now, 9))


# ---------------------------------------------------------------------------
# membership: token circulation around a direct-cabled mesh
# ---------------------------------------------------------------------------


def _wl_membership(quick: bool) -> tuple[int, int]:
    from repro.membership import MembershipConfig, build_membership
    from repro.net import Network
    from repro.sim import Simulator

    n = 4
    sim = Simulator(seed=bench_seed("membership"))
    net = Network(sim)
    hosts = [net.add_host(chr(ord("A") + i), nics=n - 1) for i in range(n)]
    nic_next = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            li, lj = nic_next[i], nic_next[j]
            nic_next[i] += 1
            nic_next[j] += 1
            net.link(hosts[i].nic(li), hosts[j].nic(lj))
    nodes = build_membership(hosts, MembershipConfig())
    sim.run(until=4.0 if quick else 15.0)
    seen = [node.tokens_seen for node in nodes]
    ops = sum(seen)
    return ops, checksum(seen, [tuple(node.membership) for node in nodes])


# ---------------------------------------------------------------------------
# rudp: reliable in-order delivery over lossy bundled paths
# ---------------------------------------------------------------------------


def _wl_rudp(quick: bool) -> tuple[int, int]:
    from repro.net import Network
    from repro.rudp import RudpConfig, RudpTransport
    from repro.sim import Simulator

    sim = Simulator(seed=bench_seed("rudp"))
    net = Network(sim, default_loss_rate=0.2)
    a = net.add_host("A", nics=2)
    b = net.add_host("B", nics=2)
    s0 = net.add_switch("S0")
    s1 = net.add_switch("S1")
    net.link(a.nic(0), s0)
    net.link(b.nic(0), s0)
    net.link(a.nic(1), s1)
    net.link(b.nic(1), s1)
    cfg = RudpConfig()
    ta = RudpTransport(a, cfg)
    tb = RudpTransport(b, cfg)
    got: list[int] = []
    tb.register("bench", lambda src, data: got.append(data))
    n = 80 if quick else 400
    for i in range(n):
        ta.send("B", "bench", i, size_bytes=256)
    sim.run(until=120.0 if quick else 600.0)
    if got != list(range(n)):
        raise RuntimeError("rudp workload lost or reordered messages")
    return len(got), checksum(got, round(sim.now, 9))


# ---------------------------------------------------------------------------
# codes: array-code encode/decode throughput in piece XORs
# ---------------------------------------------------------------------------


def _wl_codes(quick: bool) -> tuple[int, int]:
    from repro.codes import BCode, EvenOddFast, XCode, XorTally

    block_size = 16_384 if quick else 65_536
    rounds = 4 if quick else 12
    block = bytes((i * 31 + 7) & 0xFF for i in range(block_size))
    tally = XorTally()
    digests = []
    for code in (BCode(6, tally=tally), XCode(7, tally=tally), EvenOddFast(5, tally=tally)):
        for r in range(rounds):
            shares = code.encode(block)
            erased = {(r + 1) % code.n, (r + 3) % code.n}
            kept = {i: s for i, s in enumerate(shares) if i not in erased}
            decoded = code.decode(kept, len(block))
            if decoded != block:
                raise RuntimeError(f"{code.name} round-trip failed")
            digests.append(zlib.crc32(b"".join(shares)))
    return tally.count, checksum(tally.count, digests)


# ---------------------------------------------------------------------------
# shard: sharded-kernel barrier stepping under 1k-node membership churn
# ---------------------------------------------------------------------------


def _wl_shard(quick: bool, workers: int = 1) -> tuple[int, int]:
    from repro.scenarios import SCENARIOS

    scenario = SCENARIOS["churn-small" if quick else "shard1k"]
    run = scenario.run(bench_seed("shard"), shards=4, workers=workers)
    report = run.metrics(scenario="bench_shard")
    ops = int(report.metrics["sim.kernel.events"]["series"][0]["value"])
    return ops, checksum(ops, zlib.crc32(report.to_json().encode()))


# ---------------------------------------------------------------------------
# shard_mp: the same churn scenario through the multiprocessing executor
# ---------------------------------------------------------------------------


def _wl_shard_mp(quick: bool) -> tuple[int, int]:
    # Deliberately reuses the *shard* workload's seed and scenario shape:
    # the checksum must equal the in-process workload's, so every bench
    # run doubles as a workers=N == workers=1 determinism check, and the
    # ops_per_sec ratio between the two workloads IS the parallel
    # speedup of stepping the same windows in worker processes rather
    # than in-process (worker pool stays warm across the repeats).
    return _wl_shard(quick, workers=2 if quick else 4)


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            "kernel",
            "events",
            "scheduled-callback dispatch and generator-process switching",
            _wl_kernel,
        ),
        Workload(
            "channel",
            "msgs",
            "consistent-history monitors plus bulk batched windows over a lossy switch",
            _wl_channel,
        ),
        Workload(
            "flood",
            "msgs",
            "open-loop many-sender packet flood through a ring of switches",
            _wl_flood,
        ),
        Workload(
            "membership",
            "msgs",
            "membership token circulation around a 4-node mesh",
            _wl_membership,
        ),
        Workload(
            "rudp",
            "msgs",
            "reliable in-order delivery over lossy bundled paths",
            _wl_rudp,
        ),
        Workload(
            "codes",
            "xors",
            "array-code encode/decode round-trips (B/X/EVENODD)",
            _wl_codes,
        ),
        Workload(
            "shard",
            "events",
            "sharded-kernel barrier stepping under membership churn",
            _wl_shard,
        ),
        Workload(
            "shard_mp",
            "events",
            "same churn via the multiprocessing executor; ops_per_sec vs "
            "the shard workload is the measured parallel speedup",
            _wl_shard_mp,
        ),
    )
}
