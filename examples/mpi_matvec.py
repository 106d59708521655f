#!/usr/bin/env python3
"""Parallel matrix-vector product over RAIN MPI (paper Sec. 2.5).

The classic mpi4py tutorial kernel — each rank holds a row block of A
and the full x is assembled with Allgather — running on the RAIN
communication layer.  Halfway through the iteration loop an entire
switch plane is killed: with bundled interfaces the computation
proceeds "as if nothing had happened".

Run:  python examples/mpi_matvec.py
"""

import numpy as np

from repro.channel import MonitorConfig
from repro.mpi import MpiWorld
from repro.net import FaultInjector, Network
from repro.rudp import RudpConfig
from repro.sim import Simulator


def main() -> None:
    P, N = 4, 16  # ranks, global matrix dimension
    rows = N // P

    sim = Simulator(seed=43)
    net = Network(sim)
    s0, s1 = net.add_switch("S0", ports=16), net.add_switch("S1", ports=16)
    hosts = []
    for i in range(P):
        h = net.add_host(f"rank{i}", nics=2)
        net.link(h.nic(0), s0)
        net.link(h.nic(1), s1)
        hosts.append(h)
    world = MpiWorld.build(
        sim,
        hosts,
        rudp_config=RudpConfig(monitor=MonitorConfig(ping_interval=0.05, timeout=0.2)),
    )

    rng = np.random.default_rng(0)
    A = rng.standard_normal((N, N))
    x0 = rng.standard_normal(N)
    iterations = 8
    # reference result computed serially
    ref = x0.copy()
    for _ in range(iterations):
        ref = A @ ref
        ref /= np.linalg.norm(ref)

    def program(comm):
        A_local = A[comm.rank * rows : (comm.rank + 1) * rows]  # my row block
        x = x0.copy()
        for it in range(iterations):
            y_local = A_local @ x  # local matvec
            pieces = yield from comm.allgather(y_local.tolist(), size_bytes=rows * 8)
            x = np.concatenate([np.asarray(p) for p in pieces])
            # consensus on the norm: every rank contributes its block's
            # squared sum; all normalize by the same global value
            local_sq = float(np.sum(x[comm.rank * rows : (comm.rank + 1) * rows] ** 2))
            norm_sq = yield from comm.allreduce(local_sq, op=lambda a, b: a + b)
            x = x / np.sqrt(norm_sq)
            yield comm.sim.timeout(0.05)
        return x

    FaultInjector(net).fail_at(0.2, s0)  # kill a plane mid-loop
    print(f"power iteration: {P} ranks, {N}x{N} matrix, {iterations} iterations")
    print("switch plane S0 killed at t=0.2s (bundled NICs mask it)\n")
    procs = world.launch(program)
    sim.run(until=60.0)
    results = [p.value for p in procs]
    for r, x in enumerate(results):
        err = np.linalg.norm(np.abs(x) - np.abs(ref))
        print(f"  rank {r}: |x - x_serial| = {err:.2e}")
    agree = max(
        np.linalg.norm(results[0] - other) for other in results[1:]
    )
    print(f"\nmax divergence across ranks: {agree:.2e} (identical results)")
    print("paper: 'the MPI program will proceed as if nothing had happened.'")


if __name__ == "__main__":
    main()
