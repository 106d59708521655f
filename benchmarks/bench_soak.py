"""Whole-stack soak: random fault storm with invariant auditing.

The closing experiment: a cluster running membership, election, storage,
and Rainwall together under a randomized outage schedule, audited
afterwards with the membership invariant checker and a storage
durability sweep.  The RAIN thesis in one run: "tolerates multiple node,
link, and switch failures, with no single point of failure."
"""

from __future__ import annotations

from conftest import once

from repro import ClusterConfig, RainCluster, Simulator
from repro.apps import FlowModel, RainwallCluster
from repro.codes import BCode
from repro.membership import check_invariants


def _poisson_outages(fi, elements, rate, mean_downtime, horizon) -> int:
    """Schedule Poisson outages on each element until ``horizon``:
    exponential inter-arrivals at ``rate`` per second, exponential
    downtimes of mean ``mean_downtime``.  Returns how many."""
    rng = fi.sim.rng.stream("faults")
    scheduled = 0
    for element in elements:
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= horizon:
                break
            downtime = float(rng.exponential(mean_downtime))
            fi.outage(element, t, downtime)
            scheduled += 1
            t += downtime
    return scheduled


def test_fault_storm_soak(benchmark, record):
    def run():
        sim = Simulator(seed=777)
        cl = RainCluster(sim, ClusterConfig(nodes=6))
        flow = FlowModel(sim.rng.stream("flow"), [f"v{i}" for i in range(6)], 200.0)
        rw = RainwallCluster(cl.membership, flow)
        sim.run(until=2.0)
        # durable data before the storm
        store = cl.store_on(0, BCode(6))
        blobs = {f"blob{i}": bytes([i]) * 4096 for i in range(6)}
        for oid, data in blobs.items():
            sim.run_process(store.store(oid, data), until=sim.now + 20)
        # the storm: overlapping outages on switches, links, and nodes —
        # never more than 2 nodes down at once (the bcode(6,4) budget)
        fi = cl.faults
        outages = 0
        t = 5.0
        for k in range(10):
            fi.outage(cl.switches[k % 2], start=t, duration=3.0)
            outages += 1
            t += 4.0
        node_schedule = [(1, 8.0), (4, 16.0), (2, 24.0), (5, 32.0), (3, 40.0)]
        for idx, start in node_schedule:
            fi.outage(cl.host(idx), start=start, duration=5.0)
            outages += 1
        # random link outages on top
        outages += _poisson_outages(
            fi, cl.network.links[:6], rate=0.01, mean_downtime=2.0, horizon=45.0
        )
        sim.run(until=60.0)  # storm ends by ~47s; settle
        # audits
        invariants = check_invariants(cl.membership)
        converged = cl.live_members_converged()

        def read_all():
            out = {}
            for oid in blobs:
                out[oid] = yield from store.retrieve(oid)
            return out

        recovered = sim.run_process(read_all(), until=sim.now + 120)
        vips_owned = len(rw.owners()) == len(rw.vips)
        return sim, outages, invariants, converged, recovered == blobs, vips_owned

    sim, outages, invariants, converged, data_ok, vips_ok = once(benchmark, run)
    assert invariants.ok, str(invariants)
    assert converged
    assert data_ok
    assert vips_ok
    text = ["Whole-stack soak — 60 s, randomized outage storm", ""]
    text.append(f"outages injected (switch/node/link): {outages}")
    text.append(f"membership invariants after settle:  {'OK' if invariants.ok else 'VIOLATED'}")
    text.append(f"membership reconverged:              {converged}")
    text.append(f"all erasure-coded data intact:       {data_ok}")
    text.append(f"all virtual IPs owned:               {vips_ok}")
    text.append("")
    text.append("the paper's abstract, as a test: 'the system tolerates multiple")
    text.append("node, link, and switch failures, with no single point of failure.'")
    record(
        "EX_soak",
        "\n".join(text),
        sim=sim,
        outages=outages,
        invariants_ok=invariants.ok,
        data_intact=data_ok,
        vips_owned=vips_ok,
    )
