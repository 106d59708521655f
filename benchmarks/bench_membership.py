"""E5 — group membership / Fig. 9 experiments (paper Sec. 3).

Fig. 9's three panels as traces: (a) steady token circulation around
ABCD; (b) link A-B fails under *aggressive* detection — B is excluded
(ring ACD) and re-added by the 911 mechanism (ring becomes A-C-B-D
shaped, with a sponsor other than A preceding B); (c) the same failure
under *conservative* detection — the ring is reordered, B is never
excluded.

Plus the detection-policy ablation the two variants exist for: detection
latency (aggressive is faster) vs wrongful exclusions (conservative
avoids them).
"""

from __future__ import annotations

from conftest import once

from repro.membership import MembershipConfig, build_membership
from repro.net import FaultInjector, Network
from repro.sim import Simulator


def mesh_cluster(n=4, detection="aggressive", seed=1):
    """Direct-cabled mesh so a single A-B link can fail (Fig. 9's setup)."""
    sim = Simulator(seed=seed)
    net = Network(sim)
    hosts = [net.add_host(chr(ord("A") + i), nics=n - 1) for i in range(n)]
    nic_next = [0] * n
    pair_links = {}
    for i in range(n):
        for j in range(i + 1, n):
            li, lj = nic_next[i], nic_next[j]
            nic_next[i] += 1
            nic_next[j] += 1
            pair_links[(hosts[i].name, hosts[j].name)] = net.link(
                hosts[i].nic(li), hosts[j].nic(lj)
            )
    nodes = build_membership(hosts, MembershipConfig(detection=detection))
    return sim, net, hosts, nodes, pair_links


def ring_str(view):
    return "".join(view)


def test_fig9a_steady_circulation(benchmark, record):
    def run():
        sim, net, hosts, nodes, links = mesh_cluster()
        sim.run(until=10.0)
        return sim, [n.membership for n in nodes], [n.tokens_seen for n in nodes]

    sim, views, seen = once(benchmark, run)
    assert all(set(v) == {"A", "B", "C", "D"} for v in views)
    assert min(seen) > 10  # steady rotation
    text = ["Fig. 9a — token circulation, no failures (10 s)", ""]
    text.append(f"ring (all nodes agree): {ring_str(views[0])}")
    text.append(f"tokens received per node: {seen}")
    record(
        "E5_fig9a_steady",
        "\n".join(text),
        sim=sim,
        min_tokens_seen=min(seen),
        max_tokens_seen=max(seen),
    )


def test_fig9b_aggressive_exclude_and_911_rejoin(benchmark, record):
    def run():
        sim, net, hosts, nodes, links = mesh_cluster(detection="aggressive")
        sim.run(until=3.0)
        FaultInjector(net).fail(links[("A", "B")])
        sim.run(until=30.0)
        events = []
        for n in nodes:
            events.extend(
                (e.time, n.name, e.kind, e.subject)
                for e in n.events
                if e.kind in ("excluded", "join_added")
            )
        return sorted(events), [list(n.membership) for n in nodes]

    events, views = once(benchmark, run)
    excluded_b = [e for e in events if e[2] == "excluded" and e[3] == "B"]
    join_b = [e for e in events if e[2] == "join_added" and e[3] == "B"]
    assert excluded_b and join_b
    assert excluded_b[0][0] < join_b[0][0]
    final = views[2]  # C's view
    assert set(final) == {"A", "B", "C", "D"}
    assert final[(final.index("A") + 1) % 4] != "B"  # A no longer feeds B
    text = ["Fig. 9b — link A-B fails, aggressive detection (events)", ""]
    for t, node, kind, subj in events:
        text.append(f"  t={t:7.2f}s  {node}: {kind} {subj}")
    text.append("")
    text.append(f"final ring: {ring_str(final)} (B re-added after a sponsor != A)")
    text.append("paper: ring ABCD -> ACD until B rejoins via the 911 mechanism")
    record(
        "E5_fig9b_aggressive",
        "\n".join(text),
        exclusion_time=excluded_b[0][0],
        rejoin_time=join_b[0][0],
        final_ring=ring_str(final),
    )


def test_fig9c_conservative_reorder_no_exclusion(benchmark, record):
    def run():
        sim, net, hosts, nodes, links = mesh_cluster(detection="conservative")
        sim.run(until=3.0)
        FaultInjector(net).fail(links[("A", "B")])
        sim.run(until=30.0)
        wrongly_excluded = [
            e
            for n in nodes
            for e in n.events
            if e.kind == "excluded" and e.subject == "B" and e.time > 3.0
        ]
        return wrongly_excluded, [list(n.membership) for n in nodes]

    wrong, views = once(benchmark, run)
    assert not wrong, "conservative detection excluded a reachable node"
    final = views[2]
    assert set(final) == {"A", "B", "C", "D"}
    assert final[(final.index("A") + 1) % 4] != "B"  # ring reordered (ACBD shape)
    text = ["Fig. 9c — link A-B fails, conservative detection", ""]
    text.append(f"final ring: {ring_str(final)}")
    text.append("B was never excluded; the ring reordered so another node")
    text.append("delivers to B (paper: ABCD -> ACBD).")
    record(
        "E5_fig9c_conservative",
        "\n".join(text),
        wrongful_exclusions=len(wrong),
        final_ring=ring_str(final),
    )


def test_detection_ablation(benchmark, record):
    """Aggressive detects crashes faster; conservative avoids wrongful
    exclusions on partial (link) failures."""

    def run():
        out = {}
        for mode in ("aggressive", "conservative"):
            # (1) true crash: detection latency
            sim, net, hosts, nodes, links = mesh_cluster(detection=mode, seed=3)
            sim.run(until=3.0)
            t0 = sim.now
            FaultInjector(net).fail(hosts[1])  # B crashes
            sim.run(until=40.0)
            detect_times = [
                e.time - t0
                for n in nodes
                for e in n.events
                if e.kind == "excluded" and e.subject == "B"
            ]
            latency = min(detect_times) if detect_times else None
            # (2) partial failure: wrongful exclusions
            sim2, net2, hosts2, nodes2, links2 = mesh_cluster(detection=mode, seed=4)
            sim2.run(until=3.0)
            FaultInjector(net2).fail(links2[("A", "B")])
            sim2.run(until=40.0)
            wrongful = sum(
                1
                for n in nodes2
                for e in n.events
                if e.kind == "excluded" and e.subject == "B"
            )
            out[mode] = (latency, wrongful)
        return out

    out = once(benchmark, run)
    agg_latency, agg_wrong = out["aggressive"]
    con_latency, con_wrong = out["conservative"]
    assert agg_latency is not None and con_latency is not None
    assert agg_latency <= con_latency  # aggressive detects at least as fast
    assert agg_wrong >= 1  # aggressive wrongly excludes on link failure
    assert con_wrong == 0  # conservative does not
    text = ["Ablation — aggressive vs conservative failure detection", ""]
    text.append(f"{'policy':>13} {'crash detection (s)':>20} {'wrongful exclusions':>20}")
    for mode, (lat, wrong) in out.items():
        text.append(f"{mode:>13} {lat:>20.2f} {wrong:>20}")
    text.append("")
    text.append("paper Sec. 3.2: aggressive = fast but may exclude partially")
    text.append("disconnected nodes; conservative = slower, never wrongful.")
    record(
        "E5_detection_ablation",
        "\n".join(text),
        aggressive_latency=agg_latency,
        aggressive_wrongful=agg_wrong,
        conservative_latency=con_latency,
        conservative_wrongful=con_wrong,
    )


def test_token_regeneration_latency(benchmark, record):
    """911 mechanism: time to regenerate a lost token."""

    def run():
        sim, net, hosts, nodes, links = mesh_cluster(seed=5)
        sim.run(until=3.0)
        holder = max(nodes, key=lambda n: n.last_token_time)
        t0 = sim.now
        FaultInjector(net).fail(holder.host)
        sim.run(until=40.0)
        regen = [
            (e.time - t0, n.name)
            for n in nodes
            for e in n.events
            if e.kind == "regen" and e.time > t0
        ]
        survivors = [n for n in nodes if n.host.up]
        return regen, [set(n.membership) for n in survivors]

    regen, views = once(benchmark, run)
    assert regen, "token never regenerated"
    assert all(v == views[0] and len(v) == 3 for v in views)
    text = ["911 token regeneration after the holder crashed", ""]
    for dt, name in regen:
        text.append(f"  regenerated by {name} after {dt:.2f}s")
    text.append(f"survivor membership: {sorted(views[0])}")
    record(
        "E5_token_regeneration",
        "\n".join(text),
        regen_latency=regen[0][0],
        regen_by=regen[0][1],
        survivors=len(views[0]),
    )
