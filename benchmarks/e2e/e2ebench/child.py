"""One repeat of one workload, run in a fresh interpreter.

In-process repeats drift (3.25 -> 4.13 s over six back-to-back churn runs
on the reference box), so every repeat is its own ``python`` process:
set-up, ``gc.collect(); gc.freeze()``, the timed region, then the output
checks and the program's own counters.  The result is one JSON object on
the last line of stdout.  With ``traced`` the whole repeat runs under the
:class:`~e2ebench.collector.LayerCollector`.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import os
import resource
import time
from typing import Optional

from .collector import INHERIT, LayerCollector
from .spec import LAYERS, layer_of_module
from .stats import histogram_percentile, latency_summary, tail_percentile
from .workloads import make_workload

__all__ = ["run_once", "registry_counts", "WATCHED"]

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep

#: Functions whose calls the collector counts: count name -> (module, dotted
#: attribute).  A function a later refactor removes is simply never called.
WATCHED = {
    "sim.shard.windows": ("repro.sim.shard", "ShardedSimulator._advance_window"),
    "sim.shard.handoffs": ("repro.sim.shard", "deliver_handoff"),
    "net.routing.path_calls": ("repro.net.routing", "Router.path"),
    "net.routing.bfs_runs": ("repro.net.routing", "Router._bfs"),
    "net.network.slow_sends": ("repro.net.network", "Network._transmit_slow"),
}


def _watched_code(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return getattr(obj, "__code__", None)


def _make_classifier():
    import repro

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    index = {name: i for i, name in enumerate(LAYERS)}
    other = index["other"]

    def classify(code) -> int:
        filename = code.co_filename
        if filename.startswith(repro_dir):
            rel = filename[len(repro_dir):].replace(os.sep, "/")
            return index[layer_of_module(rel)]
        if filename.startswith(BENCH_DIR):
            return other
        return INHERIT  # numpy wrappers, stdlib: charged to the caller's layer

    return classify


# ---------------------------------------------------------------------------
# the program's own counters, as deltas over the timed region
# ---------------------------------------------------------------------------


def _total(report, family: str) -> float:
    fam = report.metrics.get(family)
    return sum(s["value"] for s in fam["series"]) if fam else 0.0


def _buckets(report, family: str) -> dict:
    out: dict = {}
    fam = report.metrics.get(family)
    for series in fam["series"] if fam else ():
        for key, count in series["buckets"].items():
            bound = math.inf if key == "+inf" else float(key)
            out[bound] = out.get(bound, 0) + count
    return out


def registry_counts(before, after) -> dict:
    """The boundary counts that come from the report's own registry."""

    def delta(family: str) -> int:
        return int(_total(after, family) - _total(before, family))

    def events(topic: str) -> int:
        return int(after.events.get(topic, 0) - before.events.get(topic, 0))

    b, a = _buckets(before, "net.link.queue_wait"), _buckets(after, "net.link.queue_wait")
    waits = {bound: a[bound] - b.get(bound, 0) for bound in a}
    n_waits = sum(waits.values())
    tail = tail_percentile(n_waits)
    delivered = delta("rudp.transport.messages_delivered")
    retx = delta("rudp.transport.retransmissions")
    return {
        "sim.core.events": delta("sim.kernel.events"),
        "sim.core.processes": delta("sim.kernel.processes"),
        "net.network.packets_sent": delta("net.network.packets_sent"),
        "net.network.packets_delivered": delta("net.network.packets_delivered"),
        "net.network.packets_dropped": delta("net.network.packets_dropped"),
        # bucket upper bounds: the registry keeps a histogram, not samples
        "net.wire.queue_wait_p50_ms": histogram_percentile(waits, 50.0) * 1e3,
        "net.wire.queue_wait_tail_ms": (
            histogram_percentile(waits, tail) * 1e3 if tail is not None else 0.0
        ),
        "channel.monitor_transitions": delta("channel.monitor.transitions"),
        "rudp.messages_delivered": delivered,
        "rudp.retransmissions": retx,
        "rudp.retx_ratio": retx / delivered if delivered else 0.0,
        "membership.token_hops": events("membership.node.token"),
        "membership.exclusions": delta("membership.protocol.exclusions"),
        "membership.regenerations": delta("membership.protocol.regenerations"),
        "membership.msgs_911": delta("membership.protocol.msgs_911"),
        "storage.puts": delta("storage.node.puts"),
        "storage.gets": delta("storage.node.gets"),
        "codes.xor_ops": delta("codes.xor.ops"),
        "codes.bytes": delta("codes.bytes"),
        "fs.ops": delta("fs.rainfs.ops"),
        "apps.snow_served": delta("apps.snow.served"),
        "apps.vip_moves": delta("apps.rainwall.vip_moves"),
    }


# ---------------------------------------------------------------------------
# one repeat
# ---------------------------------------------------------------------------


def run_once(
    name: str,
    seed: int,
    spawned_at: float,
    traced: bool = False,
    trace_path: Optional[str] = None,
) -> dict:
    """Set up, time and check one workload; returns the result record.

    ``spawned_at`` is the parent's ``perf_counter`` reading just before it
    started this interpreter (the clock is system-wide), so ``setup_s``
    includes interpreter start-up and imports.
    """
    collector = None
    watched_names: list[str] = []
    if traced:
        codes = {n: _watched_code(*where) for n, where in WATCHED.items()}
        watched_names = [n for n, code in codes.items() if code is not None]
        collector = LayerCollector(
            LAYERS, _make_classifier(), watched=[codes[n] for n in watched_names]
        )
        collector.start()
    workload = make_workload(name, seed)
    workload.setup()
    before = workload.report()
    gc.collect()
    gc.freeze()
    setup_layers = collector.take(record_spans=True) if collector else None
    t_ready = time.perf_counter()
    phases = workload.run()
    run_s = time.perf_counter() - t_ready
    run_layers = collector.stop() if collector else None
    after = workload.report()
    outcome = workload.outcome()

    counts = registry_counts(before, after)
    layers = None
    if collector is not None:
        watched = {n: 0 for n in WATCHED}
        watched.update(zip(watched_names, run_layers["watched"]))
        slow = watched.pop("net.network.slow_sends")
        sent = counts["net.network.packets_sent"]
        # sends refused before they count as sent (source down, no route)
        # also went through the per-hop route, hence the max
        watched["net.network.slowpath_share"] = slow / max(slow, sent) if slow else 0.0
        if trace_path is not None:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            collector.write_chrome_trace(trace_path)
        layers = {
            "self_s": run_layers["self_s"],
            "calls": run_layers["calls"],
            "setup_self_s": setup_layers["self_s"],
            "counts": watched,  # the boundary counts only the collector can see
            "spans_kept": len(collector.spans),
            "spans_dropped": collector.spans_dropped,
            "trace_file": trace_path,
        }

    latency = None
    if outcome.latencies_s is not None and len(outcome.latencies_s):
        latency = latency_summary(outcome.latencies_s)
    return {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "setup_s": t_ready - spawned_at,
        "run_s": run_s,
        "phases": phases,
        "events": counts["sim.core.events"],
        "ops": outcome.ops,
        "op": workload.op,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": hashlib.sha256(after.to_json().encode()).hexdigest(),
        "latency": latency,
        "sim_failover_s": outcome.sim_failover_s,
        "counts": counts,
        "layers": layers,
    }
