"""Names, units, directions and bounds of every metric, and the layer map.

The names are normative: later issues cite them verbatim, so a rename is
a benchmark change of its own.  ``BENCHMARK.json`` at the repository
root repeats the subset its format can carry; ``tests/test_spec.py``
keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Metric",
    "WORKLOAD_NAMES",
    "E2E_METRICS",
    "E2E_BY_NAME",
    "DRIVER_E2E",
    "LAYERS",
    "COUNT_METRICS",
    "SCOPED_IN_TRACE",
    "per_layer_metrics",
    "exact_per_layer_names",
    "layer_of_module",
    "DEFAULT_SEED",
    "DEFAULT_REPEATS",
    "MIN_REPEATS",
]

DEFAULT_SEED = 7
DEFAULT_REPEATS = 7
#: a median of fewer host-time samples than this is not reported
MIN_REPEATS = 5

WORKLOAD_NAMES = ("churn1k", "churn1k_s4", "flood", "rainfs_rw", "webfront")


@dataclass(frozen=True)
class Metric:
    """One reported number: its unit, direction and regression bound."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the baseline by which the metric may worsen ...
    bound: float = 0.0
    #: ... or, when set, the absolute amount (used where the baseline is 0)
    abs_bound: Optional[float] = None
    #: workloads the metric is defined on (None = all five)
    workloads: Optional[tuple[str, ...]] = None
    #: simulated or counted: repeats bit-for-bit for a fixed seed
    exact: bool = False
    meaning: str = ""


_LATENCY_ON = ("flood", "rainfs_rw", "webfront")
# Host-time bounds are 25 %, not the 10 % the issue started from: on the
# reference box back-to-back medians of 7 differ by up to 20 % (README.md,
# "Noise on the reference box"), and a bound inside the noise only reports
# the weather.
_HOST = 0.25

E2E_METRICS: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", _HOST,
           meaning="host s from process start to the timed region"),
    Metric("run_s", "s", "lower", _HOST,
           meaning="host wall s of the timed region"),
    Metric("events_per_s", "1/s", "higher", _HOST,
           meaning="logical sim.kernel.events in the timed region / run_s"),
    Metric("ops_per_s", "1/s", "higher", _HOST,
           meaning="correct application ops / run_s"),
    Metric("write_mib_per_s", "MiB/s", "higher", _HOST, workloads=("rainfs_rw",),
           meaning="MiB written / host s of the write phase"),
    Metric("read_mib_per_s", "MiB/s", "higher", _HOST, workloads=("rainfs_rw",),
           meaning="MiB read / host s of the healthy-read phase"),
    Metric("peak_rss_mib", "MiB", "lower", 0.10,
           meaning="ru_maxrss of the repeat's subprocess"),
    Metric("failed_ops_frac", "ratio", "lower", abs_bound=0.001, exact=True,
           meaning="ops that did not complete correctly / ops attempted"),
    Metric("sim_latency_p50_ms", "ms", "lower", 0.01, workloads=_LATENCY_ON, exact=True,
           meaning="median simulated op latency"),
    Metric("sim_latency_tail_ms", "ms", "lower", 0.01, workloads=_LATENCY_ON, exact=True,
           meaning="highest of p90/p95/p99/p99.9 with >= 10 samples beyond it"),
    Metric("sim_failover_s", "s", "lower", 0.01, workloads=("webfront",), exact=True,
           meaning="simulated s from the crash until every VIP has a live owner"),
)
E2E_BY_NAME = {m.name: m for m in E2E_METRICS}

#: The end-to-end metrics ``BENCHMARK.json`` carries: the driver's format
#: needs every metric to be a non-zero number on every workload and to
#: vary between runs, which rules out the workload-scoped ones, the
#: zero-valued ``failed_ops_frac`` and the exactly-repeating ``sim_*``.
DRIVER_E2E = ("setup_s", "run_s", "events_per_s", "ops_per_s", "peak_rss_mib")

#: Scoped end-to-end metrics the driver sees in the ``--trace 1`` output
#: instead (0 where undefined); host-time ones come from the untraced
#: repeat of that invocation, so tracing does not inflate them.
SCOPED_IN_TRACE = tuple(m.name for m in E2E_METRICS if m.name not in DRIVER_E2E)

# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

#: Layer names in report order.  ``other`` holds the benchmark's own
#: driver frames and every ``repro`` module not listed below.
LAYERS = (
    "sim.core", "sim.shard", "net.network", "net.routing", "net.wire",
    "net.batch", "net.shard", "channel", "rudp", "membership", "election",
    "storage", "codes", "fs", "apps", "obs", "build", "other",
)

# module path below ``src/repro`` (prefix match, longest wins) -> layer
_LAYER_PREFIXES = {
    "sim/": "sim.core",
    "sim/shard.py": "sim.shard",
    "sim/shard_mp.py": "sim.shard",
    "sim/trace.py": "obs",  # the deprecated Tracer/StatCounters shims
    "net/": "net.wire",  # link, nic, node, switch, packet, device, address, faults
    "net/network.py": "net.network",
    "net/routing.py": "net.routing",
    "net/batch.py": "net.batch",
    "net/shard.py": "net.shard",
    "channel/": "channel",
    "rudp/": "rudp",
    "membership/": "membership",
    "election/": "election",
    "storage/": "storage",
    "codes/": "codes",
    "fs/": "fs",
    "apps/": "apps",
    "obs/": "obs",
    "topology/": "build",
    "cluster.py": "build",
    "scenarios.py": "build",
}
_PREFIXES_LONGEST_FIRST = sorted(_LAYER_PREFIXES, key=len, reverse=True)


def layer_of_module(rel_path: str) -> str:
    """Layer of a file given its path below ``src/repro`` (``/``-separated)."""
    for prefix in _PREFIXES_LONGEST_FIRST:
        if rel_path.startswith(prefix):
            return _LAYER_PREFIXES[prefix]
    return "other"


#: Boundary counts: (name, unit, better).  Registry-backed ones are deltas
#: over the timed region; ``child.WATCHED`` names the ones that are calls of
#: a function, counted by the collector.  Work done is better lower for the
#: same scenario; useful outcomes are better higher.
COUNT_METRICS: tuple[tuple[str, str, str], ...] = (
    ("sim.core.events", "count", "lower"),
    ("sim.core.processes", "count", "lower"),
    ("sim.shard.windows", "count", "lower"),
    ("sim.shard.handoffs", "count", "lower"),
    ("net.routing.path_calls", "count", "lower"),
    ("net.routing.bfs_runs", "count", "lower"),
    ("net.network.packets_sent", "count", "lower"),
    ("net.network.packets_delivered", "count", "higher"),
    ("net.network.packets_dropped", "count", "lower"),
    ("net.network.slowpath_share", "ratio", "lower"),
    ("net.wire.queue_wait_p50_ms", "ms", "lower"),
    ("net.wire.queue_wait_tail_ms", "ms", "lower"),
    ("channel.monitor_transitions", "count", "lower"),
    ("rudp.messages_delivered", "count", "higher"),
    ("rudp.retransmissions", "count", "lower"),
    ("rudp.retx_ratio", "ratio", "lower"),
    ("membership.token_hops", "count", "lower"),
    ("membership.exclusions", "count", "lower"),
    ("membership.regenerations", "count", "lower"),
    ("membership.msgs_911", "count", "lower"),
    ("storage.puts", "count", "lower"),
    ("storage.gets", "count", "lower"),
    ("codes.xor_ops", "count", "lower"),
    ("codes.bytes", "count", "lower"),
    ("fs.ops", "count", "lower"),
    ("apps.snow_served", "count", "higher"),
    ("apps.vip_moves", "count", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    out.append(("build.setup_self_s", "s", "lower"))
    out.append(("trace_overhead_x", "x", "lower"))
    out.extend(COUNT_METRICS)
    for name in SCOPED_IN_TRACE:
        m = E2E_BY_NAME[name]
        out.append((m.name, m.unit, m.better))
    return out


def exact_per_layer_names() -> list[str]:
    """The per-layer metrics that are counted or simulated, not host-timed:
    two runs of the same code and seed must report them bit for bit."""
    host_timed = {"trace_overhead_x", "write_mib_per_s", "read_mib_per_s"}
    return [
        name
        for name, _unit, _better in per_layer_metrics()
        if not name.endswith("self_s") and name not in host_timed
    ]
