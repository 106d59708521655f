"""``BENCHMARK.json`` and ``spec.py`` must say the same thing."""

import json
import os
import re

from e2ebench import spec
from e2ebench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_contract_shape():
    doc = load()
    assert sorted(doc) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in doc[key]]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(n) for n in names)
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128


def test_workloads_match_the_code():
    doc = load()
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOAD_NAMES) == list(WORKLOADS)
    for entry in doc["workloads"]:
        assert sorted(entry) == ["name", "why"]
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_metrics_match_the_spec():
    doc = load()
    assert [e["name"] for e in doc["end_to_end"]] == list(spec.DRIVER_E2E)
    for entry in doc["end_to_end"]:
        metric = spec.E2E_BY_NAME[entry["name"]]
        assert sorted(entry) == ["better", "bound", "name", "unit"]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound)
        assert metric.workloads is None and not metric.exact
        assert 0 < entry["bound"] <= 0.25
    bounds = {e["name"]: e["bound"] for e in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match_the_spec():
    doc = load()
    listed = [(e["name"], e["unit"], e["better"]) for e in doc["per_layer"]]
    assert listed == spec.per_layer_metrics()
    for entry in doc["per_layer"]:
        assert sorted(entry) == ["better", "name", "unit"]


def test_eleven_end_to_end_metrics_and_every_layer_named():
    assert len(spec.E2E_METRICS) == 11
    assert set(spec.DRIVER_E2E) | set(spec.SCOPED_IN_TRACE) == set(spec.E2E_BY_NAME)
    names = [n for n, _u, _b in spec.per_layer_metrics()]
    for layer in spec.LAYERS:
        assert f"{layer}.self_s" in names and f"{layer}.calls" in names
    assert len(spec.COUNT_METRICS) == 27


def test_layer_map():
    cases = {
        "sim/core.py": "sim.core",
        "sim/queues.py": "sim.core",
        "sim/shard.py": "sim.shard",
        "sim/shard_mp.py": "sim.shard",
        "sim/trace.py": "obs",
        "net/network.py": "net.network",
        "net/routing.py": "net.routing",
        "net/link.py": "net.wire",
        "net/packet.py": "net.wire",
        "net/batch.py": "net.batch",
        "net/shard.py": "net.shard",
        "channel/monitor.py": "channel",
        "rudp/transport.py": "rudp",
        "membership/protocol.py": "membership",
        "election/protocol.py": "election",
        "storage/store.py": "storage",
        "codes/bcode.py": "codes",
        "fs/rainfs.py": "fs",
        "apps/snow.py": "apps",
        "obs/metrics.py": "obs",
        "topology/partition.py": "build",
        "cluster.py": "build",
        "scenarios.py": "build",
        "mpi/api.py": "other",
        "__init__.py": "other",
    }
    for path, layer in cases.items():
        assert spec.layer_of_module(path) == layer, path
    assert set(cases.values()) == set(spec.LAYERS)


def test_every_mapped_module_exists():
    """A renamed file must not silently fall into ``other``."""
    repro = os.path.join(ROOT, "src", "repro")
    for prefix in spec._LAYER_PREFIXES:
        assert os.path.exists(os.path.join(repro, prefix)), prefix
