"""A 10,000-node cluster builds, runs and reports inside a memory budget.

Per-node state must stay bounded (the membership ring is shared, metric
series exist only once observed), so a cluster ten times the flagship's
size is a plain build.  The run happens in a fresh interpreter so the
peak RSS it reports belongs to this scenario alone, not to the test
session around it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import json, resource
from repro.scenarios import build_churn_cluster

cluster = build_churn_cluster(nodes=10_000, switches=256)
cluster.run(0.5)
report = cluster.metrics(scenario="churn10k", seed=7)
print(json.dumps({
    "report_bytes": len(report.to_json().encode()),
    "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "sim_time": report.sim_time,
    "token_holds": report.events.get("membership.node.token", 0),
}))
"""


def test_ten_thousand_node_cluster_builds_runs_and_reports():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["sim_time"] == 0.5
    assert out["token_holds"] > 100  # the token really circulated
    assert out["peak_rss_kib"] < 1024 * 1024  # ru_maxrss is KiB on Linux
    assert out["report_bytes"] < 1_000_000
