"""Control-plane HTTP server: API surface, faults, dashboard, shutdown.

One server fixture per test keeps the simulation small (the 6-node
membership scenario) and every request on an ephemeral loopback port.
"""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.__main__ import main
from repro.control import ScenarioDriver
from repro.control.server import ControlServer
from repro.scenarios import SCENARIOS

MEMBERSHIP = SCENARIOS["membership"]


@pytest.fixture()
def server():
    driver = ScenarioDriver(MEMBERSHIP, seed=7)
    srv = ControlServer(driver, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.submit(lambda d: srv.apply_control({"op": "shutdown"}))
    thread.join(timeout=10)
    assert not thread.is_alive(), "driver loop failed to shut down"


def _get(srv, path):
    try:
        with urllib.request.urlopen(srv.url() + path, timeout=10) as r:
            return r.status, r.read()
    except urllib.error.HTTPError as e:
        return e.code, e.read()


def _get_json(srv, path):
    status, body = _get(srv, path)
    return status, json.loads(body)


def _post(srv, path, payload):
    req = urllib.request.Request(
        srv.url() + path, data=json.dumps(payload).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_dashboard_is_served_at_root(server):
    status, body = _get(server, "/")
    html = body.decode("utf-8")
    assert status == 200
    assert html.startswith("<!DOCTYPE html>")
    assert "RAIN control plane" in html
    assert "/api/topology" in html  # the page drives the JSON API
    assert "<script" in html and "<svg" in html


def test_report_endpoint_returns_live_cluster_report(server):
    from repro.obs import SCHEMA_VERSION

    status, report = _get_json(server, "/api/report")
    assert status == 200
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["scenario"] == "membership"
    assert "sim.kernel.events" in report["metrics"]


def test_control_ops_step_and_report_progress(server):
    status, st = _post(server, "/api/control", {"op": "step_for", "dt": 1.5})
    assert status == 200
    assert st["now"] == 1.5 and st["events_total"] > 0
    status, st = _post(server, "/api/control", {"op": "step_events", "n": 50})
    assert status == 200 and st["events_total"] > 50
    status, st = _post(server, "/api/control", {"op": "run_to", "t": 2.0})
    assert status == 200 and st["now"] == 2.0
    status, st = _post(server, "/api/control", {"op": "finish"})
    assert status == 200 and st["done"] and st["now"] == st["horizon"]


def test_free_run_is_speed_limited_and_pausable(server):
    status, st = _post(server, "/api/control", {"op": "run", "speed": 5.0})
    assert status == 200 and st["state"] == "running"
    import time

    time.sleep(0.35)
    status, st = _post(server, "/api/control", {"op": "pause"})
    assert status == 200 and st["state"] == "paused"
    # ~0.35 real seconds at 5 sim-s/real-s: clearly advanced, clearly
    # not the whole 6 s horizon (that would mean pacing is broken)
    assert 0.0 < st["now"] < st["horizon"]


def test_fault_round_trip_reflects_in_topology_and_report(server):
    _post(server, "/api/control", {"op": "step_for", "dt": 1.0})
    status, out = _post(
        server, "/api/fault", {"action": "fail", "kind": "link", "target": "L0"}
    )
    assert status == 200 and out["up"] is False
    status, topo = _get_json(server, "/api/topology")
    assert status == 200
    (l0,) = [l for l in topo["links"] if l["id"] == "L0"]
    assert l0["up"] is False
    status, out = _post(
        server, "/api/fault", {"action": "repair", "kind": "link", "target": "L0"}
    )
    assert status == 200 and out["up"] is True


def test_events_endpoint_supports_cursor(server):
    _post(server, "/api/control", {"op": "step_for", "dt": 1.0})
    status, tail = _get_json(server, "/api/events?since=-1")
    assert status == 200 and tail["events"]
    cursor = tail["next_seq"] - 1
    status, empty = _get_json(server, f"/api/events?since={cursor}")
    assert status == 200 and empty["events"] == []
    status, err = _get_json(server, "/api/events?since=banana")
    assert status == 400 and "error" in err


def test_error_paths_return_json_errors(server):
    status, err = _get_json(server, "/api/nope")
    assert status == 404 and "error" in err
    status, err = _post(server, "/api/control", {"op": "warp"})
    assert status == 400 and "unknown control op" in err["error"]
    status, err = _post(
        server, "/api/fault", {"action": "fail", "kind": "node", "target": "node99"}
    )
    assert status == 400 and "node99" in err["error"]
    status, err = _get_json(server, "/api/trace")
    assert status == 400 and "--trace" in err["error"]


@pytest.mark.parametrize("length", ["banana", "-1"])
def test_malformed_content_length_is_a_400_not_a_hang(server, length):
    """Outside input: a non-integer header used to raise in the handler
    thread, a negative one to block on ``rfile.read(-1)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
    try:
        conn.putrequest("POST", "/api/control")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 400
        assert "Content-Length" in json.loads(resp.read())["error"]
    finally:
        conn.close()
    # the server is still answering
    status, st = _post(server, "/api/control", {"op": "pause"})
    assert status == 200 and st["state"] == "paused"


def test_serve_on_a_port_in_use_exits_2_with_one_line(capsys):
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen(1)
        port = busy.getsockname()[1]
        assert main(["serve", "membership", "--port", str(port)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(port) in err
    assert "Traceback" not in err


def test_topology_carries_driver_status(server):
    status, topo = _get_json(server, "/api/topology")
    assert status == 200
    assert topo["state"] == "paused"
    assert topo["scenario"] == "membership"
    assert {"nodes", "switches", "links", "token_holders"} <= set(topo)


def test_traced_server_exports_chrome_trace():
    from repro.obs import validate_chrome_trace

    driver = ScenarioDriver(MEMBERSHIP, seed=7, trace=True)
    srv = ControlServer(driver, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        _post(srv, "/api/control", {"op": "step_for", "dt": 1.0})
        status, doc = _get_json(srv, "/api/trace")
        assert status == 200
        assert validate_chrome_trace(doc) == []
        assert doc["traceEvents"]
    finally:
        srv.submit(lambda d: srv.apply_control({"op": "shutdown"}))
        thread.join(timeout=10)
