"""Stdlib HTTP control server: JSON API + single-file dashboard.

``python -m repro serve <scenario>`` builds a table scenario, wraps
it in a :class:`~repro.control.driver.ScenarioDriver`, and serves:

======================  ======================================================
``GET  /``              the zero-dependency HTML dashboard (inline JS/SVG)
``GET  /api/report``    live :class:`~repro.obs.ClusterReport` as JSON
``GET  /api/topology``  nodes, switches, links with Up/Down state, token
                        position, per-node byte counters, driver status
``GET  /api/events``    bounded event tail; ``?since=<seq>`` resumes a cursor
``GET  /api/trace``     Chrome/Perfetto trace-event JSON (needs ``--trace``)
``POST /api/fault``     ``{"action": "fail"|"repair", "kind": "node"|
                        "switch"|"link", "target": "node2"|"sw0"|"L3"}``
``POST /api/control``   ``{"op": "pause"|"run"|"step_for"|"step_events"|
                        "run_to"|"finish"|"speed"|"shutdown", ...}``
======================  ======================================================

Threading model: :class:`http.server.ThreadingHTTPServer` answers each
request on its own thread, but **every** simulator touch — snapshots
included — is marshalled through one command queue and executed by the
single driver loop thread (:meth:`ControlServer.serve_forever`).  The
simulation therefore only ever runs single-threaded, ops land at
barrier-consistent instants, and the driver needs no locks.

Free-running is speed-limited: each loop tick advances the simulation by
``speed × tick`` *simulated* seconds and paces itself with
``time.perf_counter``/``time.sleep`` (never the wall-clock sources
rainlint RL001/RL009 forbid near kernel code — real time here only
throttles, it never feeds the schedule).
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..scenarios import SCENARIOS, layout_count
from .driver import ScenarioDriver

__all__ = ["ControlServer", "add_serve_parser", "cmd_serve"]

#: real seconds per free-run slice (also the command-latency bound while
#: free-running; a paused server answers as fast as the queue turns)
_TICK = 0.05


class ControlServer:
    """One driver + one HTTP front end + one command queue."""

    def __init__(
        self,
        driver: ScenarioDriver,
        host: str = "127.0.0.1",
        port: int = 0,
        speed: float = 1.0,
    ):
        self.driver = driver
        self.state = "paused"  # "paused" | "running"
        self.speed = float(speed)
        self._commands: queue.Queue = queue.Queue()
        self._stop = False
        self.httpd = ThreadingHTTPServer((host, port), _ControlRequestHandler)
        self.httpd.control = self  # handlers reach us via self.server.control
        self.host = self.httpd.server_address[0]
        self.port = self.httpd.server_address[1]

    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- command funnel --------------------------------------------------

    def submit(self, fn, timeout: float = 30.0):
        """Run ``fn(driver)`` on the driver thread; ``(ok, payload)``."""
        box: queue.Queue = queue.Queue(maxsize=1)
        self._commands.put((fn, box))
        try:
            return box.get(timeout=timeout)
        except queue.Empty:
            return False, {"error": "control loop did not respond"}

    def _drain_one(self, timeout: float) -> bool:
        """Execute at most one queued command; True when one ran."""
        try:
            fn, box = self._commands.get(timeout=timeout)
        except queue.Empty:
            return False
        try:
            box.put((True, fn(self.driver)))
        except (KeyError, ValueError, IndexError) as exc:
            msg = exc.args[0] if exc.args else str(exc)
            box.put((False, {"error": str(msg)}))
        return True

    # -- driver-thread ops (always called via submit) --------------------

    def status(self) -> dict:
        d = self.driver
        return {
            "scenario": d.name,
            "state": self.state,
            "speed": self.speed,
            "now": d.now,
            "horizon": d.horizon,
            "done": d.done,
            "events_total": d.total_events(),
        }

    def apply_control(self, payload: dict) -> dict:
        op = payload.get("op")
        if op == "pause":
            self.state = "paused"
        elif op == "run":
            if "speed" in payload:
                self.speed = float(payload["speed"])
            if not self.driver.done:
                self.state = "running"
        elif op == "speed":
            self.speed = float(payload["value"])
        elif op == "step_for":
            self.driver.step_for(float(payload.get("dt", 0.1)))
        elif op == "step_events":
            self.driver.step_events(int(payload.get("n", 100)))
        elif op == "run_to":
            self.driver.run_to(float(payload["t"]))
        elif op == "finish":
            self.driver.run_to_completion()
            self.state = "paused"
        elif op == "shutdown":
            self._stop = True
            self.state = "paused"
        else:
            raise ValueError(
                f"unknown control op {op!r} (pause, run, speed, step_for, "
                f"step_events, run_to, finish, shutdown)"
            )
        return self.status()

    # -- the driver loop -------------------------------------------------

    def serve_forever(self) -> None:
        """Serve until a ``shutdown`` op (or :meth:`stop`) arrives.

        The HTTP listener runs on a daemon thread; this thread is the
        only one that ever touches the simulator.
        """
        listener = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        listener.start()
        try:
            while not self._stop:
                if self.state == "running" and not self.driver.done:
                    began = time.perf_counter()
                    self.driver.step_for(self.speed * _TICK)
                    if self.driver.done:
                        self.state = "paused"
                    # spend the rest of the tick answering requests
                    deadline = began + _TICK
                    while not self._stop:
                        left = deadline - time.perf_counter()
                        if left <= 0 or not self._drain_one(left):
                            break
                else:
                    self._drain_one(0.25)
        finally:
            self.httpd.shutdown()
            self.httpd.server_close()
            self.driver.close()

    def stop(self) -> None:
        """Ask the driver loop to exit (thread-safe, returns at once)."""
        self._stop = True


class _ControlRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-control/1"
    protocol_version = "HTTP/1.1"

    # Quiet by default: per-request stderr lines would swamp the console
    # the serve banner prints to.
    def log_message(self, fmt, *args) -> None:  # noqa: A003 - stdlib name
        pass

    def _send(self, code: int, body, ctype: str = "application/json") -> None:
        data = body.encode("utf-8") if isinstance(body, str) else body
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, payload: dict, code: int = 200) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
        self._send(code, body)

    def _finish(self, ok: bool, payload) -> None:
        self._send_json(payload, 200 if ok else 400)

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        url = urlparse(self.path)
        ctl = self.server.control
        if url.path in ("/", "/index.html"):
            from .dashboard import DASHBOARD_HTML

            self._send(200, DASHBOARD_HTML, "text/html; charset=utf-8")
            return
        if url.path == "/api/report":
            ok, payload = ctl.submit(lambda d: d.report().to_dict())
        elif url.path == "/api/topology":
            ok, payload = ctl.submit(
                lambda d: {**d.topology(), "state": ctl.state, "speed": ctl.speed}
            )
        elif url.path == "/api/events":
            try:
                since = int(parse_qs(url.query).get("since", ["-1"])[0])
            except ValueError:
                self._send_json({"error": "since must be an integer"}, 400)
                return
            ok, payload = ctl.submit(lambda d: d.events_since(since))
        elif url.path == "/api/trace":
            ok, payload = ctl.submit(_trace_op)
        else:
            self._send_json({"error": f"no such endpoint: {url.path}"}, 404)
            return
        self._finish(ok, payload)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        url = urlparse(self.path)
        ctl = self.server.control
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # the body's extent is unknown, so the connection cannot be reused
            self.close_connection = True
            self._send_json(
                {"error": "Content-Length must be a non-negative integer"}, 400
            )
            return
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._send_json({"error": "body must be JSON"}, 400)
            return
        if not isinstance(payload, dict):
            self._send_json({"error": "body must be a JSON object"}, 400)
            return
        if url.path == "/api/fault":
            ok, out = ctl.submit(
                lambda d: d.inject_fault(
                    str(payload.get("action", "fail")),
                    str(payload.get("kind", "node")),
                    str(payload.get("target", "")),
                )
            )
        elif url.path == "/api/control":
            ok, out = ctl.submit(lambda d: ctl.apply_control(payload))
        else:
            self._send_json({"error": f"no such endpoint: {url.path}"}, 404)
            return
        self._finish(ok, out)


def _trace_op(driver: ScenarioDriver) -> dict:
    doc = driver.cluster.chrome_trace()
    if doc is None:
        raise ValueError("tracing is off; relaunch serve with --trace")
    return doc


# -- CLI ------------------------------------------------------------------


def add_serve_parser(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="serve a steerable scenario with a live JSON API and dashboard",
    )
    p.add_argument(
        "scenario",
        nargs="?",
        default="membership",
        choices=sorted(SCENARIOS),
        help="scenario to drive (default: the membership ring)",
    )
    p.add_argument("--seed", type=int, default=7, help="simulation seed")
    p.add_argument(
        "--shards",
        type=layout_count,
        default=1,
        help="shard-kernel count (report is identical for any value)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port to listen on (0 picks a free ephemeral port)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--speed",
        type=float,
        default=1.0,
        help="free-run rate in simulated seconds per real second",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="install the span tracer so GET /api/trace exports a "
        "Chrome/Perfetto document",
    )
    p.add_argument(
        "--run",
        action="store_true",
        help="start free-running immediately instead of paused",
    )


def cmd_serve(args) -> int:
    driver = ScenarioDriver(
        SCENARIOS[args.scenario], seed=args.seed, shards=args.shards, trace=args.trace
    )
    try:
        server = ControlServer(driver, host=args.host, port=args.port, speed=args.speed)
    except OSError as exc:
        driver.close()
        print(f"serve: cannot listen on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    if args.run:
        server.state = "running"
    print(
        f"serving {args.scenario} (seed={args.seed}, shards={args.shards}) "
        f"on {server.url()} — Ctrl-C to stop",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0
