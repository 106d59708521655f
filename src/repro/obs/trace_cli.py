"""``python -m repro trace`` — run a table scenario under the span tracer
and reconstruct its protocol timelines.

Any entry of :data:`repro.scenarios.SCENARIOS` runs on one kernel with a
tracer installed and a :class:`~repro.obs.TimelineRecorder` on its bus.
``membership`` (converge, crash, 911 rejoin) shows the Fig. 6 channel
histories and the Fig. 9 token timeline; ``rainfs`` shows a causal tree
of storage RPCs, RUDP segments and packets.

Output formats: ``text`` (human timelines + trace summary), ``json``
(canonical sorted JSON of timelines + span snapshot), ``chrome``
(Chrome trace-event JSON; load in Perfetto via ui.perfetto.dev).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ..scenarios import SCENARIOS

__all__ = ["add_trace_parser", "cmd_trace"]


def _run(name: str, seed: int):
    """Run table entry ``name`` traced on one kernel; returns
    ``(cluster, TimelineRecorder)``."""
    from .timeline import TimelineRecorder

    scenario = SCENARIOS[name]
    cluster = scenario.build(seed, shards=1)
    cluster.install_tracer()
    rec = TimelineRecorder(cluster.sharded.kernels[0].obs)
    cluster.run(scenario.horizon)
    rec.close()
    return cluster, rec


def _render_text(spans: dict, rec) -> str:
    from .timeline import (
        channel_timelines,
        render_channel_timelines,
        render_token_timeline,
        token_timeline,
    )

    parts = [
        render_channel_timelines(channel_timelines(rec.channel_events)),
        "",
        render_token_timeline(token_timeline(rec.membership_events)),
        "",
        "== trace summary ==",
        f"spans: {spans['n_spans']}  open: {len(spans['open'])}  "
        f"traces: {len(spans['traces'])}  dropped: {spans['n_dropped']}",
    ]
    by_name: dict[str, int] = {}
    for span in spans["spans"]:
        by_name[span["name"]] = by_name.get(span["name"], 0) + 1
    for name in sorted(by_name):
        parts.append(f"  {name:<24} {by_name[name]:>6}")
    return "\n".join(parts)


def _render_json(spans: dict, rec) -> str:
    from .timeline import timelines_to_dict

    payload = {
        "timelines": timelines_to_dict(rec.channel_events, rec.membership_events),
        "trace": spans,
    }
    return json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"


def add_trace_parser(sub) -> None:
    p = sub.add_parser(
        "trace",
        help="run a scenario under the span tracer and print its timelines",
    )
    p.add_argument(
        "scenario",
        nargs="?",
        default="membership",
        choices=sorted(SCENARIOS),
        help="scenario to trace (default: the membership ring)",
    )
    p.add_argument("--seed", type=int, default=7, help="simulation seed")
    p.add_argument(
        "--format",
        choices=("text", "json", "chrome"),
        default="text",
        help="text timelines, canonical JSON, or Chrome trace-event JSON",
    )
    p.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the output to a file instead of stdout",
    )


def cmd_trace(args) -> int:
    cluster, rec = _run(args.scenario, args.seed)
    if args.format == "text":
        out = _render_text(cluster.span_snapshot(), rec)
        if not out.endswith("\n"):
            out += "\n"
    elif args.format == "json":
        out = _render_json(cluster.span_snapshot(), rec)
    else:
        from .tracing import validate_chrome_trace

        doc = cluster.chrome_trace()
        problems = validate_chrome_trace(doc)
        if problems:  # pragma: no cover - structural self-check
            for p in problems:
                print(f"invalid chrome trace: {p}", file=sys.stderr)
            return 1
        out = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(out)
        print(f"{args.format} trace written to {args.out}")
    else:
        sys.stdout.write(out)
    return 0
