"""``python -m repro.obs``: poll a server's observability verbs.

Usage::

    python -m repro.obs --address 127.0.0.1:7654            # one snapshot
    python -m repro.obs --address 127.0.0.1:7654 --watch    # live table + sparklines
    python -m repro.obs --address 127.0.0.1:7654 --prometheus
    python -m repro.obs --address 127.0.0.1:7654 --health   # health-rule verdicts
    python -m repro.obs --address 127.0.0.1:7654 --trace-out trace.json

``--watch`` polls every ``--interval`` seconds until interrupted (or
for ``--iterations`` polls, which tests use to bound the loop); each
poll is recorded into a client-side history ring, so the table grows a
per-metric sparkline column as history accumulates.  ``--trace-out``
drains the server's span buffer and writes Chrome trace-event JSON —
open it in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from .history import HistoryRing
from .render import render_prometheus, render_table
from .spans import export_chrome_trace

__all__ = ["main"]

#: Eight-level unicode bars, lowest to highest.
_SPARK_BARS = "▁▂▃▄▅▆▇█"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Poll a repro StreamServer's metrics registry.",
    )
    parser.add_argument(
        "--address",
        required=True,
        help="server address as host:port (the METRICS verb must be served there)",
    )
    parser.add_argument("--token", default=None, help="auth token, if the server requires one")
    parser.add_argument(
        "--query",
        default=None,
        help="also fetch this query's observed stats and stage timings",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="keep polling and reprinting the table (with sparklines) until interrupted",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls in --watch mode (default: 2)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after this many polls (useful in scripts and tests)",
    )
    parser.add_argument(
        "--prometheus",
        action="store_true",
        help="print the Prometheus text format instead of the table",
    )
    parser.add_argument(
        "--health",
        action="store_true",
        help="print the server's health-rule verdicts (HEALTH verb) instead of metrics",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="drain the server's span buffer into FILE as Chrome trace-event "
        "JSON (load it in Perfetto) and exit",
    )
    parser.add_argument(
        "--spark-width",
        type=int,
        default=16,
        help="sparkline width in --watch mode (default: 16)",
    )
    return parser


def _sparkline(values: List[float], width: int) -> str:
    """Render the last ``width`` values as a unicode bar strip."""
    tail = [v for v in values[-width:] if v == v]  # drop NaN
    if not tail:
        return ""
    low, high = min(tail), max(tail)
    if high <= low:
        return _SPARK_BARS[0] * len(tail)
    scale = (len(_SPARK_BARS) - 1) / (high - low)
    return "".join(_SPARK_BARS[int((v - low) * scale)] for v in tail)


def _sparkline_block(history: HistoryRing, width: int) -> str:
    """One ``key  sparkline  latest`` line per recorded series."""
    lines = []
    for key in history.keys():
        if "#" in key:
            continue  # histogram component series stay internal
        _, values = history.series(key)
        if values.size < 2:
            continue
        spark = _sparkline(list(values), width)
        lines.append(f"{key}  {spark}  {values[-1]:g}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def _render_health(reply: Dict) -> str:
    status = reply.get("health", {})
    lines = [
        f"firing: {', '.join(status.get('firing', [])) or '-'}",
        f"pending: {', '.join(status.get('pending', [])) or '-'}",
        f"history ticks: {reply.get('ticks', 0)}",
    ]
    for rule in status.get("rules", ()):
        value = rule.get("value")
        rendered = "-" if value is None else f"{value:g}"
        lines.append(
            f"  [{rule['state']:>7}] {rule['name']}: {rule['rule']} "
            f"(value={rendered}, series={rule.get('series') or '-'})"
        )
    return "\n".join(lines) + "\n"


def _render_stages(stages: Dict[str, float]) -> str:
    if not stages:
        return ""
    body = "  ".join(f"{name}={seconds:.4f}s" for name, seconds in sorted(stages.items()))
    return f"stages: {body}\n"


def main(argv: Optional[List[str]] = None, out=None) -> int:
    args = _build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    render = render_prometheus if args.prometheus else render_table

    from repro.net.client import StreamClient

    polls = 0
    limit = args.iterations if args.iterations is not None else (None if args.watch else 1)
    history = HistoryRing(capacity=max(64, args.spark_width * 4)) if args.watch else None
    try:
        with StreamClient(args.address, token=args.token) as client:
            if args.trace_out:
                reply = client.trace()
                spans = reply.get("spans", [])
                export_chrome_trace(spans, path=args.trace_out)
                out.write(
                    f"wrote {len(spans)} spans (sample 1/{reply.get('sample', '?')}) "
                    f"to {args.trace_out}\n"
                )
                return 0
            while True:
                if polls:
                    out.write("\n")
                if args.health:
                    out.write(_render_health(client.health()))
                else:
                    reply = client.metrics(args.query)
                    snapshot = reply.get("metrics", reply)
                    out.write(render(snapshot))
                    if not args.prometheus:
                        out.write(_render_stages(reply.get("stages") or {}))
                        if args.query and reply.get("observed"):
                            out.write(
                                "observed: "
                                + json.dumps(reply["observed"], default=str)[:500]
                                + "\n"
                            )
                    if history is not None:
                        history.record(snapshot)
                        block = _sparkline_block(history, args.spark_width)
                        if block:
                            out.write("\n" + block)
                out.flush()
                polls += 1
                if limit is not None and polls >= limit:
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
