"""Unified observability: metrics registry, trace propagation, exposition.

Six layers of the stack (batch engine, planner, session, sharded
socket runtime, TCP service, recovery) each grew their own ad-hoc
telemetry dict.  This package replaces them with one process-local
:class:`~repro.obs.registry.Registry` of typed instruments — counters,
gauges and fixed-bucket latency histograms backed by per-instrument
numpy arrays (no lock on the increment path) — plus a trace context
(:mod:`repro.obs.trace`) stamped at ingest and carried through the
columnar wire format into shard workers and back through merge, so
every layer shares one clock and one namespace.

Exposition is pull-based: :meth:`Registry.snapshot` returns a JSON-able
view served by the ``METRICS`` wire verb, :func:`render_prometheus`
renders the text format, and ``python -m repro.obs`` polls a running
server and prints a live table.

The package is a dependency leaf (numpy only), so any layer — including
:mod:`repro.recovery` — may import it without cycles.
"""

from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    OperatorView,
    Registry,
    get_registry,
)
from .health import HealthEngine, HealthRule, default_rules, parse_rule
from .history import HistoryRing, flatten_snapshot
from .render import render_prometheus, render_table
from .spans import (
    DEFAULT_TRACE_SAMPLE,
    SpanBuffer,
    activate_parent,
    chunk_span_id,
    current_parent,
    exec_span_id,
    export_chrome_trace,
    get_trace_sample,
    local_spans,
    record_span,
    root_span_id,
    sampled,
    sampled_trace,
    set_trace_sample,
)
from .trace import TraceContext, activate, active, new_trace, trace_clock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "OperatorView",
    "Registry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "render_prometheus",
    "render_table",
    "TraceContext",
    "new_trace",
    "activate",
    "active",
    "trace_clock",
    # Spans (flight recorder layer 1)
    "SpanBuffer",
    "DEFAULT_TRACE_SAMPLE",
    "set_trace_sample",
    "get_trace_sample",
    "sampled",
    "sampled_trace",
    "record_span",
    "local_spans",
    "activate_parent",
    "current_parent",
    "root_span_id",
    "chunk_span_id",
    "exec_span_id",
    "export_chrome_trace",
    # History (layer 2)
    "HistoryRing",
    "flatten_snapshot",
    # Health (layer 3)
    "HealthRule",
    "HealthEngine",
    "parse_rule",
    "default_rules",
]
