"""Sampled span tracing: where one batch's latency went, stage by stage.

PR 9's trace context answers *how long* ingest→delivery took; spans
answer *where the time went*: operator execution, shard encode, ship,
worker execution, reply decode, merge, sink delivery — each recorded as
one timed span and assembled into a per-process :class:`SpanBuffer`
that exports Chrome trace-event JSON (loadable in Perfetto and
``chrome://tracing``).

**Sampling.**  Recording every batch would blow the ≤3% observability
budget, so spans are recorded only for *sampled* traces: a trace is
sampled when ``trace_id % n == 0`` for the process-wide sampling
denominator ``n`` (:func:`set_trace_sample`, default 64; ``0`` disables
tracing, ``1`` records every trace).  The decision is a pure function
of the trace id, so the coordinator and its forked shard workers agree
without shipping any flag — the batch header's trace context already
carries the id, and the wire format is untouched.

**Cross-process causality.**  Span ids are *deterministic* strings
derived from ``(trace_id, shard, chunk_id)``: the coordinator records
the ship span of chunk ``c`` to shard ``s`` under
``t<id>/s<s>/c<c>``, and the worker — in a different process, without
any id exchange — records its execution span with exactly that string
as ``parent``.  Worker-side spans ride back to the coordinator in the
header of the ``results`` reply frame and are ingested into the
coordinator's buffer, so one buffer holds the full ingest→sink tree.

**Hot-path discipline.**  An unsampled batch pays one modulo and a
falsy branch; nothing is allocated and no clock is read.  Recording a
span appends one small dict to a bounded deque (atomic under the GIL —
reader threads and the caller's thread share the buffer without a
lock).  Forked workers clear the buffer they inherited
(``os.register_at_fork``) so parent spans are never shipped twice.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Dict, List, Optional

from .trace import TraceContext

__all__ = [
    "SpanBuffer",
    "set_trace_sample",
    "get_trace_sample",
    "sampled",
    "sampled_trace",
    "record_span",
    "local_spans",
    "activate_parent",
    "current_parent",
    "chunk_span_id",
    "exec_span_id",
    "root_span_id",
    "export_chrome_trace",
]

#: Default sampling denominator: 1 in 64 traces record spans.
DEFAULT_TRACE_SAMPLE = 64

_sample_n = DEFAULT_TRACE_SAMPLE
_parent = threading.local()


def set_trace_sample(n: int) -> int:
    """Set the process-wide sampling denominator; returns the previous one.

    ``0`` disables span recording entirely; ``1`` samples every trace;
    ``n`` samples the traces whose id is divisible by ``n``.  Set this
    *before* forking shard workers (``QuerySession(trace_sample=...)``
    does) so both sides of the process boundary agree.
    """
    global _sample_n
    if n < 0:
        raise ValueError(f"trace_sample must be non-negative, got {n}")
    previous, _sample_n = _sample_n, int(n)
    return previous


def get_trace_sample() -> int:
    """The process-wide sampling denominator (0 = disabled)."""
    return _sample_n


def sampled(trace_id: Optional[int]) -> bool:
    """Whether spans are recorded for this trace id (deterministic)."""
    return trace_id is not None and _sample_n > 0 and trace_id % _sample_n == 0


def sampled_trace(trace: Optional[TraceContext]) -> bool:
    """Whether spans are recorded for this trace context."""
    return (
        trace is not None
        and _sample_n > 0
        and trace.trace_id % _sample_n == 0
    )


# ----------------------------------------------------------------------
# Deterministic span ids (the cross-process hand-off)
# ----------------------------------------------------------------------
def root_span_id(trace_id: int) -> str:
    """Id of a trace's coordinator-side root (push/ingest) span."""
    return f"t{trace_id:x}/push"


def chunk_span_id(trace_id: int, shard: int, chunk_id: int) -> str:
    """Id of the coordinator-side ship span of one chunk."""
    return f"t{trace_id:x}/s{shard}/c{chunk_id}"


def exec_span_id(trace_id: int, shard: int, chunk_id: int) -> str:
    """Id of the worker-side execution span of one chunk.

    Parents to :func:`chunk_span_id` of the same coordinates — both
    sides compute the strings independently, so causality crosses the
    fork/socket boundary without widening the wire format.
    """
    return f"t{trace_id:x}/s{shard}/c{chunk_id}/exec"


class SpanBuffer:
    """A bounded, thread-safe buffer of finished spans.

    Spans are plain dicts (JSON-able: they ride in ``results`` reply
    headers and the TRACE verb) with keys ``name``, ``cat``, ``trace``,
    ``span``, ``parent``, ``pid``, ``t0``, ``t1`` — times on
    :data:`repro.obs.trace_clock`.  Appends are ``deque.append`` on a
    ``maxlen`` deque: atomic under the GIL, oldest spans evicted first,
    so a crashed exporter can never grow the buffer unboundedly.
    """

    def __init__(self, capacity: int = 8192):
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self._spans: deque = deque(maxlen=capacity)

    def add(self, span: Dict) -> None:
        self._spans.append(span)

    def ingest(self, spans) -> None:
        """Append spans recorded elsewhere (a worker's reply header)."""
        if spans:
            self._spans.extend(spans)

    def snapshot(self) -> List[Dict]:
        """A copy of the buffered spans (oldest first)."""
        return list(self._spans)

    def drain(self) -> List[Dict]:
        """Remove and return every buffered span (oldest first)."""
        out: List[Dict] = []
        spans = self._spans
        while spans:
            try:
                out.append(spans.popleft())
            except IndexError:  # pragma: no cover - concurrent drain
                break
        return out

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)


#: The process-local buffer every instrumented code path records into.
_local = SpanBuffer()


def local_spans() -> SpanBuffer:
    """The calling process's span buffer."""
    return _local


def record_span(
    name: str,
    cat: str,
    trace_id: int,
    t_start: float,
    t_end: float,
    span_id: Optional[str] = None,
    parent_id: Optional[str] = None,
) -> Dict:
    """Record one finished span into the process-local buffer."""
    span = {
        "name": name,
        "cat": cat,
        "trace": trace_id,
        "span": span_id,
        "parent": parent_id,
        "pid": os.getpid(),
        "t0": t_start,
        "t1": t_end,
    }
    _local.add(span)
    return span


# ----------------------------------------------------------------------
# Thread-local parent linkage (operator spans nest under their stage)
# ----------------------------------------------------------------------
def activate_parent(span_id: Optional[str]) -> Optional[str]:
    """Make ``span_id`` the thread's current span parent; returns the old one."""
    previous = getattr(_parent, "id", None)
    _parent.id = span_id
    return previous


def current_parent() -> Optional[str]:
    """The thread's current span parent, if any."""
    return getattr(_parent, "id", None)


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def export_chrome_trace(spans: List[Dict], path: Optional[str] = None) -> str:
    """Render spans as Chrome trace-event JSON (Perfetto-loadable).

    Each span becomes one complete ("X") event with microsecond
    timestamps; cross-process parent→child edges additionally emit flow
    ("s"/"f") event pairs so Perfetto draws the hand-off arrows between
    the coordinator's track and each worker's.  Events are sorted by
    timestamp.  When ``path`` is given the JSON is also written there.
    """
    by_id = {span["span"]: span for span in spans if span.get("span")}
    events: List[Dict] = []
    flow_serial = 0
    for span in spans:
        t0 = float(span["t0"])
        t1 = float(span["t1"])
        event = {
            "name": span["name"],
            "cat": span.get("cat", "span"),
            "ph": "X",
            "ts": t0 * 1e6,
            "dur": max(0.0, t1 - t0) * 1e6,
            "pid": span.get("pid", 0),
            "tid": span.get("pid", 0),
            "args": {
                "trace": span.get("trace"),
                "span": span.get("span"),
                "parent": span.get("parent"),
            },
        }
        events.append(event)
        parent = by_id.get(span.get("parent"))
        if parent is not None and parent.get("pid") != span.get("pid"):
            flow_serial += 1
            common = {"name": "handoff", "cat": "flow", "id": flow_serial}
            events.append(
                dict(
                    common,
                    ph="s",
                    ts=float(parent["t0"]) * 1e6,
                    pid=parent.get("pid", 0),
                    tid=parent.get("pid", 0),
                )
            )
            events.append(
                dict(common, ph="f", bp="e", ts=t0 * 1e6, pid=span.get("pid", 0), tid=span.get("pid", 0))
            )
    events.sort(key=lambda e: e["ts"])
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    text = json.dumps(document)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def _clear_after_fork() -> None:
    # A forked worker inherits the parent's buffered spans; shipping
    # them again from the child would duplicate every event.
    _local.clear()
    _parent.id = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython on POSIX
    os.register_at_fork(after_in_child=_clear_after_fork)
