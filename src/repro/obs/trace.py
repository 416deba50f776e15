"""Trace context: an ingest stamp carried from source to sink.

A :class:`TraceContext` is minted where data first enters the system
(the server's INGEST handler, or ``QuerySession.push_many`` for
embedded use) and records two fields:

``trace_id``
    A process-unique integer (pid-prefixed so ids minted in different
    processes on the same host never collide).  Client callers may
    supply their own id through the INGEST frame header to correlate
    deliveries with their own logs.
``t_ingest``
    The ingest time on :func:`trace_clock` — ``time.monotonic()``,
    which on Linux reads the system-wide ``CLOCK_MONOTONIC``, so a
    stamp minted in the coordinator compares meaningfully against a
    reading taken in a forked shard worker or back in the coordinator
    at delivery time, and is monotone where wall clocks are not.

Propagation is explicit where execution crosses a thread or process
(the context rides the encoded batch's header; see
``repro.streams.serialization``) and implicit within a thread: the
active context lives in a ``threading.local`` that the delivery paths
set around sink calls, so sinks read ``active()`` without any plumbing
through the operator graph.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Optional

__all__ = ["TraceContext", "new_trace", "activate", "active", "trace_clock"]

#: The clock every trace field is read from.
trace_clock = time.monotonic

_counter = itertools.count(1)
_active = threading.local()


class TraceContext:
    """One ingested chunk's identity and origin time (immutable)."""

    __slots__ = ("trace_id", "t_ingest")

    def __init__(self, trace_id: int, t_ingest: float):
        self.trace_id = trace_id
        self.t_ingest = t_ingest

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TraceContext(trace_id={self.trace_id}, t_ingest={self.t_ingest:.6f})"


def new_trace(
    trace_id: Optional[int] = None, t_ingest: Optional[float] = None
) -> TraceContext:
    """Mint a context, stamping the current monotonic time by default."""
    if trace_id is None:
        trace_id = (os.getpid() << 32) | (next(_counter) & 0xFFFFFFFF)
    return TraceContext(int(trace_id), trace_clock() if t_ingest is None else t_ingest)


def activate(ctx: Optional[TraceContext]) -> Optional[TraceContext]:
    """Make ``ctx`` the calling thread's active context.

    Returns the previous context so callers can restore it in a
    ``finally`` block (contexts nest during re-entrant delivery).
    """
    previous = getattr(_active, "ctx", None)
    _active.ctx = ctx
    return previous


def active() -> Optional[TraceContext]:
    """Return the calling thread's active context, if any."""
    return getattr(_active, "ctx", None)
