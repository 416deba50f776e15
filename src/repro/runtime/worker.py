"""Worker side of the sharded runtime.

A shard owns one full :class:`~repro.streams.engine.StreamEngine`
compiled from the shard-local plan segment and speaks a small message
protocol with its coordinator:

parent → worker
    ``("chunk", source, chunk_id, payload)`` — one encoded tuple batch;
    ``("flush", token)`` — close partial windows (end-of-stream drain);
    ``("stats",)`` — snapshot per-box statistics;
    ``("snapshot", token)`` — serialize the shard's operator state;
    ``("restore", token, payload)`` — install a serialized state;
    ``("stop",)`` — exit the loop.

worker → parent
    ``("results", shard, chunk_id, payload, watermark[, spans])`` — the
    outputs the chunk produced (possibly empty — the ordered merge
    needs every chunk acknowledged) plus the shard's event-time
    watermark, shipped atomically so the coordinator can trust a passed
    watermark; the optional sixth element carries the worker-side spans
    of a sampled trace (see :mod:`repro.obs.spans`) back to the
    coordinator's span buffer;
    ``("flushed", shard, token, payload)`` — drain results;
    ``("stats", shard, rows)`` — statistics snapshot;
    ``("snapshot", shard, token, payload)`` — serialized operator state;
    ``("restored", shard, token)`` — a restore was installed;
    ``("error", shard, traceback)`` — the worker died.

Tuples cross the process boundary through the compact binary codec of
:mod:`repro.streams.serialization`, not pickle: the payload sizes are
what the paper's stream-volume argument is about, and the codec keeps
them measurable.

:meth:`ShardRunner.handle` is the one place a request verb is
dispatched; every transport drives it.  :func:`serve_shard` runs it for
every out-of-process shard over a connected socket — a forked worker
(:func:`worker_main`) over its end of a ``socket.socketpair()``, the
TCP shard server (:class:`repro.net.shard.ShardServer`) over an
accepted connection — so a forked and a remote shard run the same loop
and exchange byte-identical frames.  The inline backend's channel
(:class:`~repro.runtime.transport.InlineShardChannel`) calls
:meth:`ShardRunner.handle` in the coordinator's own thread.
"""

from __future__ import annotations

import math
import socket
import traceback
from dataclasses import astuple
from typing import Iterable, List, Optional, Tuple

from repro import obs
from repro.obs import spans as tracing
from repro.plan.nodes import LogicalPlan, topological_nodes
from repro.plan.planner import Planner
from repro.streams.batch import TupleBatch
from repro.streams.serialization import decode_batch, encode_batch_wire

__all__ = ["ShardRunner", "plan_signature", "serve_shard", "worker_main"]


def plan_signature(plan: LogicalPlan) -> List[str]:
    """Deterministic structural signature of a (shard-local) plan.

    The topological sequence of node labels — address-free strings
    like ``ProbFilter[value > 20.0, p>=0.2]`` — is stable across
    processes and machines that construct the same query from the same
    code, so the socket shard transport uses it to verify at attach
    time that a remote :class:`repro.net.shard.ShardServer` hosts the
    same plan the coordinator split.
    """
    return [node.label() for node in topological_nodes(plan.outputs)]


class ShardRunner:
    """One shard: a compiled local plan plus the protocol handler."""

    def __init__(self, shard_id: int, plan: LogicalPlan):
        self.shard_id = shard_id
        # Chunks arrive as batches and run whole (``push_batch``), so
        # the compiled batch size is never used here.
        self.query = Planner().compile(plan, optimize=False)
        self.watermark = -math.inf

    def handle(self, message: Tuple) -> Optional[Tuple]:
        """Serve one request message; return its reply (``None`` for ``stop``).

        A ``results`` reply carries no spans: a sampled chunk's
        ``shard.exec`` span lands in this process's span buffer, and an
        out-of-process server (:func:`serve_shard`) ships that buffer
        home.
        """
        kind = message[0]
        shard = self.shard_id
        if kind == "chunk":
            _, source, chunk_id, raw = message
            batch = decode_batch(raw)
            outputs, watermark = self._traced_chunk(source, batch, chunk_id)
            # The trace context survives the wire round trip, so the
            # coordinator can account ingest→delivery latency across
            # the process boundary.
            out = TupleBatch(outputs)
            out.trace_id = batch.trace_id
            out.t_ingest = batch.t_ingest
            return ("results", shard, chunk_id, encode_batch_wire(out), watermark)
        if kind == "restore":
            _, token, raw = message
            self.restore_payload(bytes(raw))
            return ("restored", shard, token)
        if kind == "flush":
            return ("flushed", shard, message[1], encode_batch_wire(TupleBatch(self.flush())))
        if kind == "stats":
            return ("stats", shard, self.statistics_rows())
        if kind == "snapshot":
            return ("snapshot", shard, message[1], self.state_payload())
        if kind == "stop":
            return None
        raise RuntimeError(f"unknown worker message {kind!r}")  # pragma: no cover

    def _traced_chunk(
        self, source: str, batch: TupleBatch, chunk_id: int
    ) -> Tuple[List, float]:
        """Run one chunk under its batch's trace context.

        When the batch carries a *sampled* trace, the chunk runs inside
        a ``shard.exec`` span whose id is the deterministic
        :func:`repro.obs.spans.exec_span_id` and whose parent is the
        coordinator's ship span for the same ``(trace, shard, chunk)``
        coordinates — the cross-process hand-off.  Operator spans
        recorded while the chunk runs nest under it.  Unsampled (or
        untraced) batches skip every clock read and allocation.
        """
        trace_id = batch.trace_id
        if trace_id is None:
            return self.chunk(source, batch)
        previous = obs.activate(obs.TraceContext(trace_id, batch.t_ingest))
        try:
            if not tracing.sampled(trace_id):
                return self.chunk(source, batch)
            exec_id = tracing.exec_span_id(trace_id, self.shard_id, chunk_id)
            previous_parent = tracing.activate_parent(exec_id)
            t0 = obs.trace_clock()
            try:
                result = self.chunk(source, batch)
            finally:
                tracing.activate_parent(previous_parent)
            tracing.record_span(
                "shard.exec",
                "shard",
                trace_id,
                t0,
                obs.trace_clock(),
                span_id=exec_id,
                parent_id=tracing.chunk_span_id(trace_id, self.shard_id, chunk_id),
            )
            return result
        finally:
            obs.activate(previous)

    def chunk(self, source: str, batch: TupleBatch) -> Tuple[List, float]:
        """Run one chunk; return (outputs, watermark after the chunk)."""
        if len(batch):
            self.query.push_batch(source, batch)
            self.watermark = max(self.watermark, float(batch.timestamps()[-1]))
        return self.query.take(), self.watermark

    def flush(self) -> List:
        """Close partial windows and return their outputs."""
        self.query.engine.finish()
        return self.query.take()

    def statistics_rows(self) -> List[Tuple[str, int, int, int, float]]:
        return [astuple(stats) for stats in self.query.statistics()]

    # ------------------------------------------------------------------
    # Durability (checkpoint/recover RPC)
    # ------------------------------------------------------------------
    def state_payload(self) -> bytes:
        """Serialize this shard's box states for a coordinator snapshot.

        The sink needs no entry: every reply drains it.
        """
        from repro.recovery.state import encode_state

        return encode_state(
            {"watermark": self.watermark, "ops": self.query.host.snapshot()}
        )

    def restore_payload(self, payload: bytes) -> None:
        """Install a state produced by :meth:`state_payload`."""
        from repro.recovery.state import decode_state

        state = decode_state(payload)
        self.watermark = float(state["watermark"])
        self.query.host.restore(state["ops"])


def serve_shard(
    runner: ShardRunner, sock: socket.socket, max_payload: Optional[int] = None
) -> None:
    """Serve the shard protocol over a connected socket until ``stop``.

    ``sock`` is a connected, blocking stream socket: a forked worker's
    end of its ``socketpair()`` or a shard server's accepted TCP
    connection.  Each request is read whole into a private buffer and
    parsed in place — the batch decoder copies columns straight out of
    the frame — and the spans a sampled chunk recorded ride its
    ``results`` reply home.  A coordinator that goes away ends the loop
    with ``ConnectionClosed``.
    """
    # Imported here, not at module top: repro.net imports this module
    # for ShardRunner, and the coordinator must stay importable without
    # the net package having loaded first.
    from repro.net.framing import DEFAULT_MAX_PAYLOAD, parse_frame, recv_frame_bytes
    from repro.net.protocol import decode_worker_message, encode_worker_message

    max_payload = max_payload or DEFAULT_MAX_PAYLOAD
    spans = tracing.local_spans()
    while True:
        frame = recv_frame_bytes(sock, max_payload)
        reply = runner.handle(decode_worker_message(*parse_frame(frame)))
        if reply is None:
            return
        if reply[0] == "results":
            reply += (spans.drain(),)
        sock.sendall(encode_worker_message(reply))


def worker_main(
    shard_id: int,
    plan: LogicalPlan,
    sock: socket.socket,
    inherited: Iterable[socket.socket] = (),
) -> None:
    """Process entry point: serve the shard protocol until ``stop`` or EOF.

    Runs under the ``fork`` start method, so the logical plan — with
    all its closures — arrives by address-space inheritance, and each
    worker compiles its own private operator instances from the plan.
    ``sock`` is this worker's end of its socketpair; ``inherited`` are
    the other shard sockets the fork copied, closed first so that the
    only holders of a worker's connection are that worker and its
    coordinator: either one dying is then seen by the other as EOF.
    """
    from repro.net.errors import ConnectionClosed
    from repro.net.protocol import encode_worker_message

    for other in inherited:
        other.close()
    # Spans the parent had buffered before the fork are the parent's
    # to export; shipping them back would duplicate them.
    tracing.local_spans().clear()
    try:
        serve_shard(ShardRunner(shard_id, plan), sock)
    except (ConnectionClosed, ConnectionError):
        pass  # the coordinator is gone; nobody is left to tell
    except Exception:
        try:
            sock.sendall(
                encode_worker_message(("error", shard_id, traceback.format_exc()))
            )
        except OSError:
            pass
    finally:
        sock.close()
