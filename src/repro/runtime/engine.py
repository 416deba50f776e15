"""`ShardedEngine`: partitioned multi-process execution of one query.

The parent process cuts source tuples into chunks, ships chunk ``c``
(one global sequence across sources) to shard ``c % N`` of N worker
processes (each running a full
:class:`~repro.streams.engine.StreamEngine` on the shard-local plan
segment), and recombines the workers' outputs through the
uncertainty-aware merge operators of :mod:`repro.runtime.merge`:

* aggregate-split plans merge per-window partial moments/mixtures and
  apply HAVING (plus any row-wise coordinator suffix) on the merged
  result;
* row-wise plans reassemble chunk outputs in global input order.

The engine only shards: a plan the sharding pass rejects (joins, count
windows, ...) is refused with a :class:`~repro.plan.nodes.PlanError`
naming the blocker.  :class:`repro.service.QuerySession` is the one
place that picks between in-process and sharded execution; it runs
such a query in its shared in-process engine.

Transport: every shard sits behind one *channel* shape
(:mod:`repro.runtime.transport`) — send a frame, poll replies, report
flow control, liveness, close.  Every out-of-process shard is a
:class:`~repro.runtime.transport.SocketShardChannel`: a forked worker
on its end of a ``socket.socketpair()``, or a remote shard server
(``remote_shards=["host:port", ...]``) over TCP, so the highest shard
slots can live on other machines.  Both run the same
:func:`~repro.runtime.worker.serve_shard` loop over the same frames
(the columnar wire encoding of each chunk, no pickle).  The inline
backend runs each shard's
:meth:`~repro.runtime.worker.ShardRunner.handle` in the caller's
thread.  The engine never asks which kind of channel it holds.

The coordinator's fan-in is concurrent: one reader thread per
out-of-process shard decodes replies and feeds the merge operators as
results arrive, so merge cost overlaps the workers' compute instead of
serializing behind the send loop.  Delivery to the user-visible sink
stays on the caller's thread (``_flush_ready``), preserving the
single-threaded listener contract of the service layer.

Backpressure is structural: the coordinator keeps at most
``queue_capacity`` chunks in flight (shipped, not yet answered) per
shard, whatever the channel, and the socket buffers bound the bytes in
both directions.  A ship that cannot proceed counts a stall and waits
while the reader threads keep draining.  Placement never reacts to it:
the rotation is fixed, so a slow shard slows the stream down rather
than being routed around.

Workers are forked, not spawned: logical plans carry closures
(predicates, derive functions, group keys) that never pickle, but fork
inherits them by address space.  Tuples cross processes only through
:mod:`repro.streams.serialization`.  A worker's socket has two
holders, the worker and its coordinator, so either one dying is EOF to
the other: no worker outlives its coordinator, and a killed worker
surfaces as a :class:`ShardError` naming its shard.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from repro import obs
from repro.plan.builder import Stream
from repro.plan.nodes import LogicalPlan, PlanError
from repro.plan.planner import Planner
from repro.plan.sharding import (
    PARTIAL_SOURCE,
    ShardingDecision,
    explain_sharding,
    split_for_sharding,
)
from repro.streams.batch import TupleBatch
from repro.streams.engine import OperatorStats
from repro.streams.operators.base import Operator
from repro.streams.operators.basic import CollectSink
from repro.streams.serialization import decode_batch, encode_batch_wire
from repro.streams.tuples import StreamTuple

from .merge import OrderedChunkMerger, WindowPartialMerger
from .transport import InlineShardChannel, SocketShardChannel, fork_shards
from .worker import ShardRunner, plan_signature

__all__ = ["ShardedEngine", "ShardError", "ShardedStatistics", "ShardBackpressure"]

#: How long finish()/statistics() wait for worker replies before
#: declaring a shard dead.
_REPLY_TIMEOUT = 60.0

#: Distinct obs scopes for concurrently-live coordinators.
_sharded_scopes = itertools.count(1)


class ShardError(RuntimeError):
    """A worker process failed (its traceback is in the message)."""


def _read_replies(engine_ref, channel, stop: threading.Event) -> None:
    """Drain one shard's replies: decode off the merge lock, then merge.

    The loop holds its engine only while it applies a poll's replies, so
    an engine nobody closed can still be collected; its finalizer
    (:func:`_stop_shards`) then ends the loop.
    """
    try:
        while not stop.is_set():
            replies = channel.poll(0.1, _decode_reply)
            engine = engine_ref()
            if engine is None:
                return
            for reply in replies:
                engine._apply_reply(*reply)
            if not channel.alive:
                if not stop.is_set():
                    engine._check_workers_alive()
                return
            del engine
    except BaseException as exc:
        engine = engine_ref()
        if engine is not None:
            engine._note_reply_error(exc)


def _stop_shards(stop: threading.Event, channels) -> None:
    """Stop the reader threads and close the channels: each forked worker reads EOF and exits."""
    stop.set()
    for channel in channels:
        channel.close()


def _decode_reply(message):
    """Normalize a worker reply: decode batch payloads into rows.

    Runs *outside* the merge lock — payload decoding is the
    expensive part of fan-in and must overlap across reader
    threads.  Returns ``(reply, decode_seconds)``.
    """
    kind = message[0]
    if kind == "results":
        decode_start = time.perf_counter()
        shard, chunk_id, payload, watermark = message[1:5]
        spans = message[5] if len(message) > 5 else []
        batch = decode_batch(payload)
        rows = batch.to_tuples()
        trace = (
            obs.TraceContext(batch.trace_id, batch.t_ingest)
            if batch.trace_id is not None
            else None
        )
        decode_seconds = time.perf_counter() - decode_start
        if trace is not None and obs.sampled_trace(trace):
            now = obs.trace_clock()
            obs.record_span(
                "shard.decode",
                "shard",
                trace.trace_id,
                now - decode_seconds,
                now,
                parent_id=obs.exec_span_id(trace.trace_id, shard, chunk_id),
            )
        return (
            ("results", shard, chunk_id, rows, watermark, trace, spans),
            decode_seconds,
        )
    if kind == "flushed":
        decode_start = time.perf_counter()
        _, shard, token, payload = message
        rows = decode_batch(payload).to_tuples()
        return ("flushed", shard, token, rows), time.perf_counter() - decode_start
    if kind == "snapshot":
        # Copy the state bytes out of the reply frame here, off the
        # merge lock.
        _, shard, token, payload = message
        return ("snapshot", shard, token, bytes(payload)), 0.0
    return message, 0.0


@dataclass(frozen=True)
class ShardBackpressure:
    """Flow-control state of one shard, as seen by the coordinator.

    ``transport`` names the shard's channel — ``"socket"`` (a forked
    worker or a remote shard server) or ``"inline"``.  ``stalls`` counts
    the wait passes of ships to this shard that could not proceed
    (``queue_capacity`` chunks already in flight, or the socket send
    buffer full) — the cumulative backpressure signal.
    ``in_flight_chunks`` is the chunks shipped but not yet answered;
    ``send_backlog_bytes`` the bytes a socket channel has buffered but
    not yet written.
    """

    shard: int
    transport: str
    in_flight_chunks: int
    stalls: int
    chunks_sent: int
    send_backlog_bytes: int = 0


@dataclass(frozen=True)
class ShardedStatistics:
    """Per-shard and coordinator box statistics."""

    shards: Dict[int, List[OperatorStats]]
    coordinator: List[OperatorStats]
    backpressure: Dict[int, ShardBackpressure] = field(default_factory=dict)


class ShardedEngine:
    """Run one compiled query across N shard processes (see module docs).

    Parameters
    ----------
    query:
        A :class:`~repro.plan.Stream` or single-output
        :class:`~repro.plan.LogicalPlan`, or the
        :class:`~repro.plan.sharding.ShardingDecision` a caller already
        split it into (run as given: ``optimize`` does not apply).
    workers:
        Shard count, at least 1.
    backend:
        ``"process"`` (forked workers, the real runtime) or
        ``"inline"`` (shards run synchronously in-process through the
        same protocol — deterministic, for tests and platforms without
        ``fork``).
    chunk_size:
        Tuples per shipped chunk.  Chunk ``c`` (one global sequence
        across sources) goes to shard ``c % workers``.
    queue_capacity:
        Bound on the chunks in flight (shipped but not yet answered)
        per shard, for every channel.  This is the backpressure knob:
        a ship to a shard at the bound waits for one of its replies.
        Shard workers run each shipped chunk as one batch.
    remote_shards:
        TCP addresses (``"host:port"``) of running
        :class:`repro.net.shard.ShardServer` processes.  The *highest*
        shard slots connect there instead of forking: with
        ``workers=4`` and two addresses, shards 0–1 fork locally and
        shards 2–3 run remotely.  Requires the ``"process"`` backend.
        The remote server must host the same query (see
        :mod:`repro.net.shard` on plan distribution).
    sink:
        Optional result sink operator; every merged result is delivered
        through ``sink.accept_batch``.  Defaults to a
        :class:`~repro.streams.operators.basic.CollectSink` exposed via
        :attr:`results`.
    """

    def __init__(
        self,
        query: Union[Stream, LogicalPlan, ShardingDecision],
        workers: int = 2,
        backend: str = "process",
        chunk_size: int = 1024,
        queue_capacity: int = 8,
        planner: Optional[Planner] = None,
        optimize: bool = True,
        sink: Optional[Operator] = None,
        remote_shards: Iterable[str] = (),
    ):
        if workers < 1:
            raise PlanError(f"workers must be at least 1, got {workers}")
        if chunk_size < 1:
            raise PlanError(f"chunk_size must be at least 1, got {chunk_size}")
        if queue_capacity < 1:
            raise PlanError(f"queue_capacity must be at least 1, got {queue_capacity}")
        if backend not in ("process", "inline"):
            raise PlanError(f"unknown backend {backend!r}; use 'process' or 'inline'")
        self.remote_shards = tuple(remote_shards)
        if self.remote_shards:
            if backend != "process":
                raise PlanError(
                    "remote_shards requires the 'process' backend "
                    f"(got {backend!r}); the inline backend is single-process"
                )
            if len(self.remote_shards) > workers:
                raise PlanError(
                    f"{len(self.remote_shards)} remote shard addresses but only "
                    f"workers={workers} shard slots"
                )

        decision: Optional[ShardingDecision] = None
        if isinstance(query, ShardingDecision):
            decision = query
        elif isinstance(query, Stream):
            plan = query.plan()
        elif isinstance(query, LogicalPlan):
            plan = query
            plan.validate()
        else:
            raise PlanError(
                "ShardedEngine takes a Stream, LogicalPlan or ShardingDecision, "
                f"got {type(query).__name__}"
            )

        self._planner = planner or Planner()
        self.workers = workers
        self.backend = backend
        self.chunk_size = chunk_size
        self._queue_capacity = queue_capacity
        self._sink = sink if sink is not None else CollectSink(name="sink:sharded")
        self._closed = False
        #: Scope label for this coordinator's instruments in the
        #: :mod:`repro.obs` registry (stage timings, backpressure).
        self.obs_scope = f"sharded-{next(_sharded_scopes)}"

        if decision is None:
            if optimize:
                plan, _ = self._planner.optimize(plan)
                plan.validate()
            decision = split_for_sharding(plan, self._planner.cost_model)
        self.decision = decision
        if not decision.shardable:
            raise PlanError(f"plan does not shard: {decision.reason}")

        # Mergers, suffix engine, shard channels and the worker pool.
        self.sources = sorted(s.name for s in decision.local.sources)
        if decision.ordered:
            self._merger = OrderedChunkMerger()
        else:
            self._merger = WindowPartialMerger(decision.merge, self.workers)
        self._suffix = None
        if decision.suffix is not None:
            self._suffix = self._planner.compile(decision.suffix, optimize=False)

        self._next_chunk = 0
        self._outstanding = 0
        # Pending chunk buffers.  The ordered (row-wise) merge needs
        # chunk ids to reproduce the exact arrival order across sources,
        # so it keeps ONE buffer and ships it whenever the source
        # switches; the window merge is order-insensitive, so each
        # source buffers independently and interleaved pushes still
        # ship full chunks.
        self._pending: Dict[str, List[StreamTuple]] = {}
        self._pending_source: Optional[str] = None
        #: Trace context captured when a buffer starts filling, so a
        #: chunk shipped later from flush (no active context on that
        #: call) still carries the ingest stamp of its tuples.
        self._pending_trace: Dict[str, Optional[obs.TraceContext]] = {}
        self._flush_token = 0
        self._flushed_tokens: Dict[int, int] = {}
        self._stats_rows: Dict[int, Optional[List]] = {}
        # Checkpoint RPC bookkeeping (state_snapshot / state_restore).
        self._snapshot_token = 0
        self._snapshot_rows: Dict[int, Optional[bytes]] = {}
        self._restored_shards: Dict[int, int] = {}
        self._ordered_flush: Dict[int, List[StreamTuple]] = {}
        # Backpressure accounting (see ShardBackpressure), held as
        # repro.obs counters so shard_statistics() and the METRICS verb
        # read the same cells.
        registry = obs.get_registry()
        self._stalls = [
            registry.counter(
                "repro_shard_stalls_total", engine=self.obs_scope, shard=str(s)
            )
            for s in range(self.workers)
        ]
        self._chunks_sent = [
            registry.counter(
                "repro_shard_chunks_sent_total", engine=self.obs_scope, shard=str(s)
            )
            for s in range(self.workers)
        ]
        self._chunks_done = [
            registry.counter(
                "repro_shard_chunks_done_total", engine=self.obs_scope, shard=str(s)
            )
            for s in range(self.workers)
        ]
        #: Chunks shipped but not yet merged, published as a gauge so
        #: health rules can watch backpressure.
        self._outstanding_gauge = registry.gauge(
            "repro_shard_outstanding", engine=self.obs_scope
        )
        # Reply plumbing: reader threads decode and merge under the
        # condition's lock; merged output queues in _ready for delivery
        # on the caller's thread (_flush_ready).
        self._reply_cv = threading.Condition()
        self._reply_error: Optional[BaseException] = None
        self._ready: deque = deque()
        self._reader_threads: List[threading.Thread] = []
        self._stop_readers = threading.Event()
        self._last_reply = time.monotonic()
        # Coordinator-side stage accounting (stage_timings()), one
        # repro.obs counter per stage.  Encode/transport are only ever
        # touched by the caller's thread; decode/merge are shared with
        # the reader threads and every increment to them happens with
        # self._reply_cv held (the shared-dict-slot concurrency lint
        # enforces the shape that used to violate this).
        self._stage = {
            stage: registry.counter(
                "repro_stage_seconds_total", engine=self.obs_scope, stage=stage
            )
            for stage in ("encode", "transport", "decode", "merge")
        }

        # Deferred: repro.net imports repro.runtime.worker, so pulling
        # the net package in at module load would close an import cycle.
        from repro.net.protocol import encode_worker_message

        self._encode_worker_message = encode_worker_message
        if self.backend == "inline":
            #: One channel per shard slot, indexed by shard id.
            self._channels = [
                InlineShardChannel(
                    ShardRunner(i, decision.local),
                    self._on_reply,
                )
                for i in range(self.workers)
            ]
            return

        local_count = self.workers - len(self.remote_shards)
        # Connect the remote shards first: a bad address then fails
        # before any worker forks, leaving nothing to clean up.  The
        # attach carries a structural signature of the shard-local plan
        # so a server hosting a *different* query rejects loudly instead
        # of merging mismatched partials silently.
        signature = plan_signature(decision.local)
        remote: List[SocketShardChannel] = []
        try:
            for offset, address in enumerate(self.remote_shards):
                remote.append(
                    SocketShardChannel.attach(
                        local_count + offset, address, plan_signature=signature
                    )
                )
            # Workers fork before any reader thread starts.
            local = fork_shards(decision.local, range(local_count))
        except BaseException:
            # A later address (or a fork) failing must not leak the shard
            # servers already attached (each serves one coordinator at a
            # time).
            for channel in remote:
                channel.close()
            raise
        #: One channel per shard slot, indexed by shard id.
        self._channels = [*local, *remote]
        # The readers hold the engine weakly, so an engine nobody closed is
        # still collected, and collecting it stops its shards.
        for channel in self._channels:
            thread = threading.Thread(
                target=_read_replies,
                args=(weakref.ref(self), channel, self._stop_readers),
                daemon=True,
                name=f"repro-reader-{channel.shard}",
            )
            thread.start()
            self._reader_threads.append(thread)
        weakref.finalize(self, _stop_shards, self._stop_readers, self._channels)

    # ------------------------------------------------------------------
    # Data flow
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise ShardError(
                "this ShardedEngine is closed; create a new one to push more data"
            )
        self._raise_if_failed()

    def push(self, source: str, item: StreamTuple) -> None:
        """Buffer one tuple; full chunks ship to their shard."""
        self._ensure_open()
        self._check_source(source)
        if self.decision.ordered and self._pending_source not in (None, source):
            self._ship_pending()
        self._pending_source = source
        buffer = self._pending.setdefault(source, [])
        if not buffer:
            self._pending_trace[source] = obs.active()
        buffer.append(item)
        if len(buffer) >= self.chunk_size:
            self._ship_buffer(source)

    def push_many(self, source: str, items: Iterable[StreamTuple]) -> None:
        """Push a sequence of tuples (chunked and rotated across shards)."""
        self._ensure_open()
        for item in items:
            self.push(source, item)

    def _check_source(self, source: str) -> None:
        if source not in self.sources:
            raise PlanError(
                f"unknown source {source!r}; this plan reads {self.sources}"
            )

    def _ship_pending(self) -> None:
        """Ship every non-empty pending buffer."""
        for source in list(self._pending):
            self._ship_buffer(source)
        self._pending_source = None

    def _ship_buffer(self, source: str) -> None:
        items = self._pending.pop(source, None)
        if not items:
            return
        encode_start = time.perf_counter()
        # The active trace context (stamped by the session/server at
        # ingest) rides each chunk's encoded batch header, so the
        # shard workers and the reply path inherit it without any frame
        # change.  Chunk granularity: a buffer shipped mid-ingest
        # carries the current context (latest-wins); one shipped from
        # flush falls back to the context captured when it started
        # filling.
        trace = obs.active() or self._pending_trace.pop(source, None)
        chunk_id = self._next_chunk
        self._next_chunk += 1
        shard = chunk_id % self.workers
        batch = TupleBatch(items)
        if trace is not None:
            batch.trace_id = trace.trace_id
            batch.t_ingest = trace.t_ingest
        payload = encode_batch_wire(batch)
        encode_seconds = time.perf_counter() - encode_start
        self._stage["encode"].inc(encode_seconds)
        traced = trace is not None and obs.sampled_trace(trace)
        if traced:
            now = obs.trace_clock()
            obs.record_span(
                "shard.encode",
                "shard",
                trace.trace_id,
                now - encode_seconds,
                now,
                parent_id=obs.root_span_id(trace.trace_id),
            )
        t0 = obs.trace_clock() if traced else 0.0
        send_start = time.perf_counter()
        with self._reply_cv:
            # At most queue_capacity chunks in flight per shard: wait
            # for this shard's replies, one stall per wait pass.
            while self._in_flight(shard) >= self._queue_capacity:
                self._on_send_stall(shard)
                self._reply_cv.wait(0.05)
            self._outstanding += 1
            self._outstanding_gauge.set(self._outstanding)
            if isinstance(self._merger, WindowPartialMerger):
                self._merger.mark_fed(shard)
            self._chunks_sent[shard].inc()
        self._stage["transport"].inc(time.perf_counter() - send_start)
        self._send(shard, ("chunk", source, chunk_id, payload))
        if traced:
            # The ship span's id is the deterministic hand-off key: the
            # worker parents its exec span to this exact string without
            # any id crossing the wire.
            obs.record_span(
                "shard.ship",
                "shard",
                trace.trace_id,
                t0,
                obs.trace_clock(),
                span_id=obs.chunk_span_id(trace.trace_id, shard, chunk_id),
                parent_id=obs.root_span_id(trace.trace_id),
            )
        self._flush_ready()

    # ------------------------------------------------------------------
    # Worker I/O
    # ------------------------------------------------------------------
    def _send(self, shard: int, message) -> None:
        send_start = time.perf_counter()
        self._channels[shard].send(
            self._encode_worker_message(message),
            on_stall=lambda: self._on_send_stall(shard),
        )
        self._stage["transport"].inc(time.perf_counter() - send_start)

    def _in_flight(self, shard: int) -> int:
        """Chunks shipped to ``shard`` and not yet answered."""
        return int(self._chunks_sent[shard].value) - int(self._chunks_done[shard].value)

    def _on_send_stall(self, shard: int) -> None:
        """One pass that could not ship: count it and fail fast on a dead shard."""
        self._stalls[shard].inc()
        self._raise_if_failed()
        self._check_workers_alive()

    # ------------------------------------------------------------------
    # Reply fan-in (reader threads: _read_replies)
    # ------------------------------------------------------------------
    def _on_reply(self, message) -> None:
        """Apply one reply an inline channel produced synchronously."""
        self._apply_reply(*_decode_reply(message))

    def _apply_reply(self, reply, decode_seconds: float) -> None:
        """Account one normalized reply and feed the merge (thread-safe)."""
        kind = reply[0]
        with self._reply_cv:
            self._stage["decode"].inc(decode_seconds)
            self._last_reply = time.monotonic()
            if kind == "results":
                _, shard, chunk_id, rows, watermark, trace, spans = reply
                self._outstanding -= 1
                self._outstanding_gauge.set(self._outstanding)
                self._chunks_done[shard].inc()
                if spans:
                    # Worker-side spans of a sampled trace, shipped in
                    # the reply header: fold them into the coordinator's
                    # buffer so one export holds the whole tree.
                    obs.local_spans().ingest(spans)
                merge_start = time.perf_counter()
                if isinstance(self._merger, OrderedChunkMerger):
                    merged = self._merger.ingest(chunk_id, rows)
                else:
                    merged = self._merger.ingest(shard, rows, watermark)
                merge_seconds = time.perf_counter() - merge_start
                self._stage["merge"].inc(merge_seconds)
                if trace is not None and obs.sampled_trace(trace):
                    now = obs.trace_clock()
                    obs.record_span(
                        "shard.merge",
                        "shard",
                        trace.trace_id,
                        now - merge_seconds,
                        now,
                        parent_id=obs.root_span_id(trace.trace_id),
                    )
                if merged:
                    self._ready.append((merged, trace))
            elif kind == "flushed":
                _, shard, token, rows = reply
                self._flushed_tokens[shard] = token
                if isinstance(self._merger, OrderedChunkMerger):
                    self._ordered_flush.setdefault(shard, []).extend(rows)
                else:
                    merge_start = time.perf_counter()
                    merged = self._merger.ingest(shard, rows, math.inf)
                    self._stage["merge"].inc(time.perf_counter() - merge_start)
                    if merged:
                        self._ready.append((merged, None))
            elif kind == "stats":
                self._stats_rows[reply[1]] = reply[2]
            elif kind == "snapshot":
                self._snapshot_rows[reply[1]] = reply[3]
            elif kind == "restored":
                self._restored_shards[reply[1]] = reply[2]
            elif kind == "error":
                raise ShardError(f"shard {reply[1]} failed:\n{reply[2]}")
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unknown worker reply {kind!r}")
            self._reply_cv.notify_all()

    def _note_reply_error(self, exc: BaseException) -> None:
        with self._reply_cv:
            if self._reply_error is None:
                self._reply_error = exc
            self._reply_cv.notify_all()

    def _raise_if_failed(self) -> None:
        exc = self._reply_error
        if exc is None:
            return
        if isinstance(exc, ShardError):
            raise exc
        raise ShardError(f"shard reply handling failed: {exc!r}") from exc

    def _await_replies(self, predicate, timeout: float = _REPLY_TIMEOUT) -> None:
        """Block until ``predicate()`` holds (called with the lock held).

        ``timeout`` is an *inactivity* bound: it restarts on every
        received reply, so a slow-but-progressing shard never trips it —
        only a shard that stops replying altogether does.
        """
        with self._reply_cv:
            self._last_reply = max(self._last_reply, time.monotonic())
            while True:
                self._raise_if_failed()
                if predicate():
                    return
                self._reply_cv.wait(0.05)
                self._raise_if_failed()
                if predicate():
                    return
                self._check_workers_alive()
                if time.monotonic() - self._last_reply > timeout:
                    raise ShardError(
                        f"no shard replies for {timeout:.0f}s while waiting to drain"
                    )

    def _flush_ready(self) -> None:
        """Deliver merged output queued by the reader threads.

        Runs on the caller's thread only: the suffix engine and the
        user sink (which may be a service-layer subscription fan-out)
        keep their single-threaded contract.
        """
        ready = self._ready
        if not ready:
            return
        while True:
            try:
                merged, trace = ready.popleft()
            except IndexError:
                return
            merge_start = time.perf_counter()
            self._deliver(merged, trace)
            with self._reply_cv:
                self._stage["merge"].inc(time.perf_counter() - merge_start)

    def _deliver(self, merged: List[StreamTuple], trace=None) -> None:
        """Route merged tuples through the coordinator suffix to the sink.

        When the batch that produced these rows carried a trace context,
        it is re-activated around delivery so downstream sinks (the
        service layer's per-query latency histograms in particular) see
        the originating ``t_ingest``.
        """
        if not merged:
            return
        previous = obs.activate(trace) if trace is not None else None
        traced = trace is not None and obs.sampled_trace(trace)
        t0 = obs.trace_clock() if traced else 0.0
        try:
            if self._suffix is not None:
                self._suffix.push_batch(PARTIAL_SOURCE, merged)
                merged = self._suffix.take()
            if merged:
                self._sink.accept_batch(TupleBatch(merged))
        finally:
            if traced:
                obs.record_span(
                    "sink.deliver",
                    "sink",
                    trace.trace_id,
                    t0,
                    obs.trace_clock(),
                    parent_id=obs.root_span_id(trace.trace_id),
                )
            if trace is not None:
                obs.activate(previous)

    def _check_workers_alive(self) -> None:
        for channel in self._channels:
            if not channel.alive:
                raise ShardError(
                    f"shard {channel.shard} is gone without reporting an error: "
                    f"{channel!r}"
                )

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------
    def finish(self) -> List[StreamTuple]:
        """Drain the pipeline: flush every shard, merge everything pending.

        Mirrors ``StreamEngine.finish``: partial windows close and their
        results are emitted; the engine stays usable for further pushes.
        """
        self._ensure_open()
        self._ship_pending()
        self._flush_token += 1
        token = self._flush_token
        for shard in range(self.workers):
            self._send(shard, ("flush", token))
        self._await_replies(
            lambda: self._outstanding == 0
            and all(self._flushed_tokens.get(s) == token for s in range(self.workers))
        )
        self._flush_ready()
        with self._reply_cv:
            merge_start = time.perf_counter()
            merged = self._merger.drain()
            if isinstance(self._merger, OrderedChunkMerger):
                tails = [self._ordered_flush.pop(s, []) for s in range(self.workers)]
            else:
                tails = []
            self._stage["merge"].inc(time.perf_counter() - merge_start)
        self._deliver(merged)
        for rows in tails:
            self._deliver(rows)
        if self._suffix is not None:
            self._suffix.engine.finish()
            leftovers = self._suffix.take()
            if leftovers:
                self._sink.accept_batch(TupleBatch(leftovers))
        return self.results

    # ------------------------------------------------------------------
    # Durability: quiesce + coordinated state snapshot/restore
    # ------------------------------------------------------------------
    def quiesce(self) -> None:
        """Drain in-flight work without closing windows.

        Ships every buffered partial chunk, waits for the workers to
        answer all outstanding chunks, and delivers the merged results.
        Unlike :meth:`finish` this sends no flush: open windows stay
        open in the workers, so a snapshot taken afterwards captures a
        state from which processing continues exactly where it stopped.
        """
        self._ensure_open()
        self._ship_pending()
        self._await_replies(lambda: self._outstanding == 0)
        self._flush_ready()

    def state_snapshot(self) -> dict:
        """Quiesce and capture the engine's complete mutable state.

        A snapshot request fans out to every shard over its channel
        (workers serialize their own operator state via the wire format)
        and is combined with the coordinator's merger and suffix-plan
        state.
        """
        from repro.recovery.state import decode_state

        self.quiesce()
        shard_states: Dict[str, dict] = {}
        self._snapshot_token += 1
        token = self._snapshot_token
        with self._reply_cv:
            self._snapshot_rows = {shard: None for shard in range(self.workers)}
        for shard in range(self.workers):
            self._send(shard, ("snapshot", token))
        self._await_replies(
            lambda: all(
                self._snapshot_rows.get(s) is not None for s in range(self.workers)
            )
        )
        with self._reply_cv:
            rows = dict(self._snapshot_rows)
        for shard, payload in rows.items():
            shard_states[str(shard)] = decode_state(payload)
        return {
            "mode": "sharded",
            "next_chunk": self._next_chunk,
            "merger": self._merger.state_snapshot(),
            "suffix": (
                self._suffix.host.snapshot() if self._suffix is not None else None
            ),
            "shards": shard_states,
        }

    def state_restore(self, state: dict) -> None:
        """Install a :meth:`state_snapshot` into a freshly built engine.

        Must run before any pushes; requires the same query, worker
        count and sharding decision as the engine that took the
        snapshot.
        """
        from repro.recovery.state import encode_state

        self._ensure_open()
        if state.get("mode") != "sharded":
            raise ShardError(
                f"checkpoint state has mode {state.get('mode')!r}, not 'sharded'; "
                "a ShardedEngine restores only a ShardedEngine snapshot"
            )
        shard_states = state["shards"]
        if len(shard_states) != self.workers:
            raise ShardError(
                f"checkpoint recorded {len(shard_states)} shard states, this "
                f"engine has workers={self.workers}"
            )
        self._next_chunk = int(state["next_chunk"])
        self._merger.state_restore(state["merger"])
        if state.get("suffix") is not None:
            if self._suffix is None:
                raise ShardError(
                    "checkpoint carries a coordinator suffix state but this "
                    "engine compiled no suffix plan"
                )
            self._suffix.host.restore(state["suffix"])
        self._snapshot_token += 1
        token = self._snapshot_token
        with self._reply_cv:
            self._restored_shards = {}
        for shard in range(self.workers):
            payload = encode_state(shard_states[str(shard)])
            self._send(shard, ("restore", token, payload))
        self._await_replies(
            lambda: all(
                self._restored_shards.get(s) == token for s in range(self.workers)
            )
        )

    def close(self) -> None:
        """Stop the shards and close their channels (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # Stop the reader threads first: from here the caller's thread
        # owns the consumer side of every channel.
        self._stop_readers.set()
        for thread in self._reader_threads:
            thread.join(timeout=2.0)
        _stop_shards(self._stop_readers, self._channels)

    def __enter__(self) -> ShardedEngine:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Results & introspection
    # ------------------------------------------------------------------
    @property
    def results(self) -> List[StreamTuple]:
        """All merged results delivered to the default sink so far."""
        self._flush_ready()
        return list(getattr(self._sink, "results", ()))

    def take(self) -> List[StreamTuple]:
        """Drain and return the collected results."""
        self._flush_ready()
        results = getattr(self._sink, "results", None)
        if results is None:
            return []
        out = list(results)
        results.clear()
        return out

    def statistics(self) -> ShardedStatistics:
        """Per-shard operator statistics plus the coordinator's own boxes."""
        coordinator: List[OperatorStats] = []
        self._ensure_open()
        with self._reply_cv:
            self._stats_rows = {shard: None for shard in range(self.workers)}
        for shard in range(self.workers):
            self._send(shard, ("stats",))
        self._await_replies(
            lambda: all(
                self._stats_rows.get(s) is not None for s in range(self.workers)
            )
        )
        shards = {
            shard: [OperatorStats(*row) for row in rows]
            for shard, rows in self._stats_rows.items()
        }
        if self._suffix is not None:
            coordinator.extend(self._suffix.statistics())
        sink_view = obs.get_registry().operator_view(self.obs_scope, self._sink)
        coordinator.append(OperatorStats(*sink_view.stats()))
        return ShardedStatistics(
            shards=shards,
            coordinator=coordinator,
            backpressure=self.shard_statistics(),
        )

    def shard_statistics(self) -> Dict[int, ShardBackpressure]:
        """Per-shard backpressure state: in-flight chunks, stalls, send backlog.

        Cheap (no worker round trip), so it is safe to sample in a hot
        monitoring loop.
        """
        report: Dict[int, ShardBackpressure] = {}
        for shard, channel in enumerate(self._channels):
            report[shard] = ShardBackpressure(
                shard=shard,
                transport=channel.transport,
                in_flight_chunks=self._in_flight(shard),
                stalls=int(self._stalls[shard].value),
                chunks_sent=int(self._chunks_sent[shard].value),
                send_backlog_bytes=channel.send_backlog_bytes,
            )
        return report

    def stage_timings(self) -> Dict[str, float]:
        """Cumulative coordinator-side seconds per pipeline stage.

        ``encode`` — columnar wire encoding of outbound
        chunks; ``transport`` — time spent handing frames to shard
        channels, including backpressure stalls (waits for in-flight
        chunks and for room in a socket buffer); ``decode`` — reply
        payloads back into tuples (reader threads, overlapped);
        ``merge`` — merge-operator ingest plus suffix/sink delivery.
        """
        with self._reply_cv:
            return {name: counter.value for name, counter in self._stage.items()}

    def explain(self) -> str:
        """The sharding decision and the runtime configuration."""
        lines = [explain_sharding(self.decision, workers=self.workers)]
        lines.append("")
        lines.append("Runtime")
        lines.append("-------")
        lines.append(f"backend: {self.backend}")
        if self.backend == "process":
            lines.append("shard transport: socket (forked workers on socketpairs)")
        if self.remote_shards:
            local = self.workers - len(self.remote_shards)
            lines.append(
                f"remote shards: {local}..{self.workers - 1} over TCP "
                f"({', '.join(self.remote_shards)})"
            )
        lines.append(
            f"chunk_size: {self.chunk_size}, queue_capacity: {self._queue_capacity}"
        )
        return "\n".join(lines)
