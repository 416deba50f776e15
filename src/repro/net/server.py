"""`StreamServer`: the query stack served over TCP.

The server wraps one :class:`~repro.service.QuerySession` and exposes
the whole service surface — stream declaration, CQL registration,
tuple ingest, result subscription, statistics/explain — through the
framed protocol of :mod:`repro.net.protocol`.  The paper's setting
(receptor streams arriving from distributed RFID readers and radar
sites) maps onto it directly: receptors run
:class:`~repro.net.client.StreamClient` ingest loops, monitoring
dashboards hold subscriptions, and the coordinator process hosts the
session.

**Concurrency model.**  One asyncio event loop owns the session; every
request handler runs on that loop, so session calls never race and the
engine needs no locks.  Ingest batches execute synchronously inside
their handler — the same single-writer discipline the sharded
coordinator uses — and fan results out to subscribers before the next
frame is read.

**Subscriptions.**  A ``SUBSCRIBE`` frame turns its connection into a
server-push stream: results of the named query are buffered per
subscriber (bounded at ``subscriber_buffer`` tuples) and shipped as
``RESULT`` frames carrying encoded tuple batches.  A consumer that
cannot keep up trips the ``slow_consumer`` policy:

* ``"drop-oldest"`` (default) — the oldest buffered results are
  discarded; every ``RESULT`` frame carries the cumulative ``dropped``
  count so the consumer can see the gap;
* ``"disconnect"`` — the subscriber gets an ``ERROR`` frame
  (``SlowConsumerError``) and its connection is closed, protecting the
  server's memory at the price of the subscription.

Use :func:`serve_in_thread` to host a server next to synchronous code
(tests, notebooks, the benchmark harness).
"""

from __future__ import annotations

import asyncio
import hmac
import itertools
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.service import QuerySession
from repro.streams.batch import TupleBatch
from repro.streams.serialization import decode_batch, encode_batch_wire
from repro.streams.tuples import StreamTuple

from . import protocol
from .errors import AuthError, ConnectionClosed, ProtocolError, SlowConsumerError
from .framing import DEFAULT_MAX_PAYLOAD, encode_frame, read_frame_async

__all__ = ["StreamServer", "ServerHandle", "serve_in_thread"]

_SLOW_CONSUMER_POLICIES = ("drop-oldest", "disconnect")

#: Distinguishes the registry instruments of several servers in one
#: process (tests routinely host more than one).
_server_scopes = itertools.count(1)


class _Subscriber:
    """One subscription: a bounded result buffer plus its writer task."""

    _ids = itertools.count(1)

    def __init__(
        self,
        query: str,
        writer: asyncio.StreamWriter,
        buffer_limit: int,
        policy: str,
    ):
        self.query = query
        self.writer = writer
        self.buffer_limit = buffer_limit
        self.policy = policy
        #: Buffered ``(seq, result)`` pairs; seqs are the query's global
        #: result numbering (1-based emission order), so a reconnecting
        #: consumer can hand its last seen seq to ``SUBSCRIBE RESUME``.
        self.pending: Deque[Tuple[int, StreamTuple]] = deque()
        #: Cumulative drop count, reported on every RESULT frame.  The
        #: registry counter is the storage; this subscriber's id keeps
        #: it distinct from other subscribers of the same query.
        self._dropped = obs.get_registry().counter(
            "repro_subscriber_dropped_total",
            query=query,
            subscriber=str(next(self._ids)),
        )
        self.seq = 0  # query-level seq of the last result shipped
        self.enqueued_seq = 0  # query-level seq of the last result buffered
        self.failed: Optional[str] = None
        self.ended = False  # the query was dropped: send END and close
        self.wakeup = asyncio.Event()
        self.task: Optional[asyncio.Task] = None

    @property
    def dropped(self) -> int:
        return int(self._dropped.value)

    def on_result(self, item: StreamTuple, seq: int = 0) -> None:
        """Session listener; runs synchronously during a push on the loop."""
        if self.failed is not None:
            return
        if seq <= self.enqueued_seq:
            # No replay log backs this query (or the caller passed no
            # seq): synthesize a subscriber-local monotonic numbering.
            seq = self.enqueued_seq + 1
        self.enqueued_seq = seq
        self.pending.append((seq, item))
        if len(self.pending) > self.buffer_limit:
            if self.policy == "drop-oldest":
                while len(self.pending) > self.buffer_limit:
                    self.pending.popleft()
                    self._dropped.inc()
            else:  # disconnect
                self.pending.clear()
                self.failed = (
                    f"subscriber to {self.query!r} fell more than "
                    f"{self.buffer_limit} results behind"
                )
        self.wakeup.set()

    async def pump(self) -> None:
        """Ship buffered results as RESULT frames until closed or failed."""
        try:
            while True:
                await self.wakeup.wait()
                self.wakeup.clear()
                if self.failed is not None:
                    self.writer.write(
                        protocol.error_frame(SlowConsumerError(self.failed))
                    )
                    await self.writer.drain()
                    self.writer.close()
                    return
                while self.pending:
                    rows = list(self.pending)
                    self.pending.clear()
                    self.seq = rows[-1][0]
                    frame = encode_frame(
                        protocol.RESULT,
                        {
                            "query": self.query,
                            "seq": self.seq,
                            "first_seq": rows[0][0],
                            "count": len(rows),
                            "dropped": self.dropped,
                        },
                        encode_batch_wire(TupleBatch([item for _, item in rows])),
                    )
                    self.writer.write(frame)
                    await self.writer.drain()
                    if self.failed is not None:
                        break
                if self.ended:
                    # Results delivered before the drop have shipped;
                    # close the push stream cleanly, reporting the seq
                    # of the final delivered result.
                    self.writer.write(
                        encode_frame(
                            protocol.END, {"query": self.query, "seq": self.seq}
                        )
                    )
                    await self.writer.drain()
                    self.writer.close()
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass  # the reader side notices and cleans up


class StreamServer:
    """Serve a :class:`~repro.service.QuerySession` over TCP (see module docs).

    Parameters
    ----------
    session:
        The session to expose; created fresh when ``None``.  The server
        becomes the session's only driver — do not push into it from
        other threads while serving.
    host / port:
        Bind address; port ``0`` picks a free port (see :attr:`address`
        after :meth:`start`).
    subscriber_buffer:
        Per-subscriber bound on buffered result tuples.
    slow_consumer:
        ``"drop-oldest"`` or ``"disconnect"`` (see module docs).
    max_payload:
        Largest accepted frame payload in bytes.
    auth_token:
        Optional shared secret.  When set, every connection must open
        with a ``HELLO`` carrying a matching ``token`` field before any
        other verb; the comparison is constant-time, and a missing or
        wrong token is answered with an ``AuthError`` error frame after
        which the connection is closed.
    """

    def __init__(
        self,
        session: Optional[QuerySession] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        subscriber_buffer: int = 4096,
        slow_consumer: str = "drop-oldest",
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        auth_token: Optional[str] = None,
    ):
        if slow_consumer not in _SLOW_CONSUMER_POLICIES:
            raise ValueError(
                f"unknown slow-consumer policy {slow_consumer!r}; "
                f"use one of {_SLOW_CONSUMER_POLICIES}"
            )
        if subscriber_buffer < 1:
            raise ValueError(f"subscriber_buffer must be at least 1, got {subscriber_buffer}")
        self.session = session if session is not None else QuerySession()
        self._host = host
        self._port = port
        self._subscriber_buffer = subscriber_buffer
        self._slow_consumer = slow_consumer
        self._max_payload = max_payload
        self._auth_token = auth_token
        self._server: Optional[asyncio.AbstractServer] = None
        self._subscribers: List[_Subscriber] = []
        self.address: Optional[str] = None
        #: Counters served alongside session statistics; stored in the
        #: metrics registry (the attributes below are views) so the
        #: METRICS verb and the STATS header read the same cells.
        self.obs_scope = f"server-{next(_server_scopes)}"
        registry = obs.get_registry()
        self._frames_in = registry.counter(
            "repro_server_frames_total", server=self.obs_scope
        )
        self._tuples_ingested = registry.counter(
            "repro_server_tuples_ingested_total", server=self.obs_scope
        )

    @property
    def frames_in(self) -> int:
        return int(self._frames_in.value)

    @property
    def tuples_ingested(self) -> int:
        return int(self._tuples_ingested.value)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> StreamServer:
        """Bind and start accepting connections; sets :attr:`address`."""
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )
        sock_host, sock_port = self._server.sockets[0].getsockname()[:2]
        self.address = f"{sock_host}:{sock_port}"
        return self

    async def serve_forever(self) -> None:
        """:meth:`start` (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drop subscribers, close the session's runtime."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Sever subscribers BEFORE wait_closed(): on Python >= 3.12
        # wait_closed() waits for every connection handler, and a
        # subscription handler blocks reading until its socket dies.
        for subscriber in list(self._subscribers):
            self._detach(subscriber)
            if subscriber.task is not None:
                subscriber.task.cancel()
            if subscriber.writer is not None:
                subscriber.writer.close()
        if server is not None:
            await server.wait_closed()
        self.session.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        subscriber: Optional[_Subscriber] = None
        # Per-connection ingest state for batched ACKs: tuples ingested
        # since the last ACK this connection received.
        state = {"unacked": 0, "authed": self._auth_token is None}
        try:
            while True:
                try:
                    kind, header, payload = await read_frame_async(reader, self._max_payload)
                except ConnectionClosed:
                    return
                self._frames_in.inc()
                if kind == protocol.BYE:
                    writer.write(encode_frame(protocol.OK))
                    await writer.drain()
                    return
                if not state["authed"]:
                    supplied = header.get("token") if kind == protocol.HELLO else None
                    if supplied is None or not hmac.compare_digest(
                        str(supplied).encode("utf-8"),
                        str(self._auth_token).encode("utf-8"),
                    ):
                        writer.write(
                            protocol.error_frame(
                                AuthError(
                                    "this server requires a token; open with "
                                    "HELLO carrying the shared secret"
                                )
                            )
                        )
                        await writer.drain()
                        return
                    state["authed"] = True
                if subscriber is not None:
                    # A subscription connection is push-only after SUBSCRIBE.
                    raise ProtocolError(
                        f"unexpected {protocol.kind_name(kind)} on a subscription "
                        "connection (only BYE is accepted)"
                    )
                try:
                    reply = self._handle(kind, header, payload, writer, state)
                except ProtocolError:
                    raise
                except Exception as exc:  # the request failed server-side
                    # Carry the request's seq (if any) so a pipelining
                    # client can tell which frame failed, and forget the
                    # batched-ack debt — the client resynchronizes.
                    error_header = {"code": type(exc).__name__, "message": str(exc)}
                    if "seq" in header:
                        error_header["seq"] = header["seq"]
                    state["unacked"] = 0
                    writer.write(encode_frame(protocol.ERROR, error_header))
                    await writer.drain()
                    continue
                if isinstance(reply, _Subscriber):
                    subscriber = reply
                    writer.write(
                        encode_frame(
                            protocol.OK,
                            {"query": subscriber.query, "seq": subscriber.seq},
                        )
                    )
                elif reply is None:
                    # An unacked ingest frame: nothing to write back.
                    continue
                else:
                    writer.write(reply)
                await writer.drain()
        except ProtocolError as exc:
            try:
                writer.write(protocol.error_frame(exc))
                await writer.drain()
            except ConnectionError:
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if subscriber is not None:
                self._detach(subscriber)
                if subscriber.task is not None:
                    subscriber.task.cancel()
            writer.close()

    def _handle(self, kind, header, payload, writer, state):
        """Dispatch one request.

        Returns a reply frame, a `_Subscriber` (the connection becomes
        a push stream) or ``None`` (an ingest frame that asked not to
        be acknowledged individually).
        """
        session = self.session
        if kind == protocol.HELLO:
            return encode_frame(
                protocol.OK,
                {
                    "server": "repro.net",
                    "streams": session.streams,
                    "queries": session.queries,
                },
            )
        if kind == protocol.DECLARE:
            uncertain = header.get("uncertain")
            if isinstance(uncertain, dict):
                uncertain = {
                    name: tuple(stat) if stat is not None else None
                    for name, stat in uncertain.items()
                }
            session.create_stream(
                header["name"],
                values=header.get("values"),
                uncertain=uncertain,
                family=header.get("family"),
                rate_hint=header.get("rate_hint"),
            )
            return encode_frame(protocol.OK)
        if kind == protocol.REGISTER:
            # Analyze once, before registering: warnings ride back in
            # the OK header either way; strict registrations refuse on
            # errors (AnalysisError propagates as a normal request error).
            diagnostics = session.analyze(header["cql"])
            if header.get("strict"):
                from repro.analysis import AnalysisError, errors

                found = errors(diagnostics)
                if found:
                    raise AnalysisError(found)
            registered = session.register(header["name"], header["cql"])
            reply = {"sharded": registered.sharded}
            if diagnostics:
                reply["warnings"] = [d.render() for d in diagnostics]
            return encode_frame(protocol.OK, reply)
        if kind == protocol.DROP:
            session.drop(header["name"])
            # Subscribers of a dropped query get a clean END instead of
            # blocking on a connection that will never push again.
            for subscriber in list(self._subscribers):
                if subscriber.query == header["name"]:
                    subscriber.ended = True
                    subscriber.wakeup.set()
                    self._subscribers.remove(subscriber)
            return encode_frame(protocol.OK)
        if kind == protocol.PAUSE:
            session.pause(header["name"])
            return encode_frame(protocol.OK)
        if kind == protocol.RESUME:
            session.resume(header["name"])
            return encode_frame(protocol.OK)
        if kind == protocol.INGEST:
            rows = decode_batch(payload).to_tuples()
            # Stamp the chunk at receipt: the trace context (id from the
            # client header when it sent one, minted otherwise) rides
            # through the engine — and across shard processes — so sinks
            # can account ingest→delivery latency against this moment.
            ctx = obs.new_trace(trace_id=header.get("trace"))
            if obs.sampled_trace(ctx):
                ingest_id = f"t{ctx.trace_id:x}/ingest"
                t0 = obs.trace_clock()
                previous_parent = obs.activate_parent(ingest_id)
                try:
                    session.push_many(header["source"], rows, trace=ctx)
                finally:
                    obs.activate_parent(previous_parent)
                obs.record_span(
                    "net.ingest", "net", ctx.trace_id, t0, obs.trace_clock(),
                    span_id=ingest_id,
                )
            else:
                session.push_many(header["source"], rows, trace=ctx)
            self._tuples_ingested.inc(len(rows))
            state["unacked"] += len(rows)
            # Batched ACKs: a client that pipelines aggressively marks
            # most frames ``ack: false`` and only samples the stream at
            # a stride; each ACK then covers every unacknowledged tuple
            # before it.  Omitting the field means one ACK per frame —
            # the original protocol — so old clients are unaffected.
            if not header.get("ack", True):
                return None
            count = state["unacked"]
            state["unacked"] = 0
            return encode_frame(
                protocol.ACK, {"seq": header.get("seq", 0), "count": count}
            )
        if kind == protocol.FLUSH:
            session.flush()
            return encode_frame(protocol.OK)
        if kind == protocol.STATS:
            reports = session.statistics(header.get("query"))
            rows = [
                {
                    "name": report.stats.name,
                    "tuples_in": report.stats.tuples_in,
                    "tuples_out": report.stats.tuples_out,
                    "batches_in": report.stats.batches_in,
                    "seconds": report.stats.seconds,
                    "owners": list(report.owners),
                }
                for report in reports
            ]
            return encode_frame(
                protocol.OK,
                {
                    "stats": rows,
                    "frames_in": self.frames_in,
                    "tuples_ingested": self.tuples_ingested,
                },
            )
        if kind == protocol.EXPLAIN:
            return encode_frame(
                protocol.OK, {"text": session.explain(header.get("query"))}
            )
        if kind == protocol.METRICS:
            reply = {"metrics": obs.get_registry().snapshot()}
            query = header.get("query")
            if query:
                reply["observed"] = session.observed_stats(query)
                reply["stages"] = session.stage_timings(query)
            else:
                reply["stages"] = session.stage_timings()
            return encode_frame(protocol.OK, reply)
        if kind == protocol.TRACE:
            # Span export: drain (default) or peek the coordinator-side
            # buffer, which already holds the worker spans shipped back
            # in results replies.
            buffer = obs.local_spans()
            spans = buffer.snapshot() if header.get("keep") else buffer.drain()
            limit = header.get("limit")
            if limit:
                spans = spans[-int(limit):]
            return encode_frame(
                protocol.OK,
                {"spans": spans, "sample": obs.get_trace_sample()},
            )
        if kind == protocol.HEALTH:
            # Self-driving: evaluating health records a history tick, so
            # a client polling HEALTH feeds the ring it is judged by.
            session.health_tick()
            return encode_frame(
                protocol.OK,
                {"health": session.health.status(), "ticks": len(session.history)},
            )
        if kind == protocol.CHECKPOINT:
            info = session.checkpoint(header["dir"], mode=header.get("mode", "auto"))
            return encode_frame(
                protocol.OK,
                {"checkpoint": info.checkpoint_id, "mode": info.mode, "path": info.path},
            )
        if kind == protocol.SUBSCRIBE:
            return self._subscribe(header["query"], writer, header.get("resume"))
        raise ProtocolError(f"unknown request kind {protocol.kind_name(kind)}")

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def _subscribe(
        self,
        query: str,
        writer: asyncio.StreamWriter,
        resume: Optional[int] = None,
    ) -> _Subscriber:
        if query not in self.session.queries:
            known = ", ".join(self.session.queries) or "none"
            raise KeyError(f"no query named {query!r} is registered (registered: {known})")
        # Resolve the replay *before* attaching anything: a gap error
        # must leave no half-registered subscriber behind.  No pushes
        # can interleave between here and add_listener — both run on
        # the session's event loop — so the preload is gap-free.
        preload: List[Tuple[int, StreamTuple]] = []
        if resume is not None:
            preload = self.session.replay_from(query, int(resume))
        subscriber = _Subscriber(
            query, writer, self._subscriber_buffer, self._slow_consumer
        )
        if resume is not None:
            subscriber.seq = int(resume)
            subscriber.enqueued_seq = int(resume)
            for seq, item in preload:
                subscriber.pending.append((seq, item))
                subscriber.enqueued_seq = seq
            if subscriber.pending:
                subscriber.wakeup.set()
        else:
            attach_seq = self.session.last_result_seq(query)
            subscriber.seq = attach_seq
            subscriber.enqueued_seq = attach_seq

        def listener(item: StreamTuple) -> None:
            # The sink appends to its replay log before calling
            # listeners, so last_result_seq is this item's seq.
            subscriber.on_result(item, self.session.last_result_seq(query))

        subscriber.listener = listener
        self.session.add_listener(query, listener)
        subscriber.task = asyncio.ensure_future(subscriber.pump())
        self._subscribers.append(subscriber)
        return subscriber

    def _detach(self, subscriber: _Subscriber) -> None:
        listener = getattr(subscriber, "listener", subscriber.on_result)
        self.session.remove_listener(subscriber.query, listener)
        if subscriber in self._subscribers:
            self._subscribers.remove(subscriber)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)


# ----------------------------------------------------------------------
# Thread-hosted server (sync integration)
# ----------------------------------------------------------------------
class ServerHandle:
    """A :class:`StreamServer` running on a background event-loop thread."""

    def __init__(self, server: StreamServer, loop: asyncio.AbstractEventLoop, thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> str:
        assert self.server.address is not None
        return self.server.address

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join its thread (idempotent)."""
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        try:
            future.result(timeout=timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> ServerHandle:
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    session: Optional[QuerySession] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    **server_kwargs,
) -> ServerHandle:
    """Start a :class:`StreamServer` on a daemon thread and return its handle.

    The server (and the session it wraps) live entirely on the thread's
    event loop; interact with them through clients, not directly.
    """
    startup: Dict[str, object] = {}
    started = threading.Event()

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = StreamServer(session, host=host, port=port, **server_kwargs)
        try:
            loop.run_until_complete(server.start())
        except Exception as exc:  # bind failure, bad arguments
            startup["error"] = exc
            started.set()
            loop.close()
            return
        startup["server"] = server
        startup["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=run, name="repro-net-server", daemon=True)
    thread.start()
    started.wait(timeout=30.0)
    if "error" in startup:
        raise startup["error"]  # type: ignore[misc]
    if "server" not in startup:
        raise RuntimeError("the server thread did not start in time")
    return ServerHandle(startup["server"], startup["loop"], thread)  # type: ignore[arg-type]
