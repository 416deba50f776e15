"""The wire-protocol client for :class:`~repro.net.server.StreamServer`.

:class:`StreamClient` is a blocking-socket client for scripts, receptor
ingest loops and tests.  Every verb is one method, and every blocking
read honours the client's ``timeout``.  :meth:`StreamClient.ingest` is
*pipelined*: it keeps up to a window of encoded batches in flight
before reading the matching acks, so a single connection sustains high
tuple rates despite round-trip latency.

Subscriptions use a **dedicated connection** per query
(:meth:`StreamClient.subscribe`): after the subscribe handshake the
server owns the connection and pushes ``RESULT`` frames, which keeps
the client free of frame demultiplexing.  A :class:`Subscription`
iterates result batches (lists of
:class:`~repro.streams.tuples.StreamTuple`) and raises
:class:`~repro.net.errors.SlowConsumerError` if the server applied its
disconnect policy.

Callers on an asyncio event loop run the same client in a worker
thread, one blocking call per ``asyncio.to_thread``::

    client = await asyncio.to_thread(StreamClient, "127.0.0.1:9201")
    acked = await asyncio.to_thread(client.ingest, "rfid", tuples)
    batch = await asyncio.to_thread(subscription.recv)
"""

from __future__ import annotations

import socket
import time
from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs
from repro.recovery.replay import ReplayGapError
from repro.streams.batch import TupleBatch
from repro.streams.serialization import decode_batch, encode_batch_wire
from repro.streams.tuples import StreamTuple

from . import protocol
from .errors import (
    AuthError,
    ConnectionClosed,
    NetError,
    ProtocolError,
    RemoteError,
    SlowConsumerError,
)
from .framing import DEFAULT_MAX_PAYLOAD, BufferedFrameSocket, send_frame

__all__ = ["StreamClient", "Subscription"]

#: Default tuples per INGEST frame.
DEFAULT_INGEST_BATCH = 512
#: Default unacked frames allowed in flight while ingesting.
DEFAULT_ACK_WINDOW = 32


def _ack_stride(window: int) -> int:
    """Frames between ack requests: sample the window, don't saturate it.

    With one ACK per frame, large batches make the ack stream itself
    the bottleneck — the server alternates between ingesting and
    writing acks, and the client between sending and reading them.
    Requesting an ack every ``window // 4`` frames keeps at least four
    flow-control samples inside every window (so backpressure still
    engages well before the window closes) while cutting the reply
    traffic by the same factor.
    """
    return max(1, window // 4)


def _raise_error(header: Dict[str, Any]) -> None:
    """Map a server ERROR frame to the most specific client exception."""
    code = header.get("code", "Error")
    message = header.get("message", "")
    if code == "SlowConsumerError":
        raise SlowConsumerError(message)
    if code == "AuthError":
        raise AuthError(message)
    if code == "ReplayGapError":
        raise ReplayGapError.from_message(message)
    raise RemoteError(code, message)


def _check_reply(kind: int, header: Dict[str, Any], expected: int) -> Dict[str, Any]:
    if kind == protocol.ERROR:
        _raise_error(header)
    if kind != expected:
        raise ProtocolError(
            f"expected a {protocol.kind_name(expected)} reply, "
            f"got {protocol.kind_name(kind)}"
        )
    return header


def _hello_header(token: Optional[str]) -> Dict[str, Any]:
    header: Dict[str, Any] = {"client": "repro.net"}
    if token is not None:
        header["token"] = token
    return header


def _open(
    address: Tuple[str, int],
    timeout: float,
    max_payload: int,
    token: Optional[str],
) -> Tuple[socket.socket, BufferedFrameSocket]:
    """Connect to a server; with a ``token``, authenticate with an eager HELLO."""
    sock = socket.create_connection(address, timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Buffered reads: a timed-out read keeps its partial frame and
        # can be retried without desynchronizing the stream.
        frames = BufferedFrameSocket(sock, max_payload)
        if token is not None:
            send_frame(sock, protocol.HELLO, _hello_header(token))
            kind, header, _ = frames.recv_frame(timeout)
            _check_reply(kind, header, protocol.OK)
    except BaseException:
        sock.close()
        raise
    return sock, frames


def _chunks(tuples: Iterable[StreamTuple], size: int) -> Iterator[List[StreamTuple]]:
    chunk: List[StreamTuple] = []
    for item in tuples:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


class StreamClient:
    """Synchronous client for a running :class:`~repro.net.server.StreamServer`.

    Parameters
    ----------
    address:
        ``"host:port"`` or a ``(host, port)`` pair.
    timeout:
        Socket timeout for every blocking operation, in seconds.
    token:
        Shared secret for servers started with ``auth_token=...``; the
        client authenticates the connection with an eager ``HELLO``
        before any other verb.
    """

    def __init__(
        self,
        address,
        timeout: float = 30.0,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        token: Optional[str] = None,
    ):
        self._address = protocol.parse_address(address)
        self._timeout = timeout
        self._max_payload = max_payload
        self._token = token
        self._sock, self._frames = _open(self._address, timeout, max_payload, token)
        self._closed = False
        #: Rendered analyzer diagnostics from the most recent register().
        self.last_register_warnings: list = []
        #: Send→ACK round-trip seconds of every ack-requesting frame in
        #: the most recent ingest() call (ingest→ACK latency samples).
        self.last_ingest_ack_latencies: List[float] = []

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _request(
        self,
        kind: int,
        header: Optional[Dict[str, Any]] = None,
        payload: bytes = b"",
        expected: int = protocol.OK,
    ) -> Tuple[Dict[str, Any], bytes]:
        send_frame(self._sock, kind, header, payload)
        reply_kind, reply_header, reply_payload = self._frames.recv_frame(self._timeout)
        return _check_reply(reply_kind, reply_header, expected), reply_payload

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def hello(self) -> Dict[str, Any]:
        """Server info: known streams and registered queries."""
        header, _ = self._request(protocol.HELLO, _hello_header(self._token))
        return header

    def declare_stream(
        self,
        name: str,
        values: Optional[Iterable[str]] = None,
        uncertain=None,
        family: Optional[str] = None,
        rate_hint: Optional[float] = None,
    ) -> None:
        """Declare a named input stream (see ``QuerySession.create_stream``)."""
        self._request(
            protocol.DECLARE,
            {
                "name": name,
                "values": list(values) if values is not None else None,
                "uncertain": _jsonable_uncertain(uncertain),
                "family": family,
                "rate_hint": rate_hint,
            },
        )

    def register(self, name: str, cql: str, strict: bool = False) -> bool:
        """Register a CQL query; returns True when it runs sharded.

        ``strict=True`` asks the server to refuse queries with semantic
        errors (typo'd columns, broken windows, ...).  Any analyzer
        findings the server reports are kept in
        :attr:`last_register_warnings` after the call.
        """
        request = {"name": name, "cql": cql}
        if strict:
            request["strict"] = True
        header, _ = self._request(protocol.REGISTER, request)
        self.last_register_warnings = list(header.get("warnings", ()))
        return bool(header.get("sharded", False))

    def drop(self, name: str) -> None:
        self._request(protocol.DROP, {"name": name})

    def pause(self, name: str) -> None:
        self._request(protocol.PAUSE, {"name": name})

    def resume(self, name: str) -> None:
        self._request(protocol.RESUME, {"name": name})

    def ingest(
        self,
        source: str,
        tuples: Iterable[StreamTuple],
        batch_size: int = DEFAULT_INGEST_BATCH,
        window: int = DEFAULT_ACK_WINDOW,
        trace: Optional[int] = None,
    ) -> int:
        """Ship tuples into a named stream; returns the acked tuple count.

        Tuples are chunked into batches of ``batch_size``, encoded with
        the columnar wire codec, and pipelined: up to ``window`` frames
        ride unacknowledged before the sender blocks.  ACKs are
        *batched* — only every :func:`_ack_stride`-th frame (and always
        the last one) requests an acknowledgement, and each ACK's
        ``count`` covers every unacknowledged tuple before it — so
        large batches no longer stall on a reply per frame.  ACKs
        arrive strictly in send order, so a missing ack still pins the
        lost span.

        ``trace`` is an optional caller-chosen trace id the server
        stamps on every chunk of this call (minted server-side when
        omitted); the send→ACK round trip of each ack-requesting frame
        lands in :attr:`last_ingest_ack_latencies` either way.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        stride = _ack_stride(window)
        in_flight: deque = deque()  # (seq, covered frames, send instant)
        self.last_ingest_ack_latencies = []
        acked = 0
        seq = 0
        outstanding = 0  # frames sent and not yet covered by an ack
        uncovered = 0  # frames since the last ack-requesting frame
        try:
            chunks = _chunks(tuples, batch_size)
            chunk = next(chunks, None)
            while chunk is not None:
                upcoming = next(chunks, None)
                seq += 1
                want_ack = upcoming is None or seq % stride == 0
                ingest_header = {
                    "source": source,
                    "seq": seq,
                    "count": len(chunk),
                    "ack": want_ack,
                }
                if trace is not None:
                    ingest_header["trace"] = int(trace)
                send_frame(
                    self._sock,
                    protocol.INGEST,
                    ingest_header,
                    encode_batch_wire(TupleBatch(chunk)),
                )
                outstanding += 1
                uncovered += 1
                if want_ack:
                    in_flight.append((seq, uncovered, time.perf_counter()))
                    uncovered = 0
                while outstanding >= window and in_flight:
                    count, covered = self._read_ack(in_flight)
                    acked += count
                    outstanding -= covered
                chunk = upcoming
            while in_flight:
                count, covered = self._read_ack(in_flight)
                acked += count
                outstanding -= covered
        except RemoteError:
            # With batched acks, unacked frames get no reply at all —
            # counting replies cannot realign the connection.  Instead
            # raise a barrier: send HELLO and discard replies until its
            # answer (the only reply without a ``seq``) arrives, leaving
            # the connection request-aligned for callers that catch the
            # error and keep using it.
            self._resync()
            raise
        return acked

    def _read_ack(self, in_flight: deque) -> Tuple[int, int]:
        kind, header, _ = self._frames.recv_frame(self._timeout)
        header = _check_reply(kind, header, protocol.ACK)
        expected_seq, covered, sent_at = in_flight.popleft()
        latency = time.perf_counter() - sent_at
        if header.get("seq") != expected_seq:
            raise ProtocolError(
                f"ingest ack out of order: expected seq {expected_seq}, "
                f"got {header.get('seq')}"
            )
        self.last_ingest_ack_latencies.append(latency)
        obs.get_registry().histogram("repro_ingest_ack_latency_seconds").observe(latency)
        return int(header.get("count", 0)), covered

    def _resync(self) -> None:
        """Realign after a mid-pipeline error (see ``ingest``)."""
        try:
            send_frame(self._sock, protocol.HELLO, _hello_header(self._token))
            while True:
                _, header, _ = self._frames.recv_frame(self._timeout)
                if "seq" not in header:
                    return  # the HELLO reply: everything before it drained
        except (NetError, OSError, TimeoutError):
            pass  # connection is actually gone; nothing to resync

    def flush(self) -> None:
        """Close out partial windows server-side (``QuerySession.flush``)."""
        self._request(protocol.FLUSH)

    def statistics(self, query: Optional[str] = None) -> Dict[str, Any]:
        """Per-box statistics rows plus server frame/tuple counters."""
        header, _ = self._request(protocol.STATS, {"query": query})
        return header

    def explain(self, query: Optional[str] = None) -> str:
        header, _ = self._request(protocol.EXPLAIN, {"query": query})
        return str(header.get("text", ""))

    def metrics(self, query: Optional[str] = None) -> Dict[str, Any]:
        """The server's metrics-registry snapshot (see :mod:`repro.obs`).

        Returns the ``METRICS`` reply header: ``"metrics"`` holds the
        registry snapshot; with ``query`` set, ``"observed"`` adds that
        query's latency/operator report
        (``QuerySession.observed_stats``).
        """
        header, _ = self._request(protocol.METRICS, {"query": query})
        return header

    def trace(self, limit: Optional[int] = None, keep: bool = False) -> Dict[str, Any]:
        """Drain the server's span buffer (flight-recorder export).

        Returns the ``TRACE`` reply header: ``"spans"`` is the list of
        span dicts (feed it to
        :func:`repro.obs.export_chrome_trace`), ``"sample"`` the
        server's sampling denominator.  ``keep=True`` peeks without
        draining; ``limit`` returns only the newest N spans.
        """
        header, _ = self._request(protocol.TRACE, {"limit": limit, "keep": keep})
        return header

    def health(self) -> Dict[str, Any]:
        """Evaluate and fetch the server's health-rule status.

        Each call records a history tick server-side, so a poller at
        ~1 Hz both feeds the time-series ring and reads the verdicts:
        ``"health"`` holds ``firing``/``pending`` name lists plus a
        per-rule description, ``"ticks"`` the ring's fill level.
        """
        header, _ = self._request(protocol.HEALTH)
        return header

    def checkpoint(self, directory: str, mode: str = "auto") -> int:
        """Write a durable server-side checkpoint; returns its id.

        ``directory`` is a path on the *server's* filesystem; ``mode``
        is ``"auto"``, ``"full"`` or ``"delta"`` (see
        ``QuerySession.checkpoint``).
        """
        header, _ = self._request(protocol.CHECKPOINT, {"dir": directory, "mode": mode})
        return int(header.get("checkpoint", 0))

    def subscribe(
        self,
        query: str,
        timeout: Optional[float] = None,
        resume_from: Optional[int] = None,
    ) -> Subscription:
        """Open a dedicated server-push connection for a query's results.

        ``resume_from`` is the last result seq this consumer has seen
        (``Subscription.last_seq`` of a previous subscription): the
        server first replays every result after it, then continues
        live.  Raises :class:`~repro.recovery.ReplayGapError` when the
        server's bounded replay log has already trimmed past that
        position.
        """
        return Subscription(
            self._address,
            query,
            timeout=self._timeout if timeout is None else timeout,
            max_payload=self._max_payload,
            token=self._token,
            resume_from=resume_from,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._request(protocol.BYE)
        except (OSError, ProtocolError, ConnectionClosed, RemoteError, TimeoutError):
            pass  # closing anyway
        finally:
            self._sock.close()

    def __enter__(self) -> StreamClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Subscription:
    """A server-push result stream for one query (dedicated connection).

    Iterating yields one list of :class:`StreamTuple` per ``RESULT``
    frame; iteration ends when the connection closes.  :attr:`dropped`
    tracks the cumulative results the server discarded for this
    subscriber under the drop-oldest policy.  :attr:`last_seq` is the
    query-level seq of the newest result received — hand it to
    ``subscribe(..., resume_from=last_seq)`` after a disconnect to
    resume without gaps or duplicates.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        query: str,
        timeout: float = 30.0,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        token: Optional[str] = None,
        resume_from: Optional[int] = None,
    ):
        self.query = query
        self.dropped = 0
        self.last_seq = 0
        self._default_timeout = timeout
        self._sock, self._frames = _open(address, timeout, max_payload, token)
        self._closed = False
        subscribe_header: Dict[str, Any] = {"query": query}
        if resume_from is not None:
            subscribe_header["resume"] = int(resume_from)
        try:
            send_frame(self._sock, protocol.SUBSCRIBE, subscribe_header)
            kind, header, _ = self._frames.recv_frame(timeout)
            _check_reply(kind, header, protocol.OK)
        except BaseException:
            self.close()
            raise
        self.last_seq = int(header.get("seq", 0))

    def recv(self, timeout: Optional[float] = None) -> List[StreamTuple]:
        """Block for the next result batch; raises on close or slow-consumer."""
        if self._closed:
            raise ConnectionClosed("this subscription is closed")
        # The per-call timeout never sticks: the buffered reader sets it
        # per read, and a timed-out read keeps its partial frame.
        kind, header, payload = self._frames.recv_frame(
            self._default_timeout if timeout is None else timeout
        )
        if kind == protocol.END:
            self.last_seq = int(header.get("seq", self.last_seq))
            self.close()
            raise ConnectionClosed(f"query {self.query!r} was dropped on the server")
        if kind == protocol.ERROR:
            self.close()
            _raise_error(header)
        if kind != protocol.RESULT:
            raise ProtocolError(
                f"expected a RESULT frame, got {protocol.kind_name(kind)}"
            )
        self.dropped = int(header.get("dropped", 0))
        self.last_seq = int(header.get("seq", self.last_seq))
        return decode_batch(payload).to_tuples()

    def take(self, count: int, timeout: float = 30.0) -> List[StreamTuple]:
        """Collect result tuples until ``count`` arrived (or raise on timeout)."""
        collected: List[StreamTuple] = []
        while len(collected) < count:
            collected.extend(self.recv(timeout=timeout))
        return collected

    def __iter__(self) -> Iterator[List[StreamTuple]]:
        while True:
            try:
                yield self.recv()
            except ConnectionClosed:
                return

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()

    def __enter__(self) -> Subscription:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _jsonable_uncertain(uncertain):
    """Normalize the ``uncertain`` declaration for the JSON header."""
    if uncertain is None:
        return None
    if isinstance(uncertain, dict):
        return {
            name: (list(stat) if stat is not None else None)
            for name, stat in uncertain.items()
        }
    return list(uncertain)
