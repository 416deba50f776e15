"""Coordinator-side shard channels.

The sharded runtime's coordinator speaks one message protocol to its
shards (:mod:`repro.runtime.worker`) through *channels* of one shape:

``send(frame, on_stall)``
    ship one encoded request frame, blocking while the socket buffer is
    full; ``on_stall()`` runs once per pass that could not make
    progress;
``poll(timeout, decode)``
    decode every reply that has arrived (waiting up to ``timeout`` for
    the first) and return ``[decode(message), ...]``;
``transport`` / ``send_backlog_bytes``
    the flow-control view :class:`~repro.runtime.ShardBackpressure`
    reports;
``alive``
    False once the shard is gone without having reported an error;
``close()``
    stop the shard and release the channel.

Two channels have this shape.  Every out-of-process shard is a
:class:`SocketShardChannel` over a connected stream socket: a forked
worker's end of a ``socket.socketpair()`` (:func:`fork_shards`) or a
TCP connection to a remote :class:`repro.net.shard.ShardServer`
(:meth:`SocketShardChannel.attach`).  Both peers run the same
:func:`~repro.runtime.worker.serve_shard` loop, so liveness has one
mechanism: socket EOF, plus the process handle of a forked worker.
The inline backend's in-process runner (:class:`InlineShardChannel`)
answers inside ``send``.

:class:`SocketShardChannel` is deliberately *non-blocking on both
directions*: sends go through an explicit backlog buffer pumped with
non-blocking writes, and receives parse whatever bytes have arrived
into complete frames.  The coordinator therefore keeps its
backpressure discipline — when a send cannot progress it drains
replies instead of deadlocking against a shard that is itself blocked
sending results back.

The :mod:`repro.net` imports are deferred to call time: the service
layer sits between :mod:`repro.runtime` and :mod:`repro.net` in the
import graph, and importing the net package at module load would close
that cycle.
"""

from __future__ import annotations

import gc
import multiprocessing
import select
import socket
import time
import weakref
from typing import Callable, List, Optional, Sequence, Tuple

from .worker import worker_main

__all__ = ["InlineShardChannel", "SocketShardChannel", "fork_shards"]

#: How long ``close()`` waits for a forked worker to exit before
#: terminating it.
_JOIN_TIMEOUT = 2.0

#: The coordinator-side socket of every channel in this process; each
#: forked worker closes all of them (see :func:`fork_shards`).  It is
#: process-wide because file descriptors are: a worker forked for one
#: engine inherits every other engine's sockets too, and a copy it kept
#: would hold that engine's connections open after their coordinator
#: closed them.
_coordinator_sockets: weakref.WeakSet = weakref.WeakSet()


class SocketShardChannel:
    """One out-of-process shard behind a connected stream socket (see module docs).

    The constructor wraps a socket that is already connected to a
    shard's :func:`~repro.runtime.worker.serve_shard` loop;
    :func:`fork_shards` and :meth:`attach` build the two kinds.
    ``peer`` names the other end in errors; ``process`` is a forked
    worker's handle, joined on :meth:`close`.
    """

    transport = "socket"

    def __init__(
        self,
        shard: int,
        sock: socket.socket,
        peer: str,
        process=None,
        max_payload: Optional[int] = None,
    ):
        from repro.net import framing, protocol  # deferred: import cycle

        self._protocol = protocol
        self.shard = shard
        self.sock = sock
        self.peer = peer
        self.process = process
        self._backlog = bytearray()
        self._reader = framing.FrameReader(max_payload or framing.DEFAULT_MAX_PAYLOAD)
        #: Set by ``poll`` once the peer closed and every reply it sent
        #: before closing has been handed out.
        self._gone = False
        self._eof = False
        #: Set when a write failed: the peer is gone, but ``alive``
        #: waits for ``poll`` to hand out what it said before going.
        self._broken = False
        sock.setblocking(False)
        _coordinator_sockets.add(sock)

    @classmethod
    def attach(
        cls,
        shard: int,
        address: str,
        max_payload: Optional[int] = None,
        connect_timeout: float = 10.0,
        plan_signature: Optional[List[str]] = None,
    ) -> SocketShardChannel:
        """Connect to a remote shard server and attach as shard ``shard``.

        The attach handshake runs synchronously: it announces the shard
        slot this runner fills and waits for the server's
        acknowledgement (or its error report), so a bad address or an
        incompatible shard server fails at engine construction, not
        first push.
        """
        from repro.net import framing, protocol  # deferred: import cycle

        max_payload = max_payload or framing.DEFAULT_MAX_PAYLOAD
        sock = socket.create_connection(
            protocol.parse_address(address), timeout=connect_timeout
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            framing.send_frame(
                sock,
                protocol.SHARD_ATTACH,
                {"shard": shard, "signature": plan_signature},
            )
            kind, header, payload = framing.recv_frame(sock, max_payload)
            if kind != protocol.OK:
                message = protocol.decode_worker_message(kind, header, payload)
                detail = message[2] if message[0] == "error" else repr(message)
                raise ConnectionError(
                    f"shard server {address} rejected the attach of shard {shard}:\n{detail}"
                )
        except BaseException:
            sock.close()
            raise
        return cls(shard, sock, f"remote shard server {address}", max_payload=max_payload)

    @property
    def alive(self) -> bool:
        """False once the peer is gone without an error report still to read.

        A forked worker that exited abnormally (killed, crashed) is gone
        at once; otherwise the peer is gone when ``poll`` has seen EOF
        after handing out every reply — a worker's own error report
        included — that arrived before it.
        """
        process = self.process
        if process is not None and not (process.is_alive() or process.exitcode == 0):
            return False
        return not self._gone

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, frame: bytes, on_stall: Optional[Callable[[], None]] = None) -> None:
        """Ship one frame, pumping the backlog until the socket takes it."""
        self._backlog.extend(frame)
        while not self._pump_send():
            if on_stall is not None:
                on_stall()
            if not self.alive or (self._broken and on_stall is None):
                raise ConnectionError(
                    f"lost the connection to shard {self.shard} ({self.peer}) "
                    "while sending"
                )
            if self._broken:
                time.sleep(0.05)  # the poller reports the EOF
            else:
                self._wait_writable(0.05)

    def _pump_send(self) -> bool:
        """Write as much backlog as the socket accepts; True when drained."""
        while self._backlog:
            try:
                sent = self.sock.send(self._backlog)
            except (BlockingIOError, InterruptedError):
                return False
            except OSError:
                self._broken = True
                return False
            del self._backlog[:sent]
        return True

    @property
    def send_backlog_bytes(self) -> int:
        return len(self._backlog)

    def _wait_writable(self, timeout: float) -> None:
        try:
            select.select((), (self.sock,), (), timeout)
        except (OSError, ValueError):
            self._broken = True

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def poll(self, timeout: float, decode: Callable) -> List:
        """Drain received bytes; return ``decode`` of every complete reply."""
        if self._gone:
            return []
        if not self._eof:
            try:
                select.select((self.sock,), (), (), timeout)
            except (OSError, ValueError):
                pass
        while not self._eof:
            try:
                data = self.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                data = b""
            if not data:
                self._eof = True
                break
            self._reader.feed(data)
        replies: List = []
        while True:
            frame = self._reader.next_frame()
            if frame is None:
                break
            replies.append(decode(self._protocol.decode_worker_message(*frame)))
        if self._eof and not replies:
            self._gone = True
        return replies

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Best-effort ``stop``, close the socket, then reap a forked worker.

        Closing the socket is what ends the shard: a worker that missed
        the ``stop`` (its buffer was full, or it was mid-reply) reads
        EOF or fails its next write and exits.  A forked worker still
        running after a bounded join is terminated.
        """
        if not (self._gone or self._broken):
            self._backlog.extend(self._protocol.encode_worker_message(("stop",)))
            self._pump_send()
        self.sock.close()
        self._gone = True
        process = self.process
        if process is not None:
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - worker wedged
                process.terminate()
                process.join(timeout=1.0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SocketShardChannel(shard={self.shard}, {self.peer})"


def fork_shards(plan, shards: Sequence[int]) -> List[SocketShardChannel]:
    """Fork one worker per shard id, each serving ``plan`` over its own socketpair.

    Every pair is made before the first fork.  Each child closes every
    shard socket it inherited except its own end (the other pairs, and
    the coordinator side of every channel in this process, remote
    shard connections and other engines' workers included); the parent
    closes the child ends once every worker has forked.  A worker's connection then has exactly two holders,
    so either side dying is EOF to the other: a SIGKILLed coordinator
    takes its workers with it, and a killed worker surfaces at the
    coordinator.

    Call before the coordinator starts any thread (a forked child
    inherits no threads, only their locks).
    """
    pairs: List[Tuple[socket.socket, socket.socket]] = []
    try:
        for _ in shards:
            pairs.append(socket.socketpair())
    except BaseException:
        for pair in pairs:
            for sock in pair:
                sock.close()
        raise
    every = [sock for pair in pairs for sock in pair] + list(_coordinator_sockets)
    context = multiprocessing.get_context("fork")
    processes = []
    # Pre-fork GC hygiene (the classic pre-fork-server pattern): move
    # every object the parent has allocated so far into the permanent
    # generation.  The forked workers inherit that heap and would
    # otherwise re-traverse all of it on every one of *their* gen-2
    # collections while they churn through tuples — measured at 3x
    # worker throughput when the parent heap is large.  The parent
    # unfreezes afterwards; the workers keep the frozen heap.
    gc.collect()
    gc.freeze()
    try:
        for shard, (_, child_end) in zip(shards, pairs):
            process = context.Process(
                target=worker_main,
                args=(shard, plan, child_end, [s for s in every if s is not child_end]),
                daemon=True,
                name=f"repro-shard-{shard}",
            )
            process.start()
            processes.append(process)
    except BaseException:
        # The workers already started read EOF and exit.
        for parent_end, _ in pairs:
            parent_end.close()
        raise
    finally:
        gc.unfreeze()
        for _, child_end in pairs:
            child_end.close()
    return [
        SocketShardChannel(shard, parent_end, f"forked worker pid {process.pid}", process)
        for shard, (parent_end, _), process in zip(shards, pairs, processes)
    ]


class InlineShardChannel:
    """A shard run synchronously in the coordinator's own thread.

    ``send`` decodes the request frame, runs it through
    :meth:`ShardRunner.handle <repro.runtime.worker.ShardRunner.handle>`
    and hands the reply straight to ``on_reply`` — there is nothing to
    poll, so the coordinator starts no reader for this channel.  A
    sampled chunk's ``shard.exec`` span lands directly in the
    coordinator's span buffer, under the ids a forked worker would use.
    """

    transport = "inline"
    send_backlog_bytes = 0
    alive = True

    def __init__(self, runner, on_reply: Callable[[Tuple], None]):
        from repro.net.framing import parse_frame  # deferred: import cycle
        from repro.net.protocol import decode_worker_message

        self._parse_frame = parse_frame
        self._decode_worker_message = decode_worker_message
        self.runner = runner
        self.shard = runner.shard_id
        self._on_reply = on_reply

    def send(self, frame: bytes, on_stall: Optional[Callable[[], None]] = None) -> None:
        reply = self.runner.handle(
            self._decode_worker_message(*self._parse_frame(frame))
        )
        if reply is not None:
            self._on_reply(reply)

    def close(self) -> None:
        """Nothing to release: the runner lives and dies with the engine."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"InlineShardChannel(shard={self.shard})"
