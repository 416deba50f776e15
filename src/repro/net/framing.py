"""Length-prefixed binary framing shared by every repro.net conversation.

One frame is::

    magic   2 bytes   b"RN"
    version 1 byte    protocol version (currently 1)
    kind    1 byte    message kind (see :mod:`repro.net.protocol`)
    hlen    4 bytes   little-endian header length in bytes
    plen    4 bytes   little-endian payload length in bytes
    header  hlen bytes   UTF-8 JSON object (control fields)
    payload plen bytes   opaque bytes (tuple batches via
                         :func:`repro.streams.serialization.encode_batch_wire`)

Control data rides in the JSON header — small, debuggable, and
schema-free — while bulk tuple data rides in the binary payload using
the columnar batch codec the sharded runtime already speaks, so a
tuple crossing a machine boundary costs the same bytes whether it goes
to a forked worker or over TCP.

The module gives blocking-socket readers (the client, shard channels)
and an asyncio reader (the server) over the same :func:`encode_frame`; limits (`MAX_HEADER`, ``max_payload``) are
enforced *before* allocation so a corrupt or hostile length field
cannot balloon memory.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from .errors import ConnectionClosed, ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_HEADER",
    "DEFAULT_MAX_PAYLOAD",
    "encode_frame",
    "parse_frame",
    "FrameReader",
    "BufferedFrameSocket",
    "read_frame_async",
    "recv_frame",
    "recv_frame_bytes",
    "send_frame",
]

PROTOCOL_VERSION = 1

_MAGIC = b"RN"
_PRELUDE = struct.Struct("<2sBBII")

#: Hard cap on the JSON header — control data is always small.
MAX_HEADER = 1 << 20
#: Default cap on a frame payload (one encoded tuple batch).
DEFAULT_MAX_PAYLOAD = 64 << 20

Frame = Tuple[int, Dict[str, Any], bytes]


def encode_frame(kind: int, header: Optional[Dict[str, Any]] = None, payload: bytes = b"") -> bytes:
    """Encode one frame; ``header`` is JSON-encoded, ``payload`` raw bytes."""
    raw_header = b"" if not header else json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(raw_header) > MAX_HEADER:
        raise ProtocolError(f"frame header of {len(raw_header)} bytes exceeds {MAX_HEADER}")
    return (
        _PRELUDE.pack(_MAGIC, PROTOCOL_VERSION, kind, len(raw_header), len(payload))
        + raw_header
        + payload
    )


def parse_frame(buffer, max_payload: int = DEFAULT_MAX_PAYLOAD) -> Frame:
    """Parse one complete frame from an in-memory buffer, copy-free.

    ``buffer`` is any bytes-like object holding *exactly* one frame (a
    shard worker reads its requests whole with :func:`recv_frame_bytes`).
    The payload is returned as a zero-copy memoryview slice of
    ``buffer``: it aliases the caller's memory.
    """
    view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
    if len(view) < _PRELUDE.size:
        raise ProtocolError(f"truncated frame: {len(view)} bytes")
    kind, hlen, plen = _parse_prelude(bytes(view[: _PRELUDE.size]), max_payload)
    total = _PRELUDE.size + hlen + plen
    if len(view) != total:
        raise ProtocolError(
            f"frame record declares {total} bytes but holds {len(view)}"
        )
    header = _decode_header(bytes(view[_PRELUDE.size : _PRELUDE.size + hlen]))
    return kind, header, view[_PRELUDE.size + hlen : total]


def _parse_prelude(prelude: bytes, max_payload: int) -> Tuple[int, int, int]:
    magic, version, kind, hlen, plen = _PRELUDE.unpack(prelude)
    if magic != _MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {_MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version} (speak {PROTOCOL_VERSION})")
    if hlen > MAX_HEADER:
        raise ProtocolError(f"frame header of {hlen} bytes exceeds {MAX_HEADER}")
    if plen > max_payload:
        raise ProtocolError(f"frame payload of {plen} bytes exceeds the {max_payload} limit")
    return kind, hlen, plen


def _decode_header(raw: bytes) -> Dict[str, Any]:
    if not raw:
        return {}
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(f"frame header must be a JSON object, got {type(header).__name__}")
    return header


class FrameReader:
    """Incremental frame parser over an append-only byte buffer.

    Both the blocking and non-blocking socket paths feed received
    chunks to :meth:`feed` and pull complete frames with :meth:`next_frame`;
    partial frames simply stay buffered until more bytes arrive.
    """

    def __init__(self, max_payload: int = DEFAULT_MAX_PAYLOAD):
        self._buffer = bytearray()
        self._max_payload = max_payload

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def next_frame(self) -> Optional[Frame]:
        """Return one complete frame, or ``None`` if more bytes are needed."""
        if len(self._buffer) < _PRELUDE.size:
            return None
        kind, hlen, plen = _parse_prelude(bytes(self._buffer[: _PRELUDE.size]), self._max_payload)
        total = _PRELUDE.size + hlen + plen
        if len(self._buffer) < total:
            return None
        header = _decode_header(bytes(self._buffer[_PRELUDE.size : _PRELUDE.size + hlen]))
        payload = bytes(self._buffer[_PRELUDE.size + hlen : total])
        del self._buffer[:total]
        return kind, header, payload


# ----------------------------------------------------------------------
# Blocking-socket helpers (StreamClient, shard transport)
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, n: int, mid_frame: bool) -> bytes:
    """Read exactly ``n`` bytes or raise; EOF mid-frame is a protocol error."""
    chunks = bytearray()
    while len(chunks) < n:
        try:
            chunk = sock.recv(n - len(chunks))
        except socket.timeout as exc:
            raise TimeoutError("timed out waiting for a frame") from exc
        if not chunk:
            if chunks or mid_frame:
                raise ProtocolError("connection closed in the middle of a frame")
            raise ConnectionClosed("peer closed the connection")
        chunks.extend(chunk)
    return bytes(chunks)


def recv_frame(sock: socket.socket, max_payload: int = DEFAULT_MAX_PAYLOAD) -> Frame:
    """Blocking read of one frame from a socket."""
    prelude = _recv_exact(sock, _PRELUDE.size, mid_frame=False)
    kind, hlen, plen = _parse_prelude(prelude, max_payload)
    header = _decode_header(_recv_exact(sock, hlen, mid_frame=True)) if hlen else {}
    payload = _recv_exact(sock, plen, mid_frame=True) if plen else b""
    return kind, header, payload


def recv_frame_bytes(
    sock: socket.socket, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> bytearray:
    """Blocking read of one whole frame, unparsed (for :func:`parse_frame`).

    The frame is received straight into one buffer of its final size,
    so a large chunk costs no copy beyond the kernel's.
    """
    prelude = _recv_exact(sock, _PRELUDE.size, mid_frame=False)
    _, hlen, plen = _parse_prelude(prelude, max_payload)
    frame = bytearray(_PRELUDE.size + hlen + plen)
    frame[: _PRELUDE.size] = prelude
    view = memoryview(frame)
    got = _PRELUDE.size
    while got < len(frame):
        received = sock.recv_into(view[got:])
        if not received:
            raise ProtocolError("connection closed in the middle of a frame")
        got += received
    return frame


def send_frame(
    sock: socket.socket,
    kind: int,
    header: Optional[Dict[str, Any]] = None,
    payload: bytes = b"",
) -> None:
    """Blocking write of one frame to a socket."""
    sock.sendall(encode_frame(kind, header, payload))


class BufferedFrameSocket:
    """Frame reads over a blocking socket that survive per-call timeouts.

    A bare ``recv_frame`` discards partially-read bytes when a timeout
    fires mid-frame, permanently desynchronizing the stream for any
    caller that catches ``TimeoutError`` and retries.  This wrapper
    keeps partial bytes in a :class:`FrameReader` across calls, so a
    timed-out read resumes exactly where it stopped.
    """

    def __init__(self, sock: socket.socket, max_payload: int = DEFAULT_MAX_PAYLOAD):
        self._sock = sock
        self._reader = FrameReader(max_payload)

    def recv_frame(self, timeout: Optional[float] = None) -> Frame:
        """Read one frame; ``timeout`` bounds the whole call.

        Raises ``TimeoutError`` with any partial frame still buffered
        (safe to retry), ``ConnectionClosed`` on EOF between frames and
        ``ProtocolError`` on EOF inside one.
        """
        import time

        frame = self._reader.next_frame()
        if frame is not None:
            return frame
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if deadline is None:
                self._sock.settimeout(None)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("timed out waiting for a frame")
                self._sock.settimeout(remaining)
            try:
                data = self._sock.recv(1 << 16)
            except socket.timeout as exc:
                raise TimeoutError("timed out waiting for a frame") from exc
            if not data:
                if self._reader.buffered:
                    raise ProtocolError("connection closed in the middle of a frame")
                raise ConnectionClosed("peer closed the connection")
            self._reader.feed(data)
            frame = self._reader.next_frame()
            if frame is not None:
                return frame


# ----------------------------------------------------------------------
# asyncio helper (StreamServer's connection handlers)
# ----------------------------------------------------------------------
async def read_frame_async(reader, max_payload: int = DEFAULT_MAX_PAYLOAD) -> Frame:
    """Read one frame from an ``asyncio.StreamReader``."""
    import asyncio

    try:
        prelude = await reader.readexactly(_PRELUDE.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionClosed("peer closed the connection") from exc
        raise ProtocolError("connection closed in the middle of a frame") from exc
    kind, hlen, plen = _parse_prelude(prelude, max_payload)
    try:
        header = _decode_header(await reader.readexactly(hlen)) if hlen else {}
        payload = await reader.readexactly(plen) if plen else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed in the middle of a frame") from exc
    return kind, header, payload
