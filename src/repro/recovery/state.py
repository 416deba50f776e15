"""Serialization of operator state dicts for checkpoint files.

Operator :meth:`~repro.streams.Operator.state_snapshot` returns a
JSON-like dict whose leaves may include *lists of stream tuples*
(buffered windows, join build sides, collected results).  This module
encodes such a dict as a compact two-section payload:

``RST1`` magic · u32 header length · JSON header · u32 batch count ·
length-prefixed batch sections

The header is the state dict with every non-empty list of tuples
replaced by a ``{"__batch__": i}`` placeholder referencing the *i*-th
batch section, which is the columnar wire format of
:func:`~repro.streams.serialization.encode_batch_wire`, so tuple ids,
lineage sets and distributions round-trip exactly.  Floats use
Python's JSON dialect (``Infinity``/``NaN`` literals), which matters
for watermark fields.
"""

from __future__ import annotations

import json
import struct
from typing import Any, List

from repro.streams.batch import TupleBatch
from repro.streams.serialization import decode_batch, encode_batch_wire
from repro.streams.tuples import StreamTuple

__all__ = ["StateError", "encode_state", "decode_state"]

_MAGIC = b"RST1"
_U32 = struct.Struct("<I")

#: Placeholder key marking an extracted tuple list in the JSON header.
_BATCH_KEY = "__batch__"


class StateError(RuntimeError):
    """Raised when a state payload is malformed or mismatches the plan."""


def _extract(value: Any, batches: List[bytes]) -> Any:
    """Replace tuple lists with batch placeholders, depth-first."""
    if isinstance(value, dict):
        return {key: _extract(child, batches) for key, child in value.items()}
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if seq and all(isinstance(item, StreamTuple) for item in seq):
            batches.append(encode_batch_wire(TupleBatch(seq)))
            return {_BATCH_KEY: len(batches) - 1}
        return [_extract(child, batches) for child in seq]
    if isinstance(value, StreamTuple):
        raise StateError(
            "bare StreamTuple in operator state; wrap tuples in lists so the "
            "codec can batch-encode them"
        )
    return value


def _restore(value: Any, batches: List[TupleBatch]) -> Any:
    if isinstance(value, dict):
        if set(value.keys()) == {_BATCH_KEY}:
            return batches[value[_BATCH_KEY]].to_tuples()
        return {key: _restore(child, batches) for key, child in value.items()}
    if isinstance(value, list):
        return [_restore(child, batches) for child in value]
    return value


def encode_state(state: Any) -> bytes:
    """Encode a state dict (see module docstring for the layout)."""
    batches: List[bytes] = []
    header = json.dumps(_extract(state, batches), separators=(",", ":")).encode("utf-8")
    parts = [_MAGIC, _U32.pack(len(header)), header, _U32.pack(len(batches))]
    for blob in batches:
        parts.append(_U32.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def decode_state(payload: bytes) -> Any:
    """Decode a payload produced by :func:`encode_state`.

    Raises :class:`StateError` on any malformed or truncated payload.
    """
    payload = bytes(payload)
    if payload[: len(_MAGIC)] != _MAGIC:
        raise StateError("payload does not start with the state magic prefix")
    offset = len(_MAGIC)

    def section(length: int) -> bytes:
        nonlocal offset
        if offset + length > len(payload):
            raise StateError(f"truncated state payload: {length} bytes needed at offset {offset}")
        offset += length
        return payload[offset - length : offset]

    def u32() -> int:
        return _U32.unpack(section(4))[0]

    try:
        header = json.loads(section(u32()).decode("utf-8"))
        batches = [decode_batch(section(u32())) for _ in range(u32())]
        if offset != len(payload):
            raise StateError("trailing bytes after the declared batch sections")
        return _restore(header, batches)
    except (ValueError, LookupError, TypeError) as exc:  # JSON, batch codec, placeholders
        raise StateError(f"malformed state payload: {exc}") from exc
