"""Per-layer probes that call ``repro``'s public functions directly."""

from __future__ import annotations

from typing import Dict, List, Sequence

from common import clock, median
from repro.streams import TupleBatch, decode_batch, encode_batch_wire
from repro.streams.serialization import wire_format


def codec_probe(chunks: Sequence[Sequence], repeats: int = 3) -> Dict[str, float]:
    """Time the wire codec on the workload's own chunks (median of ``repeats``)."""
    batches = [TupleBatch(chunk) for chunk in chunks]
    n = sum(len(b) for b in batches)
    encode_s: List[float] = []
    decode_s: List[float] = []
    payloads: List[bytes] = []
    for _ in range(repeats):
        t0 = clock()
        payloads = [encode_batch_wire(b) for b in batches]
        encode_s.append(clock() - t0)
        t0 = clock()
        for payload in payloads:
            decode_batch(payload)
        decode_s.append(clock() - t0)
    columnar = sum(len(b) for b, p in zip(batches, payloads) if wire_format(p) == "columnar")
    return {
        "codec.encode_us_per_tuple": median(encode_s) / n * 1e6,
        "codec.decode_us_per_tuple": median(decode_s) / n * 1e6,
        "codec.wire_bytes_per_tuple": sum(len(p) for p in payloads) / n,
        "codec.columnar_share": columnar / n,
    }


def operator_metrics(name: str, rows: Sequence[dict], inputs: int, results: int) -> Dict[str, float]:
    """Busy time of a query's boxes per input tuple, and results per input tuple.

    ``rows`` are the query's box statistics (``statistics()`` rows as
    dicts, the shape the STATS wire verb returns).
    """
    return {
        f"op.{name}.busy_us_per_tuple": sum(r["seconds"] for r in rows) / inputs * 1e6,
        f"op.{name}.out_ratio": results / inputs,
    }


def statistics_rows(session, name: str) -> List[dict]:
    return [
        {"name": r.stats.name, "seconds": r.stats.seconds} for r in session.statistics(name)
    ]


def median_of_dicts(dicts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    keys = set().union(*dicts) if dicts else set()
    return {k: median([d[k] for d in dicts if k in d]) for k in keys}
