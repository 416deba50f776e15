"""The wire codec: one columnar binary format for tuple batches.

Section 4.3 argues for compressing particle clouds into parametric
distributions by *stream volume*: "every tuple now carries tens or
hundreds of samples."  Every batch that crosses a process boundary
(shard workers, the TCP service, checkpoints) is encoded here, so the
encoded bytes make that claim measurable.

Layout (little-endian)::

    batch   = "TBC2" · flags u8 · n_runs u32 · [trace_id i64 · t_ingest f64] · run*
    run     = n u32 · n_values u16 · n_uncertain u16 · has_lineage u8
              · timestamps f64[n] · tuple_ids i64[n]
              · [lineage counts u32[n] · lineage ids i64[sum]]
              · value_column* · uncertain_column*
    value_column     = name · kind u8 · data
    uncertain_column = name · families u8 (bit set) · [family tags u8[n]] · family_block*

Bit 0 of ``flags`` marks a trace context.  A *run* is a stretch of
consecutive rows with one layout (the same value and uncertain names,
the same type per value), so row order is kept; a decoded row lists its
attributes in its run's first-row order.  A run of source tuples
(lineage = own id) carries no lineage section.  An uncertain column may
mix the five families: the tag array is present only when it does, and
each family present adds one block of parameter arrays (see
``_write_family``), so an all-Gaussian column is a ``mu`` and a
``sigma`` array.

The format ships tuples between processes and nodes and measures
bandwidth; it is not a long-term storage format.  Decoding treats the
payload as outside input: lengths are bounds-checked, distribution
parameters validated, and anything malformed raises ``ValueError``.
"""

from __future__ import annotations

import struct
from itertools import chain, repeat
from operator import attrgetter, contains, itemgetter
from typing import List

import numpy as np

from repro.distributions import (
    DistributionError,
    Gaussian,
    GaussianMixture,
    HistogramDistribution,
    ParticleDistribution,
    Uniform,
)

from .batch import TupleBatch
from .tuples import StreamTuple

__all__ = ["encode_batch_wire", "decode_batch", "wire_format"]

#: Magic prefix identifying an encoded tuple batch (columnar, version 2).
_MAGIC = b"TBC2"
_TRACED = 0x01

_HEADER = struct.Struct("<4sBI")
_TRACE = struct.Struct("<qd")
_RUN = struct.Struct("<IHHB")
_U16 = struct.Struct("<H")
_U8 = struct.Struct("<B")

# Value column kinds.  ``np.float64`` has its own so the type survives.
_BOOL, _INT, _FLOAT, _NP_FLOAT, _STR, _INT_TUPLE = 0x62, 0x69, 0x66, 0x64, 0x73, 0x74
_VALUE_KINDS = {bool: _BOOL, int: _INT, float: _FLOAT, str: _STR, tuple: _INT_TUPLE}
_VALUE_KINDS[np.float64] = _NP_FLOAT

# Distribution families; a column's family set is a bit set of ``1 << tag``.
_GAUSSIAN, _MIXTURE, _UNIFORM, _PARTICLES, _HISTOGRAM = 1, 2, 3, 4, 5
_FAMILIES = {
    Gaussian: _GAUSSIAN,
    GaussianMixture: _MIXTURE,
    Uniform: _UNIFORM,
    ParticleDistribution: _PARTICLES,
    HistogramDistribution: _HISTOGRAM,
}
_ALL_FAMILIES = sum(1 << tag for tag in _FAMILIES.values())
#: Parameter arrays of each family's block, in wire order.  The sized
#: families (all but Gaussian and Uniform) prefix them with per-object
#: counts: components, particles or bins (a histogram has one more edge).
_FIELDS = {
    _GAUSSIAN: ("mu", "sigma"),
    _UNIFORM: ("low", "high"),
    _MIXTURE: ("weights", "means", "sigmas"),
    _PARTICLES: ("values", "weights"),
    _HISTOGRAM: ("edges", "densities"),
}


def _kind_of(table, cls, what: str) -> int:
    """Look ``cls`` (or its nearest registered base) up in ``table``."""
    for base in cls.__mro__:
        if base in table:
            return table[base]
    raise TypeError(f"cannot encode {what} of type {cls.__name__}")


# ----------------------------------------------------------------------
# Encoder
# ----------------------------------------------------------------------
def encode_batch_wire(batch: TupleBatch) -> bytes:
    """Encode a batch (any rows, any mix of the five families) for transport.

    Raises ``TypeError`` for a value or distribution the format cannot
    carry (``None``, ``MultivariateGaussian``, tuples of non-integers).
    """
    rows = batch.to_tuples() if isinstance(batch, TupleBatch) else list(batch)
    parts: List[bytes] = []
    n_runs = 1 if rows else 0
    if rows and not _write_run(rows, parts):
        # Rows differ: cut where a row's names or value types change.
        layouts = [
            (tuple(t.values), tuple(map(type, t.values.values())), tuple(t.uncertain)) for t in rows
        ]
        starts = [i for i in range(len(rows)) if i == 0 or layouts[i] != layouts[i - 1]]
        for start, stop in zip(starts, starts[1:] + [len(rows)]):
            _write_run(rows[start:stop], parts)
        n_runs = len(starts)
    trace_id = getattr(batch, "trace_id", None)
    if trace_id is None:
        return _HEADER.pack(_MAGIC, 0, n_runs) + b"".join(parts)
    trace = _TRACE.pack(int(trace_id), float(getattr(batch, "t_ingest", None) or 0.0))
    return _HEADER.pack(_MAGIC, _TRACED, n_runs) + trace + b"".join(parts)


def _write_run(rows, parts: list) -> bool:
    """Append ``rows`` as one run, or return False (appending nothing) if
    they differ in attribute names or in a value column's type."""
    n = len(rows)
    first = rows[0]
    values = [t.values for t in rows]
    uncertain = [t.uncertain for t in rows]
    if list(map(len, values)).count(len(first.values)) != n:
        return False
    if list(map(len, uncertain)).count(len(first.uncertain)) != n:
        return False
    try:
        value_columns = [list(map(itemgetter(name), values)) for name in first.values]
        uncertain_columns = [list(map(itemgetter(name), uncertain)) for name in first.uncertain]
    except KeyError:
        return False
    value_types = [type(value) for value in first.values.values()]
    for cls, column in zip(value_types, value_columns):
        if list(map(type, column)).count(cls) != n:
            return False
    lineages = [t.lineage for t in rows]
    tuple_ids = np.fromiter([t.tuple_id for t in rows], dtype="<i8", count=n)
    own_lineage = list(map(len, lineages)).count(1) == n
    own_lineage = own_lineage and all(map(contains, lineages, tuple_ids.tolist()))
    parts.append(_RUN.pack(n, len(value_columns), len(uncertain_columns), 0 if own_lineage else 1))
    parts.append(np.fromiter([t.timestamp for t in rows], dtype="<f8", count=n).tobytes())
    parts.append(tuple_ids.tobytes())
    if not own_lineage:
        _write_sized(list(map(sorted, lineages)), parts)
    for name, cls, column in zip(first.values, value_types, value_columns):
        kind = _kind_of(_VALUE_KINDS, cls, "a deterministic value")
        parts.append(_name(name) + _U8.pack(kind))
        if kind == _STR:
            blobs = [v.encode("utf-8") for v in column]
            parts.append(np.fromiter(map(len, blobs), dtype="<u4", count=n).tobytes())
            parts.append(b"".join(blobs))
        elif kind == _INT_TUPLE:
            if not all(isinstance(v, (int, np.integer)) for value in column for v in value):
                raise TypeError("cannot encode a tuple value with non-integer elements")
            _write_sized(column, parts)
        else:
            dtype = {_BOOL: np.uint8, _INT: "<i8"}.get(kind, "<f8")
            parts.append(np.fromiter(column, dtype=dtype, count=n).tobytes())
    for name, column in zip(first.uncertain, uncertain_columns):
        parts.append(_name(name))
        _write_uncertain(column, parts)
    return True


def _name(name: str) -> bytes:
    raw = name.encode("utf-8")
    return _U16.pack(len(raw)) + raw


def _write_sized(sequences: list, parts: list) -> None:
    """Append integer sequences as u32 counts, then one flat i64 array."""
    parts.append(np.fromiter(map(len, sequences), dtype="<u4", count=len(sequences)).tobytes())
    parts.append(np.fromiter(chain.from_iterable(sequences), dtype="<i8").tobytes())


def _write_uncertain(dists: list, parts: list) -> None:
    classes = set(map(type, dists))
    if len(classes) == 1:
        tags, present = None, [_kind_of(_FAMILIES, classes.pop(), "a distribution")]
    else:
        tags = [_kind_of(_FAMILIES, type(d), "a distribution") for d in dists]
        present = sorted(set(tags))
    parts.append(_U8.pack(sum(1 << tag for tag in present)))
    if len(present) == 1:
        _write_family(present[0], dists, parts)
        return
    parts.append(bytes(tags))
    for tag in present:
        _write_family(tag, [d for d, t in zip(dists, tags) if t == tag], parts)


def _write_family(tag: int, dists: list, parts: list) -> None:
    """Append one family's block: counts (sized families), then ``_FIELDS``."""
    fields, n = _FIELDS[tag], len(dists)
    if tag == _GAUSSIAN or tag == _UNIFORM:
        for field in fields:
            parts.append(np.fromiter(map(attrgetter(field), dists), dtype="<f8", count=n).tobytes())
        return
    counts = np.fromiter(map(len, map(attrgetter(fields[-1]), dists)), dtype="<u4", count=n)
    parts.append(counts.tobytes())
    for field in fields:
        parts.append(np.concatenate([getattr(d, field) for d in dists]).astype("<f8").tobytes())


# ----------------------------------------------------------------------
# Decoder
# ----------------------------------------------------------------------
def wire_format(payload) -> str:
    """Classify an encoded batch: ``"columnar"``, or ``ValueError`` if it is none."""
    if bytes(payload[: len(_MAGIC)]) != _MAGIC:
        raise ValueError("payload does not start with the tuple-batch magic prefix")
    return "columnar"


class _Reader:
    """Bounds-checked cursor over a payload (bytes, bytearray or memoryview)."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, nbytes: int) -> int:
        start = self.pos
        if start + nbytes > len(self.buf):
            raise ValueError(f"truncated tuple-batch payload: {nbytes} bytes at offset {start}")
        self.pos = start + nbytes
        return start

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack_from(self.buf, self.take(layout.size))

    def array(self, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        offset = self.take(count * dtype.itemsize)
        return np.frombuffer(self.buf, dtype=dtype, count=count, offset=offset)

    def raw(self, nbytes: int) -> bytes:
        start = self.take(nbytes)
        return bytes(self.buf[start : start + nbytes])

    def name(self) -> str:
        return self.raw(self.unpack(_U16)[0]).decode("utf-8")

    def counts(self, n: int):
        """Read ``n`` u32 counts; return their start/stop offsets and their sum."""
        ends = np.cumsum(self.array("<u4", n), dtype=np.int64)
        starts = np.concatenate(([0], ends[:-1])) if n else ends
        return starts.tolist(), ends.tolist(), int(ends[-1]) if n else 0

    def sized(self, n: int) -> list:
        """Read what :func:`_write_sized` wrote: ``n`` integer lists."""
        starts, ends, total = self.counts(n)
        flat = self.array("<i8", total).tolist()
        return [flat[a:b] for a, b in zip(starts, ends)]


def decode_batch(payload) -> TupleBatch:
    """Decode a payload of :func:`encode_batch_wire` (bytes or a view).

    Raises ``ValueError`` on a wrong magic, flag or tag, a truncated
    payload, trailing bytes, or a parameter a constructor would reject.
    The batch owns its memory (kept arrays are copies), so the caller
    may reuse or release the receive buffer at once.  The wire's
    timestamps, lineage ids, deterministic value columns and
    all-Gaussian ``mu``/``sigma`` arrays prime the batch's columnar
    caches (a column when every run carries it), so a decoded batch
    reaches the window kernel with no per-row gather.
    """
    reader = _Reader(payload)
    magic, flags, n_runs = reader.unpack(_HEADER)
    if magic != _MAGIC:
        raise ValueError("payload does not start with the tuple-batch magic prefix")
    if flags & ~_TRACED:
        raise ValueError(f"unknown tuple-batch flags {flags:#x}")
    trace = reader.unpack(_TRACE) if flags & _TRACED else None
    try:
        runs = [_read_run(reader) for _ in range(n_runs)]
    except DistributionError as exc:
        raise ValueError(f"invalid distribution in tuple-batch payload: {exc}") from exc
    if reader.pos != len(payload):
        raise ValueError(f"tuple-batch payload has {len(payload) - reader.pos} trailing bytes")
    # Concatenation keeps the columns that every run primed.
    batch = runs[0] if len(runs) == 1 else TupleBatch.concat(runs)
    if trace is not None:
        batch.trace_id, batch.t_ingest = trace
    return batch


def _read_run(reader: _Reader) -> TupleBatch:
    """Decode one run as a batch, its columns primed from the wire arrays."""
    n, n_values, n_uncertain, has_lineage = reader.unpack(_RUN)
    timestamps = reader.array("<f8", n).copy()
    wire_ids = reader.array("<i8", n)
    tuple_ids = wire_ids.tolist()
    if has_lineage > 1:
        raise ValueError(f"unknown lineage flag {has_lineage}")
    if has_lineage:
        starts, ends, total = reader.counts(n)
        flat = reader.array("<i8", total)
        ids = flat.tolist()
        lineages = [frozenset(ids[a:b]) for a, b in zip(starts, ends)]
        if not all(lineages):
            raise ValueError("tuple-batch payload has an empty lineage")
        # A row that lists an id twice keeps it once: gather afresh then.
        primed = None
        if sum(map(len, lineages)) == total:
            primed = (flat.copy(), np.array([0] + ends, dtype=np.int64))
    else:
        lineages = [frozenset((tuple_id,)) for tuple_id in tuple_ids]
        primed = (wire_ids.copy(), np.arange(n + 1, dtype=np.int64))
    value_names, value_columns = [], []
    for _ in range(n_values):
        value_names.append(reader.name())
        value_columns.append(_read_values(reader, n))
    uncertain_names, uncertain_columns, gaussian_cols = [], [], {}
    for _ in range(n_uncertain):
        uncertain_names.append(reader.name())
        column, gaussian = _read_uncertain(reader, n)
        uncertain_columns.append(column)
        if gaussian is not None:
            gaussian_cols[uncertain_names[-1]] = gaussian
    run = TupleBatch(
        map(
            StreamTuple._unchecked,
            timestamps.tolist(),
            _dicts(value_names, value_columns, n),
            _dicts(uncertain_names, uncertain_columns, n),
            lineages,
            tuple_ids,
        )
    )
    run._timestamps = timestamps
    run._lineage = primed
    run._gaussian_cols.update(gaussian_cols)
    for name, column in zip(value_names, value_columns):
        run._value_cols[name] = np.fromiter(column, dtype=object, count=n)
    return run


def _dicts(names: list, columns: list, n: int):
    """One fresh ``{name: value}`` dict per row."""
    if len(names) == 1:  # the common case, four times faster than dict(zip(...))
        name = names[0]
        return [{name: value} for value in columns[0]]
    if not names:
        return map(dict, repeat((), n))
    return map(dict, map(zip, repeat(names), zip(*columns)))


def _read_values(reader: _Reader, n: int) -> list:
    (kind,) = reader.unpack(_U8)
    if kind == _FLOAT:
        return reader.array("<f8", n).tolist()
    if kind == _INT:
        return reader.array("<i8", n).tolist()
    if kind == _NP_FLOAT:
        return list(reader.array("<f8", n).astype(np.float64))
    if kind == _BOOL:
        return (reader.array(np.uint8, n) != 0).tolist()
    if kind == _STR:
        starts, ends, total = reader.counts(n)
        blob = reader.raw(total)
        return [blob[a:b].decode("utf-8") for a, b in zip(starts, ends)]
    if kind == _INT_TUPLE:
        return [tuple(value) for value in reader.sized(n)]
    raise ValueError(f"unknown value column kind {kind:#x}")


def _read_uncertain(reader: _Reader, n: int):
    """Decode one uncertain column: its distributions and, when it is
    all Gaussian, its ``(mu, sigma)`` arrays."""
    (families,) = reader.unpack(_U8)
    if not families or families & ~_ALL_FAMILIES:
        raise ValueError(f"invalid distribution family set {families:#x}")
    present = [tag for tag in sorted(_FIELDS) if families >> tag & 1]
    if len(present) == 1:
        return _read_family(reader, present[0], n)
    tags = reader.array(np.uint8, n)
    if not np.isin(tags, present).all():
        raise ValueError("distribution tag outside the column's family set")
    column = [None] * n
    for tag in present:
        positions = np.flatnonzero(tags == tag).tolist()
        dists, _ = _read_family(reader, tag, len(positions))
        for position, dist in zip(positions, dists):
            column[position] = dist
    return column, None


def _require(ok: np.ndarray, message: str) -> None:
    if not ok.all():
        raise ValueError(f"{message}, got {ok.size - np.count_nonzero(ok)} invalid value(s)")


def _read_family(reader: _Reader, tag: int, n: int):
    """Decode ``n`` distributions of one family (see :func:`_write_family`).

    The Gaussian and mixture blocks are validated in one array pass
    each and built without the per-object constructor checks; the
    rarer families go through their constructors.
    """
    if tag == _UNIFORM:
        low = reader.array("<f8", n).tolist()
        high = reader.array("<f8", n).tolist()
        return [Uniform(a, b) for a, b in zip(low, high)], None
    if tag == _GAUSSIAN:
        mu = reader.array("<f8", n).copy()
        sigma = reader.array("<f8", n).copy()
        _require(np.isfinite(mu), "Gaussian mean must be finite")
        _require(np.isfinite(sigma) & (sigma > 0.0), "Gaussian sigma must be positive and finite")
        dists = []
        new = Gaussian.__new__
        for mean, std in zip(mu.tolist(), sigma.tolist()):
            dist = new(Gaussian)
            dist.mu = mean
            dist.sigma = std
            dists.append(dist)
        return dists, (mu, sigma)
    starts, ends, total = reader.counts(n)
    if any(a == b for a, b in zip(starts, ends)):
        raise ValueError("a sized distribution needs at least one component")
    sizes = [total + n if field == "edges" else total for field in _FIELDS[tag]]
    arrays = [reader.array("<f8", size).copy() for size in sizes]
    if tag == _PARTICLES:
        values, weights = arrays
        return [ParticleDistribution(values[a:b], weights[a:b]) for a, b in zip(starts, ends)], None
    if tag == _HISTOGRAM:  # object i owns bins a:b and edges a+i:b+i+1
        edges, densities = arrays
        return [
            HistogramDistribution(edges[a + i : b + i + 1], densities[a:b])
            for i, (a, b) in enumerate(zip(starts, ends))
        ], None
    weights, means, sigmas = arrays
    _require(np.isfinite(means), "all component means must be finite")
    _require(np.isfinite(sigmas) & (sigmas > 0), "all component sigmas must be positive and finite")
    _require(np.isfinite(weights) & (weights >= 0.0), "weights must be finite and non-negative")
    if n:
        _require(np.add.reduceat(weights, starts) > 0.0, "weights must not all be zero")
    dists = []
    new = GaussianMixture.__new__
    for a, b in zip(starts, ends):
        dist = new(GaussianMixture)
        w = weights[a:b]
        dist.weights = w / w.sum()  # normalised exactly as GaussianMixture.__init__ does
        dist.means = means[a:b]
        dist.sigmas = sigmas[a:b]
        dists.append(dist)
    return dists, None
