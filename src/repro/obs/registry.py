"""Process-local metrics registry with numpy-backed instruments.

Design constraints, in order:

1. **Hot-path cost.**  Instruments sit on per-batch and per-chunk code
   paths (never per-tuple; the engine's per-tuple counters stay plain
   attributes sampled through :class:`OperatorView`).  Each instrument
   owns a small private ``float64`` array and an update is one fancy-free
   ``array[i] += v`` — no lock, no dict lookup, no allocation.  With no
   exporter attached nothing else ever runs: snapshots, percentile
   estimation and rendering all happen on the *reader's* side.
2. **One namespace.**  Instruments are keyed by ``(kind, name, labels)``
   and get-or-created, so every layer that asks for
   ``counter("results_dropped_total", query="q1")`` shares the same
   cell; the METRICS verb, ``statistics()`` and
   ``stage_timings()`` are all views over the same arrays.
3. **No lifetime coupling.**  Operator views hold weak references; a
   dropped query's operators disappear from snapshots at the next
   collection instead of keeping the plan graph alive.

Thread-safety: instrument *creation* takes the registry lock;
*updates* are plain ``+=`` on a private array slot, safe under the GIL
for single-writer instruments and intentionally tolerant of the rare
lost increment for multi-writer counters (telemetry, not accounting).
Writers that need exactness (the sharded coordinator's decode/merge
stages) already serialize on their own condition variable.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "OperatorView",
    "Registry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
]

#: Upper bounds (seconds) of the default latency histogram, spanning
#: 100 µs .. 60 s; the overflow bucket catches anything slower.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (events, bytes, seconds)."""

    __slots__ = ("name", "labels", "_data")
    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._data = np.zeros(1)

    def inc(self, amount: float = 1.0) -> None:
        self._data[0] += amount

    @property
    def value(self) -> float:
        return float(self._data[0])

    def reset(self) -> None:
        self._data[0] = 0.0

    def snapshot_value(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A point-in-time value (queue depth, last checkpoint id)."""

    __slots__ = ("name", "labels", "_data")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._data = np.zeros(1)

    def set(self, value: float) -> None:
        self._data[0] = value

    def inc(self, amount: float = 1.0) -> None:
        self._data[0] += amount

    @property
    def value(self) -> float:
        return float(self._data[0])

    def snapshot_value(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram with sum/count and percentile estimation.

    ``observe`` classifies a value into its bucket with one
    ``searchsorted`` over the precomputed bound array and bumps three
    array slots; the bucket layout is frozen at construction so
    concurrent observers never resize anything.
    """

    __slots__ = ("name", "labels", "_bounds", "_counts", "_accum")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        bounds = np.asarray(sorted(float(b) for b in buckets), dtype=np.float64)
        if bounds.size == 0:
            raise ValueError("a histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self._bounds = bounds
        self._counts = np.zeros(bounds.size + 1)  # last slot: overflow
        self._accum = np.zeros(2)  # [sum, count]

    def observe(self, value: float, count: int = 1) -> None:
        self._counts[int(np.searchsorted(self._bounds, value))] += count
        self._accum[0] += value * count
        self._accum[1] += count

    @property
    def count(self) -> float:
        return float(self._accum[1])

    @property
    def sum(self) -> float:
        return float(self._accum[0])

    @property
    def mean(self) -> Optional[float]:
        count = self._accum[1]
        return float(self._accum[0] / count) if count > 0 else None

    @property
    def bounds(self) -> Tuple[float, ...]:
        return tuple(self._bounds.tolist())

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation inside the containing bucket; values in the
        overflow bucket report the largest finite bound.  ``None`` when
        nothing has been observed.
        """
        total = self._accum[1]
        if total <= 0:
            return None
        target = q * total
        cumulative = 0.0
        lower = 0.0
        for i, bound in enumerate(self._bounds):
            in_bucket = self._counts[i]
            if cumulative + in_bucket >= target and in_bucket > 0:
                fraction = (target - cumulative) / in_bucket
                return float(lower + fraction * (bound - lower))
            cumulative += in_bucket
            lower = bound
        return float(self._bounds[-1])

    def percentiles(self, qs: Iterable[float]) -> Dict[str, Optional[float]]:
        return {f"p{round(q * 100):d}": self.percentile(q) for q in qs}

    def reset(self) -> None:
        self._counts[:] = 0.0
        self._accum[:] = 0.0

    def snapshot_value(self) -> dict:
        return {
            "buckets": self._bounds.tolist(),
            "counts": self._counts.tolist(),
            "sum": float(self._accum[0]),
            "count": float(self._accum[1]),
            "percentiles": self.percentiles((0.5, 0.95, 0.99)),
        }


class OperatorView:
    """A live view over one operator's plain counter attributes.

    The engine's hot path keeps its counters as ordinary instance
    attributes (an ``int`` ``+=`` is the cheapest update Python offers
    and runs per batch); the registry reads them *at collection time*
    through a weak reference instead of forcing the hot path through an
    instrument.  ``stats()`` returns the same 5-field row shape as
    ``ShardRunner.statistics_rows()`` so callers can build their
    ``OperatorStats`` without another mapping layer.
    """

    __slots__ = ("scope", "_ref")
    kind = "operator"

    def __init__(self, scope: str, operator) -> None:
        self.scope = scope
        self._ref = weakref.ref(operator)

    @property
    def operator(self):
        return self._ref()

    def stats(self) -> Optional[Tuple[str, int, int, int, float]]:
        op = self._ref()
        if op is None:
            return None
        return (
            op.name,
            op.tuples_in,
            op.tuples_out,
            op.batches_in,
            op.processing_seconds,
        )

    def snapshot_value(self) -> Optional[dict]:
        row = self.stats()
        if row is None:
            return None
        name, tuples_in, tuples_out, batches_in, seconds = row
        return {
            "operator": name,
            "tuples_in": tuples_in,
            "tuples_out": tuples_out,
            "batches_in": batches_in,
            "processing_seconds": seconds,
        }


class Registry:
    """Get-or-create home for every instrument in the process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, str, LabelItems], object] = {}
        self._views: Dict[Tuple[str, str, int], OperatorView] = {}

    # ------------------------------------------------------------------
    # Instrument construction (locked; updates are lock-free)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, _label_items(labels))

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, _label_items(labels))

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        key = ("histogram", name, _label_items(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = Histogram(
                    name, key[2], buckets=buckets or DEFAULT_LATENCY_BUCKETS
                )
                self._instruments[key] = instrument
        return instrument

    def _get_or_create(self, cls, name: str, labels: LabelItems):
        key = (cls.kind, name, labels)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, labels)
                self._instruments[key] = instrument
        return instrument

    def operator_view(self, scope: str, operator) -> OperatorView:
        """Register (or fetch) the live view over one operator."""
        key = (scope, operator.name, id(operator))
        with self._lock:
            view = self._views.get(key)
            if view is None or view.operator is not operator:
                view = OperatorView(scope, operator)
                self._views[key] = view
        return view

    def operator_views(self, scope: Optional[str] = None) -> List[OperatorView]:
        """Live operator views, optionally restricted to one scope."""
        with self._lock:
            items = list(self._views.items())
        alive = []
        dead = []
        for key, view in items:
            if view.operator is None:
                dead.append(key)
            elif scope is None or view.scope == scope:
                alive.append(view)
        if dead:
            with self._lock:
                for key in dead:
                    self._views.pop(key, None)
        return alive

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def instruments(self) -> List[object]:
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self) -> dict:
        """JSON-able view of every instrument (served by METRICS)."""
        out: dict = {"counters": [], "gauges": [], "histograms": [], "operators": []}
        for instrument in self.instruments():
            entry = {
                "name": instrument.name,
                "labels": dict(instrument.labels),
            }
            entry.update(instrument.snapshot_value())
            out[instrument.kind + "s"].append(entry)
        for view in self.operator_views():
            value = view.snapshot_value()
            if value is not None:
                value["scope"] = view.scope
                out["operators"].append(value)
        return out

    def reset(self) -> None:
        """Zero every instrument and drop operator views (test isolation)."""
        for instrument in self.instruments():
            if hasattr(instrument, "reset"):
                instrument.reset()
            elif isinstance(instrument, Gauge):
                instrument.set(0.0)
        with self._lock:
            self._views.clear()


_default_registry = Registry()


def get_registry() -> Registry:
    """Return the process-wide default registry."""
    return _default_registry
