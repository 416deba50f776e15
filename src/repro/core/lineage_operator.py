"""Streaming operators for lineage archival and lineage-aware aggregation.

Section 5.2 / Figure 2: when an operator's outputs can be correlated
(e.g. a join), downstream aggregation must not treat them as
independent.  The paper's architecture archives the *independent* base
tuples (the "A4" box archives its inputs) and lets the final operator
combine lineage with the archive to compute correct result
distributions.

:class:`ArchivingOperator` performs the archival step as a pass-through
box, and :class:`LineageAwareAggregate` is the final windowed SUM
operator built on :func:`repro.core.lineage_ops.lineage_aware_sum`.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.distributions import Distribution
from repro.streams.batch import TupleBatch
from repro.streams.lineage import TupleArchive
from repro.streams.operators.base import Operator
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowBuffer, WindowSpec

from .aggregation.strategies import CFApproximationSum, SumStrategy
from .lineage_ops import lineage_aware_sum

__all__ = ["ArchivingOperator", "LineageAwareAggregate"]


class ArchivingOperator(Operator):
    """Pass-through operator that archives every tuple it sees.

    Place it on the arrow carrying *independent* tuples (typically just
    after a T operator); the shared :class:`TupleArchive` is later used
    by a :class:`LineageAwareAggregate` to resolve lineage.  Eviction by
    watermark keeps the archive bounded for long-running streams.
    """

    def __init__(
        self,
        archive: TupleArchive,
        retention_seconds: Optional[float] = None,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if retention_seconds is not None and retention_seconds <= 0:
            raise ValueError("retention_seconds must be positive when given")
        self.archive = archive
        self.retention_seconds = retention_seconds

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        # Rows are archived one at a time: eviction follows each row's
        # timestamp, as it would if the rows arrived separately.
        for item in batch:
            self.archive.archive(item)
            if self.retention_seconds is not None:
                self.archive.evict_older_than(item.timestamp - self.retention_seconds)
        return batch


class LineageAwareAggregate(Operator):
    """Windowed SUM whose result distribution respects tuple correlation.

    Unlike :class:`repro.core.UncertainAggregate` (which refuses windows
    containing correlated tuples), this operator partitions each window
    into correlation groups via lineage, uses the fast independent
    machinery across groups, and evaluates correlated groups jointly
    from the archived base tuples.
    """

    def __init__(
        self,
        window: WindowSpec,
        attribute: str,
        archive: TupleArchive,
        strategy: Optional[SumStrategy] = None,
        output_attribute: Optional[str] = None,
        n_samples: int = 2048,
        rng=None,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        self.window = window
        self.attribute = attribute
        self.archive = archive
        self.strategy = strategy or CFApproximationSum()
        self.output_attribute = output_attribute or f"sum_{attribute}"
        self.n_samples = n_samples
        self._rng = rng
        self._buffer: WindowBuffer = window.new_buffer()

    def _emit(self, closes) -> Iterable[StreamTuple]:
        for close in closes:
            if not close.items:
                continue
            result: Distribution = lineage_aware_sum(
                close.items,
                self.attribute,
                self.archive,
                independent_strategy=self.strategy,
                n_samples=self.n_samples,
                rng=self._rng,
            )
            lineage = frozenset().union(*(item.lineage for item in close.items))
            yield StreamTuple(
                timestamp=close.end,
                values={
                    "window_start": close.start,
                    "window_end": close.end,
                    "window_count": len(close.items),
                    f"{self.output_attribute}_mean": float(np.asarray(result.mean()).ravel()[0]),
                },
                uncertain={self.output_attribute: result},
                lineage=lineage,
            )

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        return TupleBatch([out for item in batch for out in self._emit(self._buffer.add(item))])

    def flush(self) -> Iterable[StreamTuple]:
        yield from self._emit(self._buffer.flush())
