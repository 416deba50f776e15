"""Final-result reporting: confidence regions, error bounds, summaries.

The last operator of a plan can emit full distributions, or -- depending
on what the end application needs (Section 3) -- statistics derived
from them: a confidence region, the mean and variance, or error bounds.
:class:`ResultSummary` captures those derived statistics in one value
object, and :class:`SummarizeResults` is a small operator that converts
a stream of result tuples into summarised form for delivery to the
application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.distributions import Distribution
from repro.streams.batch import TupleBatch
from repro.streams.operators.base import Operator, OperatorError
from repro.streams.tuples import StreamTuple

__all__ = ["ResultSummary", "summarize", "SummarizeResults"]


@dataclass(frozen=True)
class ResultSummary:
    """Summary statistics of one uncertain query result."""

    mean: float
    variance: float
    confidence: float
    region: Tuple[float, float]

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def error_bound(self) -> float:
        """Half-width of the confidence region around its centre."""
        return 0.5 * (self.region[1] - self.region[0])

    def contains(self, value: float) -> bool:
        """Return True when ``value`` lies inside the confidence region."""
        return self.region[0] <= value <= self.region[1]


def summarize(dist: Distribution, confidence: float = 0.95) -> ResultSummary:
    """Summarise a result distribution into mean / variance / region."""
    region = dist.confidence_region(confidence)
    return ResultSummary(
        mean=float(np.asarray(dist.mean()).ravel()[0]),
        variance=float(np.asarray(dist.variance()).ravel()[0]),
        confidence=confidence,
        region=(float(region[0]), float(region[1])),
    )


class SummarizeResults(Operator):
    """Replace an uncertain attribute with its summary statistics.

    Emitted tuples keep all deterministic attributes, drop the full
    distribution of ``attribute`` and carry instead
    ``{attribute}_mean``, ``{attribute}_variance``,
    ``{attribute}_lo`` and ``{attribute}_hi`` (the confidence region).
    """

    def __init__(
        self,
        attribute: str,
        confidence: float = 0.95,
        keep_distribution: bool = False,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if not 0.0 < confidence < 1.0:
            raise OperatorError("confidence must lie strictly between 0 and 1")
        self.attribute = attribute
        self.confidence = confidence
        self.keep_distribution = keep_distribution

    def _summarize(self, item: StreamTuple) -> StreamTuple:
        if not item.has_uncertain(self.attribute):
            raise OperatorError(
                f"tuple has no uncertain attribute {self.attribute!r} to summarise"
            )
        dist = item.distribution(self.attribute)
        summary = summarize(dist, self.confidence)
        values = {
            f"{self.attribute}_mean": summary.mean,
            f"{self.attribute}_variance": summary.variance,
            f"{self.attribute}_lo": summary.region[0],
            f"{self.attribute}_hi": summary.region[1],
        }
        uncertain = dict(item.uncertain)
        if not self.keep_distribution:
            uncertain.pop(self.attribute, None)
        return item.derive(values=values, uncertain=uncertain, replace_uncertain=True)

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        return TupleBatch([self._summarize(item) for item in batch])
