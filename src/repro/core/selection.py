"""Probabilistic selection over uncertain attributes.

A selection predicate on an uncertain attribute (e.g. ``T.temp > 60``
in query Q2) cannot be evaluated to true/false: the attribute is a
continuous random variable, so the predicate holds with some
probability computed from the tuple's pdf.  The
:class:`ProbabilisticSelect` operator evaluates that probability,
annotates the tuple with it, and keeps the tuple when the probability
clears a configurable threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from repro.distributions import Distribution
from repro.distributions.gaussian import gaussian_cdf
from repro.streams.batch import TupleBatch
from repro.streams.operators.base import Operator, OperatorError
from repro.streams.tuples import StreamTuple

__all__ = ["Comparison", "UncertainPredicate", "ProbabilisticSelect"]


class Comparison(str, Enum):
    """Supported comparison operators for uncertain predicates."""

    GREATER = ">"
    LESS = "<"
    BETWEEN = "between"


@dataclass(frozen=True)
class UncertainPredicate:
    """A predicate ``attribute <op> threshold`` on an uncertain attribute.

    ``BETWEEN`` interprets ``threshold`` as the lower bound and
    ``upper`` as the upper bound.
    """

    attribute: str
    comparison: Comparison
    threshold: float
    upper: Optional[float] = None

    def __post_init__(self) -> None:
        if self.comparison is Comparison.BETWEEN and self.upper is None:
            raise ValueError("BETWEEN predicates require an upper bound")

    def probability(self, item: StreamTuple) -> float:
        """Return the probability that the predicate holds for ``item``."""
        dist = self._distribution(item)
        if self.comparison is Comparison.GREATER:
            return dist.prob_greater_than(self.threshold)
        if self.comparison is Comparison.LESS:
            return dist.prob_less_than(self.threshold)
        assert self.upper is not None
        return dist.prob_in_interval(self.threshold, self.upper)

    def _distribution(self, item: StreamTuple) -> Distribution:
        if not item.has_uncertain(self.attribute):
            raise OperatorError(
                f"tuple has no uncertain attribute {self.attribute!r} for predicate evaluation"
            )
        return item.distribution(self.attribute)

    def probabilities(self, batch: TupleBatch) -> np.ndarray:
        """Return the predicate probability for every tuple in ``batch``.

        When every row carries a scalar Gaussian for the attribute, the
        tail probabilities are computed with a single vectorised
        ``erf`` evaluation over the batch's ``(mu, sigma)`` columns --
        the same arithmetic the scalar Gaussian CDF performs per tuple,
        so both paths agree bit-for-bit.  Mixed or non-Gaussian batches
        fall back to the per-tuple evaluation.
        """
        params = batch.gaussian_params(self.attribute)
        if params is None:
            return np.asarray([self.probability(item) for item in batch], dtype=float)
        mu, sigma = params
        if self.comparison is Comparison.GREATER:
            return 1.0 - gaussian_cdf(self.threshold, mu, sigma)
        if self.comparison is Comparison.LESS:
            return gaussian_cdf(self.threshold, mu, sigma)
        assert self.upper is not None
        return gaussian_cdf(self.upper, mu, sigma) - gaussian_cdf(self.threshold, mu, sigma)


class ProbabilisticSelect(Operator):
    """Keep tuples whose uncertain predicate holds with enough probability.

    Parameters
    ----------
    predicate:
        The uncertain predicate to evaluate.
    min_probability:
        Minimum predicate probability required to keep the tuple.  A
        value of 0 keeps every tuple (useful when only the annotation is
        wanted); 0.5 mimics a "more likely than not" semantics.
    probability_attribute:
        Name of the deterministic attribute added to surviving tuples
        carrying the evaluated probability.  Set to ``None`` to skip the
        annotation.
    """

    def __init__(
        self,
        predicate: UncertainPredicate,
        min_probability: float = 0.5,
        probability_attribute: Optional[str] = "selection_probability",
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if not 0.0 <= min_probability <= 1.0:
            raise OperatorError("min_probability must lie in [0, 1]")
        self.predicate = predicate
        self.min_probability = min_probability
        self.probability_attribute = probability_attribute

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        """Vectorised selection: one tail-probability kernel per batch.

        Annotated survivors are built through the trusted-constructor
        fast path: the source tuples are already validated, so only the
        ``values`` dict needs copying to carry the probability.
        """
        probs = self.predicate.probabilities(batch)
        keep = probs >= self.min_probability
        if not keep.any():
            return TupleBatch()
        attribute = self.probability_attribute
        if attribute is None:
            return batch.select(keep)
        survivors = []
        append = survivors.append
        unchecked = StreamTuple._unchecked
        # tolist() yields plain Python bools/floats, avoiding per-element
        # numpy scalar boxing in the survivor loop.
        for item, kept, prob in zip(batch, keep.tolist(), probs.tolist()):
            if kept:
                values = dict(item.values)
                values[attribute] = prob
                append(
                    unchecked(item.timestamp, values, dict(item.uncertain), item.lineage)
                )
        return TupleBatch(survivors)
