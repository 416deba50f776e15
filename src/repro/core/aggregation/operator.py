"""Windowed aggregation operators over uncertain tuple streams.

These operators plug the result-distribution strategies of
:mod:`repro.core.aggregation.strategies` into the box-arrow engine:
tuples are buffered into windows; when a window closes the operator
characterises the distribution of the aggregate (SUM, AVG, COUNT, MAX,
MIN) of a chosen uncertain attribute and emits one result tuple per
window (per group for GROUP BY) carrying that distribution.

A HAVING clause is supported in its probabilistic form: "emit the group
if the aggregate exceeds the threshold with at least the requested
probability", which is how query Q1's ``Having sum(weight) > 200
pounds`` behaves once weights and group membership become uncertain.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions import Distribution, Gaussian
from repro.distributions.gaussian import gaussian_cdf
from repro.streams.batch import TupleBatch, summand_moments
from repro.streams.lineage import lineage_union
from repro.streams.operators.base import Operator, OperatorError
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowBuffer, WindowClose, WindowSpec

from .order_statistics import max_distribution, min_distribution
from .strategies import SumStrategy, _check_summands
from .transforms import affine_distribution

__all__ = ["HavingClause", "UncertainAggregate", "GroupByAggregate", "AGGREGATE_FUNCTIONS"]

#: Aggregate functions supported by the uncertain aggregation operators.
AGGREGATE_FUNCTIONS = ("sum", "avg", "count", "max", "min")

#: Standard deviation assigned to deterministic numeric summands so they
#: can participate in CF-based computations without special cases.
_DEGENERATE_SIGMA = 1e-9


@dataclass(frozen=True)
class HavingClause:
    """A probabilistic HAVING filter on the aggregate result.

    Emit the result only if ``P[aggregate > threshold] >= min_probability``.
    With the default ``min_probability=0.5`` this reduces to the common
    "expected value exceeds the threshold" reading for symmetric result
    distributions.
    """

    threshold: float
    min_probability: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_probability <= 1.0:
            raise ValueError("min_probability must lie in [0, 1]")

    def accepts(self, result: Distribution) -> bool:
        return result.prob_greater_than(self.threshold) >= self.min_probability

    def probability(self, result: Distribution) -> float:
        return result.prob_greater_than(self.threshold)


def _extract_summand(item: StreamTuple, attribute: str) -> Distribution:
    """Return the attribute as a Distribution, promoting numeric constants."""
    if item.has_uncertain(attribute):
        return item.distribution(attribute)
    if item.has_value(attribute):
        value = item.value(attribute)
        if isinstance(value, Real):
            return Gaussian(float(value), _DEGENERATE_SIGMA)
        raise OperatorError(
            f"attribute {attribute!r} is neither a distribution nor numeric: {type(value).__name__}"
        )
    raise OperatorError(f"tuple is missing aggregation attribute {attribute!r}")


def _aggregate_window(
    items: Sequence[StreamTuple], attribute: str, function: str, strategy: SumStrategy
) -> Distribution | int:
    """Compute the aggregate distribution for one closed window (per-window loop)."""
    if function == "count":
        return len(items)
    summands = [_extract_summand(item, attribute) for item in items]
    if function == "sum":
        return strategy.result_distribution(_check_summands(summands, attribute))
    if function == "avg":
        total = strategy.result_distribution(_check_summands(summands, attribute))
        return affine_distribution(total, scale=1.0 / len(summands))
    if function == "max":
        return max_distribution(summands)
    if function == "min":
        return min_distribution(summands)
    raise OperatorError(f"unsupported aggregate function {function!r}")


def _moment_columns(rows: Sequence[StreamTuple], attribute: str) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row summand means and variances, in row order.

    Rows missing the uncertain attribute are promoted (or refused) by
    :func:`_extract_summand`, and non-scalar summands are refused by
    ``_check_summands``, exactly as on the per-window loop.
    """
    columns = TupleBatch(rows).moments(attribute)
    if columns is None:
        summands = [_extract_summand(item, attribute) for item in rows]
        columns = summand_moments(_check_summands(summands, attribute))
    return columns


def _window_tuple(
    window_start: float,
    window_end: float,
    count: int,
    lineage: frozenset,
    output_attribute: str,
    result: Distribution | int,
    group_key: Optional[Hashable] = None,
    having_probability: Optional[float] = None,
) -> StreamTuple:
    """The result tuple of one (window, group) that passed HAVING."""
    values: Dict[str, Any] = {
        "window_start": window_start,
        "window_end": window_end,
        "window_count": count,
    }
    uncertain: Dict[str, Distribution] = {}
    if group_key is not None:
        values["group"] = group_key
    if isinstance(result, Distribution):
        if having_probability is not None:
            values["having_probability"] = having_probability
        uncertain[output_attribute] = result
        values[f"{output_attribute}_mean"] = float(np.asarray(result.mean()).ravel()[0])
    else:
        values[output_attribute] = result
    return StreamTuple(timestamp=window_end, values=values, uncertain=uncertain, lineage=lineage)


def _result_tuple_from_parts(
    window_start: float,
    window_end: float,
    result: Distribution | int,
    count: int,
    lineage: frozenset,
    output_attribute: str,
    group_key: Optional[Hashable] = None,
    having: Optional[HavingClause] = None,
) -> Optional[StreamTuple]:
    """Build a window result tuple from already-reduced parts.

    Shared by the in-window aggregation path (which reduces the window
    items itself) and the sharded runtime's partial-state merge
    (:mod:`repro.core.aggregation.merge`), so both produce structurally
    identical result tuples.
    """
    probability: Optional[float] = None
    if having is not None:
        if isinstance(result, Distribution):
            probability = having.probability(result)
            if not probability >= having.min_probability:
                return None
        elif not result > having.threshold:
            return None
    return _window_tuple(
        window_start, window_end, count, lineage, output_attribute, result, group_key, probability
    )


class _WindowAggregate(Operator):
    """Buffering, emission and checkpoint state shared by the windowed aggregates.

    ``process_batch`` and ``flush`` emit the windows they close with
    :meth:`_moment_kernel` whenever a SUM/AVG strategy works from
    moments alone, and with the per-window loop otherwise.
    """

    #: Group key of a row; ``None`` aggregates each window as one group.
    key_function: Optional[Callable[[StreamTuple], Hashable]] = None

    def __init__(
        self,
        window: WindowSpec,
        attribute: str,
        strategy: SumStrategy,
        function: str = "sum",
        output_attribute: Optional[str] = None,
        having: Optional[HavingClause] = None,
        check_independence: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if function not in AGGREGATE_FUNCTIONS:
            raise OperatorError(
                f"unsupported aggregate function {function!r}; choose from {AGGREGATE_FUNCTIONS}"
            )
        self.window = window
        self.attribute = attribute
        self.strategy = strategy
        self.function = function
        self.output_attribute = output_attribute or f"{function}_{attribute}"
        self.having = having
        self.check_independence = check_independence
        self._buffer: WindowBuffer = window.new_buffer()

    def _groups(self, items) -> List[Tuple[Optional[Hashable], List[StreamTuple]]]:
        """One window's ``(key, members)`` groups, keys sorted by ``repr``."""
        if self.key_function is None:
            return [(None, list(items))]
        groups: Dict[Hashable, List[StreamTuple]] = {}
        for item in items:
            groups.setdefault(self.key_function(item), []).append(item)
        return [(key, groups[key]) for key in sorted(groups, key=repr)]

    def _lineage(self, members: Sequence[StreamTuple]) -> frozenset:
        """The group's lineage; SUM/AVG refuse members that share a base tuple."""
        union, disjoint = lineage_union(members)
        if not disjoint and self.check_independence and self.function in ("sum", "avg"):
            raise OperatorError(
                "window contains tuples with overlapping lineage; use a lineage-aware "
                "aggregation (see repro.core.lineage_ops) or disable check_independence"
            )
        return union

    def _emit(self, closes: Iterable[WindowClose]) -> Iterable[StreamTuple]:
        """The per-window loop: one aggregate per (window, group)."""
        for close in closes:
            if not close.items:
                continue
            for key, members in self._groups(close.items):
                lineage = self._lineage(members)
                out = _result_tuple_from_parts(
                    close.start,
                    close.end,
                    _aggregate_window(members, self.attribute, self.function, self.strategy),
                    len(members),
                    lineage,
                    self.output_attribute,
                    group_key=key,
                    having=self.having,
                )
                if out is not None:
                    yield out

    def _emit_batch(self, closes: Sequence[WindowClose]) -> List[StreamTuple]:
        """Emit a batch's closes: the moment kernel where it applies, else the loop."""
        if self.function in ("sum", "avg") and self.strategy.supports_moments:
            return self._moment_kernel(closes)
        return list(self._emit(closes))

    def _moment_kernel(self, closes: Sequence[WindowClose]) -> List[StreamTuple]:
        """Reduce every SUM/AVG (window, group) that a batch closed in one array pass.

        The closes' rows are laid out group after group in emission order
        -- windows in close order, then keys sorted by ``repr`` -- so one
        ``np.add.reduceat`` per moment sums every group at once and one
        ``gaussian_cdf`` call evaluates every HAVING tail.  Only the groups
        that pass get a ``Gaussian`` and a result tuple.
        """
        groups = [
            (close, key, members)
            for close in closes
            if close.items
            for key, members in self._groups(close.items)
        ]
        if not groups:
            return []
        unions = [self._lineage(members) for _, _, members in groups]
        counts = np.fromiter((len(members) for _, _, members in groups), np.intp, len(groups))
        starts = np.zeros(len(groups), dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        rows = [item for _, _, members in groups for item in members]
        means, variances = _moment_columns(rows, self.attribute)
        mean = np.add.reduceat(means, starts)
        variance = np.add.reduceat(variances, starts)
        invalid = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(variance) & (variance > 0)))
        if invalid.size:
            # The strategy raises its own error for the first bad group.
            first = invalid[0]
            self.strategy.result_from_moments(float(mean[first]), float(variance[first]))
        mu, sigma = mean, np.sqrt(variance)
        if self.function == "avg":
            scale = 1.0 / counts
            mu, sigma = mu * scale, sigma * scale
        probabilities = None
        passing = range(len(groups))
        if self.having is not None:
            probabilities = 1.0 - gaussian_cdf(self.having.threshold, mu, sigma)
            passing = np.flatnonzero(probabilities >= self.having.min_probability).tolist()
        out = []
        for g in passing:
            close, key, members = groups[g]
            out.append(
                _window_tuple(
                    close.start,
                    close.end,
                    len(members),
                    unions[g],
                    self.output_attribute,
                    Gaussian(float(mu[g]), float(sigma[g])),
                    key,
                    None if probabilities is None else float(probabilities[g]),
                )
            )
        return out

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        """Bulk-add a batch to the window buffer and emit its closes in one pass."""
        return TupleBatch(self._emit_batch(self._buffer.add_many(batch)))

    def flush(self) -> Iterable[StreamTuple]:
        return self._emit_batch(self._buffer.flush())

    def state_snapshot(self) -> dict:
        # Moments are computed at window close, so the only mutable
        # state is the buffered open window.
        return {"buffer": self._buffer.state_snapshot()}

    def state_restore(self, state: Optional[dict]) -> None:
        if state is None:
            raise OperatorError(f"{self.name!r} expected a buffered-window state")
        self._buffer.state_restore(state["buffer"])


class UncertainAggregate(_WindowAggregate):
    """Windowed aggregation of one uncertain attribute.

    Parameters
    ----------
    window:
        Window specification (tumbling count/time, etc.).
    attribute:
        Name of the attribute to aggregate.  Uncertain attributes are
        used as-is; deterministic numeric attributes are promoted to
        near-degenerate Gaussians.
    strategy:
        The :class:`SumStrategy` used for SUM/AVG result distributions.
    function:
        One of ``sum``, ``avg``, ``count``, ``max``, ``min``.
    output_attribute:
        Name of the emitted result attribute; defaults to
        ``f"{function}_{attribute}"``.
    having:
        Optional probabilistic HAVING clause.
    check_independence:
        If True (default), reject windows whose tuples share lineage,
        since the independent-summand strategies would silently produce
        a wrong variance for correlated inputs.
    """


class GroupByAggregate(_WindowAggregate):
    """Windowed GROUP BY + aggregate + HAVING over uncertain tuples.

    Mirrors the outer block of query Q1: tuples in each window are
    partitioned by a deterministic grouping key (e.g. the shelf area),
    the chosen attribute is aggregated per group, and groups passing the
    probabilistic HAVING clause are emitted, one result tuple per group.

    Parameters
    ----------
    window:
        Window specification; windows close independently of grouping.
    key_function:
        Function of the input tuple returning a hashable group key.
    attribute, strategy, function, having, check_independence:
        As for :class:`UncertainAggregate`.
    """

    def __init__(
        self,
        window: WindowSpec,
        key_function: Callable[[StreamTuple], Hashable],
        attribute: str,
        strategy: SumStrategy,
        function: str = "sum",
        output_attribute: Optional[str] = None,
        having: Optional[HavingClause] = None,
        check_independence: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(
            window, attribute, strategy, function, output_attribute, having,
            check_independence, name,
        )
        self.key_function = key_function
