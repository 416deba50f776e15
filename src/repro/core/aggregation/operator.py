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

import itertools
from dataclasses import dataclass
from numbers import Real
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions import Distribution, Gaussian
from repro.distributions.gaussian import gaussian_cdf
from repro.streams.batch import TupleBatch, concat_lineage, ragged_take, summand_moments
from repro.streams.lineage import lineage_union
from repro.streams.operators.base import Operator, OperatorError
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowBuffer, WindowClose, WindowSpec

from .order_statistics import max_distribution, min_distribution
from .strategies import SumStrategy, _check_summands
from .transforms import affine_distribution

__all__ = [
    "HavingClause",
    "UncertainAggregate",
    "GroupByAggregate",
    "ColumnKey",
    "AGGREGATE_FUNCTIONS",
]

#: Aggregate functions supported by the uncertain aggregation operators.
AGGREGATE_FUNCTIONS = ("sum", "avg", "count", "max", "min")

_OVERLAP_ERROR = (
    "window contains tuples with overlapping lineage; use a lineage-aware "
    "aggregation (see repro.core.lineage_ops) or disable check_independence"
)

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


def _segment_moments(
    batch: TupleBatch, begin: int, end: int, attribute: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Summand means and variances of ``batch``'s rows ``begin:end``.

    The batch's moment columns when every row carries a scalar
    distribution; otherwise rows missing the uncertain attribute are
    promoted (or refused) by :func:`_extract_summand`, and non-scalar
    summands are refused by ``_check_summands``, exactly as on the
    per-window loop.
    """
    columns = batch.moments(attribute)
    if columns is not None:
        return columns[0][begin:end], columns[1][begin:end]
    summands = [_extract_summand(item, attribute) for item in batch._tuples[begin:end]]
    return summand_moments(_check_summands(summands, attribute))


def _segment_lineage(batch: TupleBatch, begin: int, end: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(ids, offsets)`` lineage column of ``batch``'s rows ``begin:end``."""
    ids, offsets = batch.lineage_ids()
    first, last = int(offsets[begin]), int(offsets[end])
    return ids[first:last], offsets[begin : end + 1] - first


def _join(parts: Sequence[np.ndarray]) -> np.ndarray:
    """One array of the per-segment parts (no copy when there is one)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _segments(closes: Sequence[WindowClose]):
    """The non-empty closes, each one's row count, and their rows as segments.

    Consecutive segments that continue each other in one batch are
    merged, so a batch that closed many windows is sliced once.
    """
    kept, sizes, segments = [], [], []
    for close in closes:
        size = 0
        for batch, begin, end in close.segments:
            size += end - begin
            if segments and segments[-1][0] is batch and segments[-1][2] == begin:
                segments[-1][2] = end
            else:
                segments.append([batch, begin, end])
        if size:
            kept.append(close)
            sizes.append(size)
    return kept, np.array(sizes, dtype=np.int64), segments


class ColumnKey:
    """A group key that is one attribute of the row (``GROUP BY <attribute>``).

    Called on a row it returns the attribute's deterministic value, else
    its distribution, as a CQL expression reads an attribute.  The
    moment kernel reads it as a column instead, ``value_column(column)``
    once per batch; any other key callable fills that column row by row.
    """

    def __init__(self, column: str):
        self.column = column

    def __call__(self, item: StreamTuple) -> Hashable:
        if self.column in item.values:
            return item.values[self.column]
        if self.column in item.uncertain:
            return item.uncertain[self.column]
        raise KeyError(f"attribute {self.column!r} not present on tuple")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ColumnKey({self.column!r})"


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
    """The result tuple of one (window, group) that passed HAVING.

    ``lineage`` is the non-empty union of the group's lineages, so the
    tuple is built from these fresh parts without re-validation.
    """
    values: Dict[str, Any] = {
        "window_start": window_start,
        "window_end": window_end,
        "window_count": count,
    }
    uncertain: Dict[str, Distribution] = {}
    if group_key is not None:
        values["group"] = group_key
    if not isinstance(result, int):  # a distribution; only COUNT's result is a number
        if having_probability is not None:
            values["having_probability"] = having_probability
        uncertain[output_attribute] = result
        mean = result.mean()
        if type(mean) is not float:
            mean = float(np.asarray(mean).ravel()[0])
        values[f"{output_attribute}_mean"] = mean
    else:
        values[output_attribute] = result
    return StreamTuple._unchecked(window_end, values, uncertain, lineage)


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
            raise OperatorError(_OVERLAP_ERROR)
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

    def _segment_keys(self, batch: TupleBatch, begin: int, end: int) -> np.ndarray:
        """The group key of ``batch``'s rows ``begin:end``: a column read
        for a :class:`ColumnKey`, else (or when a row holds the key
        elsewhere, or lacks it) a call per row."""
        key = self.key_function
        if isinstance(key, ColumnKey):
            try:
                return batch.value_column(key.column)[begin:end]
            except KeyError:
                pass
        return np.fromiter(map(key, batch._tuples[begin:end]), dtype=object, count=end - begin)

    def _moment_kernel(self, closes: Sequence[WindowClose]) -> List[StreamTuple]:
        """Reduce every SUM/AVG (window, group) that a batch closed in one array pass.

        The closes' rows are read from their segments' batch columns: the
        group key, the lineage ids and the summand moments.  Every row is
        labelled ``window * n + key`` (a key is numbered by the first row
        holding it, so equal keys such as ``1``, ``1.0`` and ``True``
        share a number), one stable argsort lays the groups out, and one
        ``np.add.reduceat`` per moment sums every group at once.  One
        duplicate test over the lineage ids checks independence for all
        groups before anything is emitted, and one ``gaussian_cdf`` call
        evaluates every HAVING tail.  Groups are emitted windows in close
        order, then keys sorted by ``repr`` (ties in first-seen order),
        each group keyed by the first of its equal keys seen in the
        window; only the groups that pass get a lineage set, a
        ``Gaussian`` and a result tuple.
        """
        if not closes:
            return []
        closes, sizes, segments = _segments(closes)
        if not closes:
            return []
        n = int(sizes.sum())
        # Groups: their rows in ``order``, starting at ``starts``.
        if self.key_function is None:
            order = None
            starts = np.zeros(len(closes), dtype=np.int64)
            np.cumsum(sizes[:-1], out=starts[1:])
            group_window = list(range(len(closes)))
            keys = [None] * len(closes)
            emission = range(len(closes))
        else:
            key_column = _join([self._segment_keys(*segment) for segment in segments])
            first_seen: Dict[Hashable, int] = {}
            codes = np.fromiter(
                map(first_seen.setdefault, key_column, itertools.count()), np.int64, n
            )
            labels = np.repeat(np.arange(len(closes), dtype=np.int64) * n, sizes) + codes
            order = np.argsort(labels, kind="stable")
            labels = labels[order]
            starts = np.concatenate(([0], np.flatnonzero(labels[1:] != labels[:-1]) + 1))
            first_rows = order[starts]
            group_window = (labels[starts] // n).tolist()
            keys = key_column[first_rows].tolist()
            ranks = list(zip(group_window, map(repr, keys), first_rows.tolist()))
            emission = sorted(range(len(starts)), key=ranks.__getitem__)
        counts = np.diff(np.append(starts, n))
        lineage = concat_lineage([_segment_lineage(*segment) for segment in segments])
        lineage_ids, lineage_starts = self._group_lineage(*lineage, order, starts)
        means, variances = map(
            _join, zip(*(_segment_moments(*segment, self.attribute) for segment in segments))
        )
        if order is not None:
            means, variances = means[order], variances[order]
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
        if self.having is not None:
            tails = 1.0 - gaussian_cdf(self.having.threshold, mu, sigma)
            passing = (tails >= self.having.min_probability).tolist()
            emission = [g for g in emission if passing[g]]
            probabilities = tails.tolist()
        mu, sigma, counts = mu.tolist(), sigma.tolist(), counts.tolist()
        bounds, lineage_ids = lineage_starts.tolist(), lineage_ids.tolist()
        out = []
        for g in emission:
            close = closes[group_window[g]]
            out.append(
                _window_tuple(
                    close.start,
                    close.end,
                    counts[g],
                    frozenset(lineage_ids[bounds[g] : bounds[g + 1]]),
                    self.output_attribute,
                    Gaussian(mu[g], sigma[g]),
                    keys[g],
                    None if probabilities is None else probabilities[g],
                )
            )
        return out

    def _group_lineage(
        self, ids: np.ndarray, offsets: np.ndarray, order: Optional[np.ndarray], starts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The rows' lineage ids laid out group after group.

        Returns the ids and each group's start in them (one entry more
        than there are groups).  Raises the overlapping-lineage error when
        two rows of one group share a base tuple and independence is
        checked.
        """
        # Ids strictly increasing in row order are all distinct: the
        # common case of source tuples, each its own lineage, in order.
        distinct = bool(np.all(ids[1:] > ids[:-1]))
        if order is not None:
            ids, offsets = ragged_take(ids, offsets, order)
        bounds = np.append(offsets[starts], offsets[-1])
        if self.check_independence and not distinct:
            group = np.repeat(np.arange(len(starts)), np.diff(bounds))
            by_id = np.lexsort((ids, group))
            same = (ids[by_id][1:] == ids[by_id][:-1]) & (group[by_id][1:] == group[by_id][:-1])
            if same.any():
                raise OperatorError(_OVERLAP_ERROR)
        return ids, bounds

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
