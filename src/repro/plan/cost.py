"""Cost model: SUM-strategy selection and batch sizing.

The paper's Table 2 measures the speed/accuracy trade-off of the SUM
algorithms; this module encodes its conclusions as a small, fully
deterministic cost model the planner consults when the query does not
pin a strategy explicitly:

* **CLT** is (nearly) free and accurate once the window holds enough
  summands — the error of the Gaussian approximation shrinks like
  ``O(1/sqrt(n))``, so past ``clt_window_threshold`` summands it wins
  outright.
* **CF approximation** (single component) matches the first two
  cumulants in closed form — exact for Gaussian inputs at CLT-level
  cost, and the best speed/accuracy balance for mid-sized non-Gaussian
  windows (the paper's headline choice).
* **CF inversion** is exact but pays a quadrature per window; it is
  only worth it for *small* windows of non-Gaussian summands, where
  the CLT has not kicked in and the inversion cost is bounded.

Every plan runs on batches; the model sizes them so a windowed
aggregate sees whole windows per bulk insert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.aggregation import CFApproximationSum, CFInversionSum, CLTSum, SumStrategy
from repro.core.selection import Comparison
from repro.streams.windows import (
    NowWindow,
    SlidingTimeWindow,
    TumblingCountWindow,
    TumblingTimeWindow,
    WindowSpec,
)

from .nodes import (
    ColumnStat,
    DeriveNode,
    FilterNode,
    LogicalNode,
    ProbFilterNode,
    SourceNode,
)

__all__ = ["CostModel", "StrategyChoice", "ExecutionChoice"]

#: Distribution families for which the 2-cumulant CF fit is *exact*.
_MOMENT_CLOSED_FAMILIES = frozenset({"gaussian", "normal"})


@dataclass(frozen=True)
class StrategyChoice:
    """A cost-model strategy decision plus its one-line justification."""

    strategy: SumStrategy
    reason: str


@dataclass(frozen=True)
class ExecutionChoice:
    """A cost-model execution decision (batch size) and why."""

    batch_size: int
    reason: str


class CostModel:
    """Deterministic cost model for strategy and batch-size choices.

    Thresholds are tunable so experiments can shift the trade-off
    points; the defaults follow the Table 2 discussion (see module
    docstring).
    """

    def __init__(
        self,
        clt_window_threshold: int = 50,
        inversion_window_limit: int = 8,
        default_batch_size: int = 256,
        det_filter_cost: float = 1.0,
        prob_filter_cost: float = 4.0,
        default_filter_selectivity: float = 0.5,
    ):
        if clt_window_threshold < 2:
            raise ValueError("clt_window_threshold must be at least 2")
        if inversion_window_limit < 1:
            raise ValueError("inversion_window_limit must be at least 1")
        if default_batch_size < 1:
            raise ValueError("default_batch_size must be at least 1")
        if det_filter_cost <= 0.0 or prob_filter_cost <= 0.0:
            raise ValueError("filter costs must be positive")
        if not 0.0 <= default_filter_selectivity <= 1.0:
            raise ValueError("default_filter_selectivity must lie in [0, 1]")
        self.clt_window_threshold = clt_window_threshold
        self.inversion_window_limit = inversion_window_limit
        self.default_batch_size = default_batch_size
        self.det_filter_cost = det_filter_cost
        self.prob_filter_cost = prob_filter_cost
        self.default_filter_selectivity = default_filter_selectivity

    # ------------------------------------------------------------------
    # Window sizing
    # ------------------------------------------------------------------
    def expected_window_size(
        self, window: WindowSpec, rate_hint: Optional[float]
    ) -> Optional[int]:
        """Estimate how many tuples one window will hold (None = unknown)."""
        if isinstance(window, TumblingCountWindow):
            return window.size
        if isinstance(window, NowWindow):
            return 1
        if isinstance(window, (TumblingTimeWindow, SlidingTimeWindow)) and rate_hint:
            return max(1, int(round(window.length * rate_hint)))
        return None

    # ------------------------------------------------------------------
    # SUM strategy
    # ------------------------------------------------------------------
    def choose_sum_strategy(
        self,
        window: WindowSpec,
        family: Optional[str],
        rate_hint: Optional[float] = None,
    ) -> StrategyChoice:
        """Pick the SUM/AVG strategy for an aggregate without an explicit one."""
        n = self.expected_window_size(window, rate_hint)
        family_key = family.lower() if family else None

        if family_key in _MOMENT_CLOSED_FAMILIES:
            return StrategyChoice(
                CFApproximationSum(),
                f"family={family_key}: 2-cumulant CF fit is exact for Gaussian summands",
            )
        if n is not None and n >= self.clt_window_threshold:
            return StrategyChoice(
                CLTSum(),
                f"window of ~{n} summands >= {self.clt_window_threshold}: "
                "CLT error is negligible at near-zero cost",
            )
        if n is not None and n <= self.inversion_window_limit:
            return StrategyChoice(
                CFInversionSum(),
                f"small window of ~{n} non-Gaussian summands: "
                "exact CF inversion is affordable",
            )
        size_desc = "unknown size" if n is None else f"~{n} summands"
        return StrategyChoice(
            CFApproximationSum(),
            f"window of {size_desc}: CF approximation is the best "
            "speed/accuracy balance (Table 2)",
        )

    # ------------------------------------------------------------------
    # Filter selectivity
    # ------------------------------------------------------------------
    def column_stat_for(
        self, node: LogicalNode, attribute: str
    ) -> Optional[ColumnStat]:
        """Find the source-declared statistics for ``attribute`` above ``node``.

        Walks upstream through row-wise nodes (filters, derives that do
        not introduce the attribute) to the :class:`SourceNode`.  Any
        shape-changing node (join, union, aggregate, pipe) ends the
        walk: the attribute's population there is not the declared one.
        """
        current: LogicalNode = node
        while True:
            if isinstance(current, SourceNode):
                return current.stat_for(attribute)
            if isinstance(current, DeriveNode):
                if attribute in current.introduced:
                    return None
            elif not isinstance(current, (FilterNode, ProbFilterNode)):
                return None
            inputs = current.inputs
            if len(inputs) != 1:
                return None
            current = inputs[0]

    @staticmethod
    def comparison_pass_rate(
        stat: ColumnStat,
        comparison: Comparison,
        threshold: float,
        upper: Optional[float] = None,
    ) -> float:
        """Pass-rate of a constant comparison under the declared CDF."""
        if stat.family == "uniform":

            def cdf(x: float) -> float:
                return min(1.0, max(0.0, (x - stat.a) / (stat.b - stat.a)))

        else:  # gaussian / normal

            def cdf(x: float) -> float:
                return 0.5 * (1.0 + math.erf((x - stat.a) / (stat.b * math.sqrt(2.0))))

        if comparison is Comparison.GREATER:
            rate = 1.0 - cdf(threshold)
        elif comparison is Comparison.LESS:
            rate = cdf(threshold)
        else:  # BETWEEN
            rate = cdf(upper if upper is not None else threshold) - cdf(threshold)
        return min(1.0, max(0.0, rate))

    def prob_filter_selectivity(self, node: ProbFilterNode) -> Optional[float]:
        """Estimate a probabilistic filter's pass-rate, or None.

        First-order estimate: the declared column statistics describe
        how the attribute varies *across* tuples, per-tuple uncertainty
        is taken as small against that spread, and upstream filters on
        the same attribute are ignored — so the pass-rate is simply the
        declared CDF evaluated at the comparison constants.
        """
        stat = self.column_stat_for(node.input, node.attribute)
        if stat is None:
            return None
        return self.comparison_pass_rate(
            stat, node.comparison, node.threshold, node.upper
        )

    def filter_cost(self, node: LogicalNode) -> float:
        """Relative per-tuple evaluation cost of a row filter."""
        if isinstance(node, FilterNode):
            return node.cost_hint if node.cost_hint is not None else self.det_filter_cost
        if isinstance(node, ProbFilterNode):
            return self.prob_filter_cost
        raise ValueError(f"not a row filter node: {type(node).__name__}")

    def filter_selectivity(self, node: LogicalNode) -> float:
        """Estimated pass-rate of a row filter (default when unknown)."""
        if isinstance(node, ProbFilterNode):
            estimate = self.prob_filter_selectivity(node)
            if estimate is not None:
                return estimate
        return self.default_filter_selectivity

    def prefer_first(self, first: LogicalNode, second: LogicalNode) -> bool:
        """Should ``first`` run before ``second`` (both row filters)?

        Classic predicate ordering: evaluating ``first`` then
        ``second`` costs ``c1 + s1*c2`` per input tuple versus
        ``c2 + s2*c1`` for the other order; the cheaper product of
        selectivity × cost wins.  Ties keep the current order.
        """
        c1, s1 = self.filter_cost(first), self.filter_selectivity(first)
        c2, s2 = self.filter_cost(second), self.filter_selectivity(second)
        return c1 + s1 * c2 < c2 + s2 * c1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def choose_execution(self, window_sizes: Sequence[int] = ()) -> ExecutionChoice:
        """Size the batches a lowered physical plan runs on.

        The batch size is the default, stretched to cover the largest
        expected window (see :meth:`resolve_batch_size`).
        """
        batch_size = self.resolve_batch_size(None, window_sizes)
        reason = (
            f"stretched to the largest expected window ({max(window_sizes)} rows)"
            if batch_size != self.default_batch_size
            else "default"
        )
        return ExecutionChoice(batch_size, reason)

    def resolve_batch_size(
        self, batch_size: Optional[int], window_sizes: Sequence[int] = ()
    ) -> int:
        """The explicit batch size, else the default stretched to the largest window."""
        if batch_size is not None:
            return batch_size
        if window_sizes:
            return max(self.default_batch_size, *window_sizes)
        return self.default_batch_size
