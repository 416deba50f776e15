"""Uncertain aggregation: result-distribution strategies and operators."""

from .merge import (
    MERGEABLE_FUNCTIONS,
    MergeError,
    WindowPartial,
    extract_partial,
    merge_sum_distributions,
    merge_window_partials,
)
from .operator import (
    AGGREGATE_FUNCTIONS,
    ColumnKey,
    GroupByAggregate,
    HavingClause,
    UncertainAggregate,
)
from .order_statistics import max_distribution, min_distribution
from .strategies import (
    CFApproximationSum,
    CFInversionSum,
    CLTSum,
    ConvolutionSum,
    HistogramSamplingSum,
    MonteCarloSum,
    SumStrategy,
    TimeSeriesCLTSum,
    strategy_by_name,
)
from .transforms import affine_distribution, scale_distribution, shift_distribution

__all__ = [
    "SumStrategy",
    "CFInversionSum",
    "CFApproximationSum",
    "HistogramSamplingSum",
    "MonteCarloSum",
    "CLTSum",
    "ConvolutionSum",
    "TimeSeriesCLTSum",
    "strategy_by_name",
    "UncertainAggregate",
    "GroupByAggregate",
    "ColumnKey",
    "HavingClause",
    "AGGREGATE_FUNCTIONS",
    "max_distribution",
    "min_distribution",
    "shift_distribution",
    "scale_distribution",
    "affine_distribution",
    "MergeError",
    "WindowPartial",
    "extract_partial",
    "merge_sum_distributions",
    "merge_window_partials",
    "MERGEABLE_FUNCTIONS",
]
