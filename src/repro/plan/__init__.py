"""Declarative query layer: builder -> logical plan IR -> cost-aware planner.

This package is the "compiled from a query" path of the paper's
Section 3, structured like a small DBMS front end:

* :class:`Stream` (:mod:`repro.plan.builder`) — fluent, DAG-capable
  query builder.  Handles are immutable; reuse one handle in two
  chains for fan-out, ``join``/``union`` for fan-in.
* :mod:`repro.plan.nodes` — the immutable logical plan IR with schema
  checking and ``explain()``.
* :mod:`repro.plan.rewrites` — semantics-preserving rewrite rules
  (filter pushdown, filter fusion, unread annotations dropped).
* :mod:`repro.plan.cost` — the cost model choosing SUM strategies
  (CF approximation / CLT / CF inversion) and the batch size.
* :class:`Planner` / :class:`CompiledQuery`
  (:mod:`repro.plan.planner`) — lowering onto the
  :class:`~repro.streams.engine.StreamEngine`, end-to-end
  ``explain()`` and per-box ``statistics()``.
* :class:`PlanHost` (:mod:`repro.plan.planner`) — the box table every
  in-process plan runs in: one engine, one entry box per source name,
  boxes keyed by structural fingerprint (:mod:`repro.plan.fingerprint`)
  and shared by every plan (or query of a
  :class:`~repro.service.QuerySession`) that needs them, with per-plan
  state snapshots and statistics.

Quick taste::

    from repro.plan import Stream
    from repro.streams import TumblingCountWindow

    query = (
        Stream.source("sensors", uncertain=("value",), family="gmm")
        .where_probably("value", ">", 20.0)
        .window(TumblingCountWindow(100))
        .aggregate("value")            # strategy chosen by the cost model
        .summarize("sum_value")
        .compile()
    )
    print(query.explain())
    query.push_many("sensors", tuples)
    results = query.finish()
"""

from .builder import Stream
from .cost import CostModel, ExecutionChoice, StrategyChoice
from .fingerprint import callable_fingerprint, node_fingerprint, plan_fingerprints
from .nodes import (
    AggregateNode,
    ColumnStat,
    DeriveNode,
    FilterNode,
    JoinNode,
    LogicalNode,
    LogicalPlan,
    PipeNode,
    PlanError,
    ProbFilterNode,
    SourceNode,
    StreamSchema,
    SummarizeNode,
    UnionNode,
    explain_logical,
)
from .planner import CompiledQuery, NodeLowering, PlanHost, Planner, compile_streams
from .sharding import (
    MergeSpec,
    ShardingDecision,
    explain_sharding,
    split_for_sharding,
)
from .rewrites import (
    DEFAULT_RULES,
    RewriteRule,
    RewriteTrace,
    apply_rewrites,
    default_rules,
    fuse_adjacent_filters,
    drop_unread_annotation,
    push_filter_below_derive,
    push_filter_below_join,
    reorder_cheap_filter_first,
    reorder_selective_prob_filter_first,
)

__all__ = [
    "Stream",
    "LogicalPlan",
    "LogicalNode",
    "SourceNode",
    "DeriveNode",
    "FilterNode",
    "ProbFilterNode",
    "AggregateNode",
    "JoinNode",
    "UnionNode",
    "SummarizeNode",
    "PipeNode",
    "StreamSchema",
    "PlanError",
    "explain_logical",
    "Planner",
    "CompiledQuery",
    "compile_streams",
    "CostModel",
    "StrategyChoice",
    "ExecutionChoice",
    "RewriteRule",
    "RewriteTrace",
    "apply_rewrites",
    "DEFAULT_RULES",
    "default_rules",
    "push_filter_below_derive",
    "push_filter_below_join",
    "fuse_adjacent_filters",
    "reorder_cheap_filter_first",
    "reorder_selective_prob_filter_first",
    "drop_unread_annotation",
    "NodeLowering",
    "PlanHost",
    "ColumnStat",
    "callable_fingerprint",
    "node_fingerprint",
    "plan_fingerprints",
    "MergeSpec",
    "ShardingDecision",
    "split_for_sharding",
    "explain_sharding",
]
