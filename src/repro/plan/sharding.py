"""Partition-aware planning: split a logical plan for sharded execution.

The sharded runtime (:mod:`repro.runtime`) replicates a *shard-local
segment* of the plan across N worker processes and recombines their
outputs in the coordinator.  This module decides where that split is
sound and builds both halves:

* **Row-wise plans** (filters, derives, probabilistic selections,
  summaries, unions, per-tuple ``[Now]`` aggregates) shard trivially:
  every tuple's output depends on that tuple alone, so the whole plan
  replicates and the coordinator only has to restore the global input
  order (which the runtime's global chunk ids preserve).
* **Time-window aggregates** split into a shard-local *partial*
  aggregate plus a coordinator *merge*: tumbling time windows assign
  tuples to windows by timestamp, so every shard closes the same window
  boundaries whichever shard a chunk lands on, and the moment-closed SUM
  strategies make the partials merge exactly
  (:mod:`repro.core.aggregation.merge`).  A probabilistic HAVING moves
  to the coordinator — it must see the merged result.  Row-wise nodes
  *above* the aggregate become the coordinator suffix.
* Everything else — joins (cross-stream state), count windows (window
  membership depends on the global interleave), sliding-window
  aggregates, piped operators (opaque state), non-moment-closed SUM
  strategies — does **not** shard: the decision names the blocker,
  :class:`repro.runtime.ShardedEngine` refuses the plan with it, and
  :class:`repro.service.QuerySession` runs the query in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.core.aggregation import MERGEABLE_FUNCTIONS, HavingClause, SumStrategy
from repro.streams.windows import NowWindow, TumblingTimeWindow

from .cost import CostModel
from .nodes import (
    AggregateNode,
    DeriveNode,
    FilterNode,
    LogicalNode,
    LogicalPlan,
    ProbFilterNode,
    SourceNode,
    SummarizeNode,
    UnionNode,
    consumer_counts,
    topological_nodes,
)
from .planner import NodeLowering

__all__ = [
    "MergeSpec",
    "ShardingDecision",
    "split_for_sharding",
    "explain_sharding",
    "PARTIAL_SOURCE",
]

#: Source name the coordinator suffix plan reads merged results from.
PARTIAL_SOURCE = "__merged__"

#: Node types whose output depends on one input tuple at a time.
_ROW_WISE = (SourceNode, FilterNode, ProbFilterNode, DeriveNode, SummarizeNode, UnionNode)


@dataclass(frozen=True)
class MergeSpec:
    """How the coordinator merges shard-local partial aggregates."""

    function: str  # the *query's* aggregate function (sum/avg/count)
    output_attribute: str  # final result attribute name
    partial_attribute: str  # attribute carrying the shard partials
    strategy: Optional[SumStrategy]  # resolved, moment-closed (None for count)
    having: Optional[HavingClause]
    grouped: bool
    check_independence: bool
    window_desc: str


@dataclass(frozen=True)
class ShardingDecision:
    """The outcome of :func:`split_for_sharding`.

    ``shardable`` plans carry a ``local`` plan replicated on every
    shard; ``merge`` is set for aggregate splits (with an optional
    row-wise ``suffix`` plan the coordinator runs on merged results)
    and ``None`` for row-wise plans, whose outputs are recombined by
    ordered chunk merge instead.
    """

    shardable: bool
    reason: str
    local: Optional[LogicalPlan] = None
    merge: Optional[MergeSpec] = None
    suffix: Optional[LogicalPlan] = None

    @property
    def ordered(self) -> bool:
        """True when outputs are recombined by ordered chunk merge."""
        return self.shardable and self.merge is None


def _unshardable(reason: str) -> ShardingDecision:
    return ShardingDecision(shardable=False, reason=reason)


def _is_row_local(node: LogicalNode) -> bool:
    """Output of ``node`` depends only on single tuples (any chunk placement)."""
    if isinstance(node, _ROW_WISE):
        return True
    return isinstance(node, AggregateNode) and isinstance(node.window, NowWindow)


def _splittable_aggregate(node: LogicalNode) -> Optional[AggregateNode]:
    """Return the AggregateNode to split at, or None."""
    if not isinstance(node, AggregateNode) or isinstance(node.window, NowWindow):
        return None  # not an aggregate, or row-local (no merge needed)
    return node


def _first_non_row_local(subtree: LogicalNode) -> Optional[LogicalNode]:
    for node in topological_nodes((subtree,)):
        if not _is_row_local(node):
            return node
    return None


def split_for_sharding(
    plan: LogicalPlan, cost_model: Optional[CostModel] = None
) -> ShardingDecision:
    """Split an (already optimized) single-output plan for sharding.

    The caller is expected to run the planner's rewrite rules first, so
    the split sees the same plan shape the single engine would execute.
    A refused plan (``shardable=False``) carries the blocker in
    ``reason``; :class:`repro.runtime.ShardedEngine` raises it as a
    :class:`~repro.plan.nodes.PlanError`, and
    :class:`repro.service.QuerySession` runs such a query in-process.
    """
    cost_model = cost_model or CostModel()
    if len(plan.outputs) != 1:
        return _unshardable(
            f"multi-output plans do not shard ({len(plan.outputs)} outputs); "
            "shard each output as its own query"
        )
    plan.validate()
    counts = consumer_counts(plan.outputs)

    # Walk the root chain downward collecting the row-wise suffix until
    # we hit a splittable aggregate, a source, or something unshardable.
    suffix_chain: List[LogicalNode] = []
    current: LogicalNode = plan.outputs[0]
    while True:
        agg = _splittable_aggregate(current)
        if agg is not None:
            return _split_at_aggregate(plan, agg, suffix_chain, counts, cost_model)
        if _is_row_local(current):
            inputs = current.inputs
            if len(inputs) != 1:
                break  # a source or union: no aggregate split on this chain
            if counts.get(id(inputs[0]), 0) > 1:
                break  # fan-out below; only a fully row-wise plan can shard
            suffix_chain.append(current)
            current = inputs[0]
            continue
        return _unshardable(_describe_blocker(current))

    # No aggregate split: the whole plan shards iff every node is row-wise.
    blocker = _first_non_row_local(plan.outputs[0])
    if blocker is not None:
        return _unshardable(_describe_blocker(blocker))
    return ShardingDecision(
        shardable=True,
        reason=(
            "row-wise plan: every box processes tuples independently; the "
            "whole plan replicates per shard and ordered chunk merge restores "
            "the global output order"
        ),
        local=plan,
        merge=None,
        suffix=None,
    )


def _describe_blocker(node: LogicalNode) -> str:
    label = node.label()
    if isinstance(node, AggregateNode):
        return (
            f"{label}: only tumbling *time* windows shard (window membership "
            "is determined by each tuple's timestamp); count and sliding "
            "windows depend on the global tuple interleave"
        )
    return (
        f"{label}: joins, piped operators and other stateful boxes need the "
        "whole stream in one place"
    )


def _split_at_aggregate(
    plan: LogicalPlan,
    agg: AggregateNode,
    suffix_chain: List[LogicalNode],
    counts,
    cost_model: CostModel,
) -> ShardingDecision:
    if not isinstance(agg.window, TumblingTimeWindow):
        return _unshardable(_describe_blocker(agg))
    if agg.function not in MERGEABLE_FUNCTIONS:
        return _unshardable(
            f"{agg.label()}: {agg.function!r} partials do not merge exactly "
            f"(mergeable: {MERGEABLE_FUNCTIONS}); MAX/MIN order statistics are "
            "grid-discretised, so composing per-shard results would drift"
        )
    if counts.get(id(agg), 0) > 1:
        return _unshardable(
            f"{agg.label()}: the aggregate's output fans out to several "
            "consumers; sharding would have to replicate the merge"
        )
    # Everything feeding the aggregate must itself be row-wise.
    blocker = _first_non_row_local(agg.input)
    if blocker is not None:
        return _unshardable(_describe_blocker(blocker))

    # Resolve the SUM strategy exactly as lowering would, so the merge
    # reproduces the single engine's arithmetic.
    strategy: Optional[SumStrategy] = None
    if agg.function in ("sum", "avg"):
        nodes = topological_nodes(plan.outputs)
        lowering = NodeLowering(cost_model, nodes)
        strategy = lowering._resolve_strategy(agg)
        if strategy is None or not strategy.supports_moments:
            name = type(strategy).__name__ if strategy is not None else "none"
            return _unshardable(
                f"{agg.label()}: resolved SUM strategy {name} is not "
                "moment-closed, so shard partials cannot be merged exactly"
            )

    partial_attribute = f"partial_{agg.result_attribute}"
    partial_agg = replace(
        agg,
        function="sum" if agg.function == "avg" else agg.function,
        strategy=strategy,
        having=None,
        output_attribute=partial_attribute,
    )
    local = LogicalPlan(outputs=(partial_agg,), names=("partials",))
    local.validate()

    suffix = _build_suffix(suffix_chain)
    merge = MergeSpec(
        function=agg.function,
        output_attribute=agg.result_attribute,
        partial_attribute=partial_attribute,
        strategy=strategy,
        having=agg.having,
        grouped=agg.key is not None,
        check_independence=agg.check_independence,
        window_desc=repr(agg.window),
    )
    strategy_desc = f", strategy={type(strategy).__name__}" if strategy else ""
    return ShardingDecision(
        shardable=True,
        reason=(
            f"split at {agg.label()}: shards run the partial aggregate "
            f"({partial_agg.function} into {partial_attribute!r}{strategy_desc}), "
            "the coordinator merges window moments"
            + (" and applies HAVING" if agg.having is not None else "")
        ),
        local=local,
        merge=merge,
        suffix=suffix,
    )


def _build_suffix(suffix_chain: List[LogicalNode]) -> Optional[LogicalPlan]:
    """Rebuild the root chain above the split over a merged-result source.

    ``suffix_chain`` is ordered root-first; the rebuilt plan reads from
    an open-schema source (the coordinator pushes merged result tuples
    into it), so schema checks that need upstream knowledge are
    skipped, exactly as for any open source.
    """
    if not suffix_chain:
        return None
    current: LogicalNode = SourceNode(name=PARTIAL_SOURCE)
    for node in reversed(suffix_chain):
        current = node.with_inputs(current)
    suffix = LogicalPlan(outputs=(current,))
    suffix.validate()
    return suffix


def explain_sharding(decision: ShardingDecision, workers: Optional[int] = None) -> str:
    """Render a sharding decision for ``explain()`` reports."""
    lines = ["Sharding", "========"]
    if workers is not None:
        lines.append(f"workers: {workers}")
    if not decision.shardable:
        lines.append("sharded: no (runs in-process)")
        lines.append(f"reason: {decision.reason}")
        return "\n".join(lines)
    lines.append("sharded: yes")
    lines.append(f"reason: {decision.reason}")
    lines.append("")
    lines.append("Shard-local segment (replicated per worker)")
    lines.append("-------------------------------------------")
    lines.append(decision.local.explain())
    lines.append("")
    lines.append("Coordinator merge")
    lines.append("-----------------")
    if decision.merge is None:
        lines.append("ordered chunk merge (restores global input order)")
    else:
        spec = decision.merge
        strategy = type(spec.strategy).__name__ if spec.strategy else "count"
        lines.append(
            f"window-partial merge: {spec.function}({spec.partial_attribute}) "
            f"per {spec.window_desc}"
            + (" per group" if spec.grouped else "")
            + f" via {strategy}"
        )
        if spec.having is not None:
            lines.append(
                f"HAVING on merged result: P[> {spec.having.threshold}] "
                f">= {spec.having.min_probability}"
            )
    if decision.suffix is not None:
        lines.append("")
        lines.append("Coordinator suffix")
        lines.append("------------------")
        lines.append(decision.suffix.explain())
    return "\n".join(lines)
