"""The cost-aware planner: rewrite, lower, and wire logical plans.

``Planner.compile`` takes a validated :class:`LogicalPlan` through
three phases:

1. **Optimize** — apply the rewrite rules of :mod:`repro.plan.rewrites`
   (skippable with ``optimize=False`` for equivalence testing).
2. **Lower** — map each logical node to a physical
   :class:`~repro.streams.operators.base.Operator`, consulting the
   :class:`~repro.plan.cost.CostModel` for aggregates without an
   explicit SUM strategy.  Shared logical nodes lower to one shared
   physical box with fan-out arrows.  The node-by-node lowering lives
   in :class:`NodeLowering` so the continuous-query service
   (:mod:`repro.service`) can reuse it box-by-box when attaching
   queries to a running engine.
3. **Wire** — build a :class:`~repro.streams.engine.StreamEngine`, size
   its batches (cost model again, unless pinned), and attach one
   :class:`CollectSink` per plan output.

The result is a :class:`CompiledQuery`: push tuples in, ``finish()``,
read results — plus ``explain()`` (logical plan, rewrites, strategy and
execution decisions, physical boxes) and ``statistics()`` (per-box
counters from the engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.aggregation.operator import GroupByAggregate, UncertainAggregate
from repro.core.confidence import SummarizeResults
from repro.core.join import ProbabilisticJoin
from repro.core.selection import ProbabilisticSelect
from repro.streams.engine import StreamEngine
from repro.streams.operators.base import Operator, PassThroughOperator
from repro.streams.operators.basic import (
    AttributeDeriver,
    CollectSink,
    Filter,
    Union as UnionOperator,
)
from repro.streams.tuples import StreamTuple
from repro.streams.windows import TumblingCountWindow

from .cost import CostModel, ExecutionChoice, StrategyChoice
from .nodes import (
    AggregateNode,
    DeriveNode,
    FilterNode,
    JoinNode,
    LogicalNode,
    LogicalPlan,
    PipeNode,
    PlanError,
    ProbFilterNode,
    SourceNode,
    SummarizeNode,
    UnionNode,
    topological_nodes,
)
from .rewrites import DEFAULT_RULES, RewriteRule, RewriteTrace, apply_rewrites, default_rules

__all__ = ["Planner", "CompiledQuery", "NodeLowering", "compile_streams"]


@dataclass(frozen=True)
class _StrategyDecision:
    """Record of one cost-model strategy choice, for explain()."""

    node_label: str
    choice: StrategyChoice


class NodeLowering:
    """Node-by-node lowering of logical nodes onto physical operators.

    One instance covers one set of ``nodes`` (a topologically ordered
    plan): it propagates (family, rate_hint) source hints downstream so
    the cost model can size windows anywhere in the plan, resolves SUM
    strategies for aggregates that did not pin one, and records the
    strategy decisions and expected window sizes the batch-size choice
    needs.  ``Planner.compile`` drives it over a whole plan;
    :class:`repro.service.QuerySession` drives it per registered query,
    skipping nodes whose physical box already exists.
    """

    def __init__(self, cost_model: CostModel, nodes: Sequence[LogicalNode]):
        self.cost_model = cost_model
        self.strategy_decisions: List[_StrategyDecision] = []
        self.window_sizes: List[int] = []
        self._piped_operator_ids: set = set()
        # Propagate (family, rate_hint) hints from sources downstream.
        self._hints: Dict[int, Tuple[Optional[str], Optional[float]]] = {}
        for node in nodes:
            if isinstance(node, SourceNode):
                self._hints[id(node)] = (node.family, node.rate_hint)
            elif node.inputs:
                families = {self._hints.get(id(c), (None, None))[0] for c in node.inputs}
                rates = [self._hints.get(id(c), (None, None))[1] for c in node.inputs]
                family = families.pop() if len(families) == 1 else None
                rate = rates[0] if len(rates) == 1 else None
                self._hints[id(node)] = (family, rate)
            else:
                self._hints[id(node)] = (None, None)

    # ------------------------------------------------------------------
    # Aggregate helpers
    # ------------------------------------------------------------------
    def _resolve_strategy(self, node: AggregateNode):
        if node.strategy is not None or node.function not in ("sum", "avg"):
            return node.strategy
        family, rate = self._hints.get(id(node), (None, None))
        choice = self.cost_model.choose_sum_strategy(node.window, family, rate)
        self.strategy_decisions.append(_StrategyDecision(node.label(), choice))
        return choice.strategy

    def _note_window(self, node: AggregateNode) -> None:
        size = self.cost_model.expected_window_size(
            node.window, self._hints.get(id(node), (None, None))[1]
        )
        if size is None and isinstance(node.window, TumblingCountWindow):
            size = node.window.size
        if size is not None:
            self.window_sizes.append(size)

    def _build_aggregate(self, node: AggregateNode) -> Operator:
        strategy = self._resolve_strategy(node)
        self._note_window(node)
        common = dict(
            window=node.window,
            attribute=node.attribute,
            strategy=strategy,
            function=node.function,
            output_attribute=node.output_attribute,
            having=node.having,
            check_independence=node.check_independence,
        )
        if node.key is not None:
            return GroupByAggregate(key_function=node.key, **common)
        return UncertainAggregate(**common)

    # ------------------------------------------------------------------
    # Node lowering
    # ------------------------------------------------------------------
    def source_operator(self, node: SourceNode) -> Operator:
        """The physical entry box for a source: a named pass-through."""
        return PassThroughOperator(name=f"source:{node.name}")

    def lower(self, node: LogicalNode) -> Operator:
        """Create the physical operator for one non-source node (unwired)."""
        op: Operator
        if isinstance(node, SourceNode):
            raise PlanError("sources are wired, not lowered")  # pragma: no cover
        elif isinstance(node, DeriveNode):
            op = AttributeDeriver(
                value_functions=dict(node.value_functions),
                uncertain_functions=dict(node.uncertain_functions),
            )
        elif isinstance(node, FilterNode):
            op = Filter(node.predicate, name=f"Filter[{node.description or 'λ'}]")
        elif isinstance(node, ProbFilterNode):
            op = ProbabilisticSelect(
                node.predicate(),
                min_probability=node.min_probability,
                probability_attribute=node.annotate,
            )
        elif isinstance(node, AggregateNode):
            op = self._build_aggregate(node)
        elif isinstance(node, JoinNode):
            op = ProbabilisticJoin(
                window_length=node.window_length,
                match_probability=node.on,
                min_probability=node.min_probability,
                prefix_left=node.prefix_left,
                prefix_right=node.prefix_right,
                probability_attribute=node.probability_attribute,
            )
        elif isinstance(node, UnionNode):
            op = UnionOperator()
        elif isinstance(node, SummarizeNode):
            op = SummarizeResults(
                node.attribute,
                confidence=node.confidence,
                keep_distribution=node.keep_distribution,
            )
        elif isinstance(node, PipeNode):
            op = node.operator
            # Piped operators are stateful instances: wiring one into
            # two plans (a second compile(), or two pipe() calls with
            # the same instance) would cross-connect the engines.
            if id(op) in self._piped_operator_ids:
                raise PlanError(
                    f"operator {op.name!r} is piped into this plan twice; "
                    "each pipe() needs its own operator instance"
                )
            if op.downstream:
                raise PlanError(
                    f"piped operator {op.name!r} is already wired into a plan; "
                    "a Stream containing pipe() can only be compiled once"
                )
            self._piped_operator_ids.add(id(op))
        else:  # pragma: no cover - new node type not yet lowered
            raise PlanError(f"no lowering for node type {type(node).__name__}")
        return op


class CompiledQuery:
    """A compiled query: engine, named sources, one sink per output.

    Single-output queries behave like a classic compiled query:
    ``push(source, item)`` / ``push_many(source, items)`` /
    ``finish() -> results``.  Multi-output plans expose each output's
    results via :meth:`output`.
    """

    def __init__(
        self,
        engine: StreamEngine,
        sources: List[str],
        sinks: Dict[str, CollectSink],
        logical_plan: LogicalPlan,
        optimized_plan: LogicalPlan,
        rewrites: List[RewriteTrace],
        execution: ExecutionChoice,
        strategy_decisions: List[_StrategyDecision],
        operator_tags: List[Tuple[Operator, LogicalNode]],
    ):
        self.engine = engine
        self.sources = sources
        self._sinks = sinks
        self.logical_plan = logical_plan
        self.optimized_plan = optimized_plan
        self.rewrites = rewrites
        self.execution = execution
        self.strategy_decisions = strategy_decisions
        self._operator_tags = operator_tags

    # ------------------------------------------------------------------
    # Data flow
    # ------------------------------------------------------------------
    def push(self, source: str, item: StreamTuple) -> None:
        """Push one tuple (a batch of one)."""
        self.engine.push(source, item)

    def push_many(self, source: str, items) -> None:
        """Push many tuples in batches of the compiled batch size."""
        self.engine.push_many(source, items)

    def push_batch(self, source: str, batch) -> None:
        """Push an explicit batch as given."""
        self.engine.push_batch(source, batch)

    def finish(self) -> List[StreamTuple]:
        """Flush the plan; return the primary (first) output's results."""
        self.engine.finish()
        return self.results

    @property
    def results(self) -> List[StreamTuple]:
        """Results of the primary (first) output."""
        return self.output(self.logical_plan.names[0])

    def output(self, name: str) -> List[StreamTuple]:
        """Results collected for the named plan output."""
        try:
            sink = self._sinks[name]
        except KeyError as exc:
            raise PlanError(
                f"unknown output {name!r}; outputs are {sorted(self._sinks)}"
            ) from exc
        return list(sink.results)

    @property
    def output_names(self) -> List[str]:
        return list(self.logical_plan.names)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def statistics(self, detailed: bool = False):
        """Per-box statistics from the engine (see ``StreamEngine.statistics``)."""
        return self.engine.statistics(detailed=detailed)

    def explain(self) -> str:
        """Full report: logical plan, rewrites, decisions, physical plan."""
        lines: List[str] = ["Logical plan", "============"]
        lines.append(self.logical_plan.explain())
        lines.append("")
        lines.append("Rewrites")
        lines.append("========")
        if self.rewrites:
            lines.extend(f"- {t.rule}: {t.description}" for t in self.rewrites)
        else:
            lines.append("(none applied)")
        lines.append("")
        lines.append("Cost model")
        lines.append("==========")
        for decision in self.strategy_decisions:
            lines.append(
                f"- strategy for {decision.node_label}: "
                f"{decision.choice.strategy.name} ({decision.choice.reason})"
            )
        lines.append(
            f"- execution: batch(batch_size={self.execution.batch_size}) "
            f"({self.execution.reason})"
        )
        lines.append("")
        lines.append("Physical plan")
        lines.append("=============")
        for op, node in self._operator_tags:
            lines.append(f"- {op.name} <- {node.label()}")
        return "\n".join(lines)


class Planner:
    """Rewrites logical plans and lowers them onto the stream engine."""

    def __init__(
        self,
        rules: Sequence[RewriteRule] = DEFAULT_RULES,
        cost_model: Optional[CostModel] = None,
    ):
        self.cost_model = cost_model or CostModel()
        if rules is DEFAULT_RULES and cost_model is not None:
            # Bind the ordering rules to the caller's cost model so its
            # selectivity estimates drive the filter-ordering ranks.
            rules = default_rules(self.cost_model)
        self.rules = tuple(rules)

    # ------------------------------------------------------------------
    # Phase 1: rewrite
    # ------------------------------------------------------------------
    def optimize(self, plan: LogicalPlan) -> Tuple[LogicalPlan, List[RewriteTrace]]:
        """Apply this planner's rewrite rules; returns (plan, trace)."""
        return apply_rewrites(plan, self.rules)

    # ------------------------------------------------------------------
    # Phases 2+3: lower and wire
    # ------------------------------------------------------------------
    def compile(
        self,
        plan: LogicalPlan,
        batch_size: Optional[int] = None,
        optimize: bool = True,
    ) -> CompiledQuery:
        """Compile a validated logical plan into a runnable query.

        ``batch_size`` pins the rows per batch :meth:`CompiledQuery.push_many`
        cuts; by default the cost model sizes it.
        """
        plan.validate()
        if optimize:
            optimized, traces = self.optimize(plan)
            optimized.validate()
        else:
            optimized, traces = plan, []

        nodes = topological_nodes(optimized.outputs)
        lowering = NodeLowering(self.cost_model, nodes)
        lowered: Dict[int, Operator] = {}
        operator_tags: List[Tuple[Operator, LogicalNode]] = []
        engine_sources: Dict[str, Operator] = {}

        def physical(node: LogicalNode) -> Operator:
            cached = lowered.get(id(node))
            if cached is not None:
                return cached
            if isinstance(node, SourceNode):
                op = lowering.source_operator(node)
                engine_sources[node.name] = op
                operator_tags.append((op, node))
            else:
                op = lowering.lower(node)
                operator_tags.append((op, node))
                if isinstance(node, JoinNode):
                    left_op = physical(node.left)
                    right_op = physical(node.right)
                    left_op.connect(op.left_port())
                    right_op.connect(op.right_port())
                else:
                    for child in node.inputs:
                        physical(child).connect(op)
            lowered[id(node)] = op
            return op

        sinks: Dict[str, CollectSink] = {}
        for name, root in zip(optimized.names, optimized.outputs):
            root_op = physical(root)
            sink = CollectSink(name=f"sink:{name}")
            root_op.connect(sink)
            sinks[name] = sink

        # Present boxes in dataflow order (sources first) in explain().
        topo_index = {id(n): i for i, n in enumerate(nodes)}
        operator_tags.sort(key=lambda pair: topo_index.get(id(pair[1]), len(topo_index)))

        execution = self.cost_model.choose_execution(lowering.window_sizes)
        if batch_size is not None:
            execution = ExecutionChoice(
                batch_size, f"pinned by compile(batch_size={batch_size})"
            )
        engine = StreamEngine(batch_size=execution.batch_size)
        for name, entry in engine_sources.items():
            engine.add_source(name, entry)
        for op, _ in operator_tags:
            engine.register(op)
        for sink in sinks.values():
            engine.register(sink)
        engine.validate()

        return CompiledQuery(
            engine=engine,
            sources=sorted(engine_sources),
            sinks=sinks,
            logical_plan=plan,
            optimized_plan=optimized,
            rewrites=traces,
            execution=execution,
            strategy_decisions=lowering.strategy_decisions,
            operator_tags=operator_tags,
        )


def compile_streams(
    outputs: Dict[str, "Stream"],
    batch_size: Optional[int] = None,
    optimize: bool = True,
    planner: Optional[Planner] = None,
) -> CompiledQuery:
    """Compile several named output streams into one multi-output query.

    This is the Figure 2 shape: one shared prefix (a T operator) feeding
    several monitoring queries.  Shared Stream handles lower to shared
    physical boxes, so the common prefix executes once::

        query = compile_streams({"q1": heavy_areas, "q2": hot_objects})
        query.push_many("rfid", tuples)
        query.finish()
        alerts = query.output("q1")
    """
    from .builder import Stream

    if not outputs:
        raise PlanError("compile_streams() needs at least one named output stream")
    for name, stream in outputs.items():
        if not isinstance(stream, Stream):
            raise PlanError(f"output {name!r} is not a Stream")
    plan = LogicalPlan(
        outputs=tuple(s.node for s in outputs.values()),
        names=tuple(outputs.keys()),
    )
    plan.validate()
    active = planner or Planner()
    return active.compile(plan, batch_size=batch_size, optimize=optimize)
