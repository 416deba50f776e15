"""The cost-aware planner: rewrite, lower, and host logical plans.

``Planner.compile`` takes a validated :class:`LogicalPlan` through
three phases:

1. **Optimize** — apply the rewrite rules of :mod:`repro.plan.rewrites`
   (skippable with ``optimize=False`` for equivalence testing).
2. **Lower** — map each logical node to a physical
   :class:`~repro.streams.operators.base.Operator`
   (:class:`NodeLowering`), consulting the
   :class:`~repro.plan.cost.CostModel` for aggregates without an
   explicit SUM strategy.
3. **Host** — attach the plan to a :class:`PlanHost`: the box table
   over one :class:`~repro.streams.engine.StreamEngine` that lowers
   each node no hosted box covers, wires it, and keys it by structural
   fingerprint, so structurally identical subtrees share one physical
   box with fan-out arrows.  The cost model sizes the engine's batches
   (unless pinned) and one :class:`CollectSink` is added per output.

The continuous-query service (:mod:`repro.service`) attaches and
detaches its queries through the same host, so one box table lowers,
wires, snapshots and reports every in-process plan.

The result is a :class:`CompiledQuery`: push tuples in, ``finish()``,
read results — plus ``explain()`` (logical plan, rewrites, strategy and
execution decisions, physical boxes) and ``statistics()`` (per-box
counters from the engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.core.aggregation.operator import GroupByAggregate, UncertainAggregate
from repro.core.confidence import SummarizeResults
from repro.core.join import ProbabilisticJoin
from repro.core.selection import ProbabilisticSelect
from repro.streams.engine import OperatorStats, StreamEngine
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
from .fingerprint import plan_fingerprints
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

__all__ = [
    "Planner",
    "CompiledQuery",
    "NodeLowering",
    "PlanHost",
    "HostedBox",
    "BoxReport",
    "compile_streams",
]


@dataclass(frozen=True)
class _StrategyDecision:
    """Record of one cost-model strategy choice, for explain()."""

    node_label: str
    choice: StrategyChoice

    def explain(self) -> str:
        strategy, reason = self.choice.strategy.name, self.choice.reason
        return f"- strategy for {self.node_label}: {strategy} ({reason})"


class NodeLowering:
    """Node-by-node lowering of logical nodes onto physical operators.

    One instance covers one set of ``nodes`` (a topologically ordered
    plan): it propagates (family, rate_hint) source hints downstream so
    the cost model can size windows anywhere in the plan, resolves SUM
    strategies for aggregates that did not pin one, and records the
    strategy decisions and expected window sizes the batch-size choice
    needs.  :meth:`PlanHost.attach` drives it over one attached plan,
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


@dataclass
class HostedBox:
    """One physical box of a :class:`PlanHost` and the plans that use it."""

    op: Operator
    node: LogicalNode  # representative logical node (the first attacher's)
    owners: List[str]
    #: Arrows wired *into* this box: (parent operator, connect target).
    #: The target differs from ``op`` only for joins, whose inputs go
    #: through port adapters.
    inbound: List[Tuple[Operator, Operator]]


@dataclass(frozen=True)
class BoxReport:
    """One physical box in a statistics report, with its owners."""

    stats: OperatorStats
    owners: Tuple[str, ...]

    @property
    def shared(self) -> bool:
        return len(self.owners) > 1


class PlanHost:
    """The box table: a running engine and the physical boxes of its plans.

    Boxes are keyed by structural fingerprint
    (:func:`~repro.plan.fingerprint.plan_fingerprints`), and a source's
    entry box by the source's name, so a subtree that is already hosted
    — by an earlier plan, or elsewhere in the same plan — is lowered
    once and shared.  Each attached plan has an *owner* name; a box
    lives while it has an owner, and a :attr:`declared` source's entry
    box outlives its last one.  :meth:`Planner.compile` attaches one
    plan to a fresh host; :class:`repro.service.QuerySession` attaches
    and detaches queries over its session's lifetime.

    ``boxes``, ``snapshot``, ``restore`` and ``statistics`` take an
    owner to cover that plan's boxes, or no owner to cover every box;
    either way the boxes come in dataflow order.
    """

    def __init__(self, engine: StreamEngine, cost_model: CostModel):
        self.engine = engine
        self.cost_model = cost_model
        #: Source name -> its entry box.
        self.entries: Dict[str, Operator] = {}
        #: Sources whose entry boxes outlive their last owner (a
        #: session's declared streams).
        self.declared: Set[str] = set()
        self._boxes: Dict[Hashable, HostedBox] = {}
        #: Owner -> the fingerprints of its boxes, in dataflow order.
        self._owned: Dict[str, Dict[Hashable, None]] = {}

    def attach(
        self, owner: str, outputs: Sequence[LogicalNode]
    ) -> Tuple[List[Operator], NodeLowering]:
        """Host the plan ending in ``outputs`` for ``owner``.

        Lowers each node no hosted box covers, wires it to its inputs'
        boxes and registers it with the engine.  Returns the box of each
        output, in order, and the lowering (its strategy decisions and
        window sizes).  A failure detaches everything the call attached.
        """
        nodes = topological_nodes(tuple(outputs))
        sources = {n.name: ("source", n.name) for n in nodes if isinstance(n, SourceNode)}
        fingerprints = plan_fingerprints(tuple(outputs), source_overrides=sources)
        lowering = NodeLowering(self.cost_model, nodes)
        owned = self._owned.setdefault(owner, {})
        try:
            for node in nodes:
                fingerprint = fingerprints[id(node)]
                box = self._boxes.get(fingerprint)
                if box is None:
                    box = self._lower(node, fingerprints, lowering)
                    self._boxes[fingerprint] = box
                if owner not in box.owners:
                    box.owners.append(owner)
                owned[fingerprint] = None
            self.engine.validate()
        except Exception:
            self.detach(owner)
            raise
        return [self._boxes[fingerprints[id(root)]].op for root in outputs], lowering

    def _lower(
        self,
        node: LogicalNode,
        fingerprints: Dict[int, Hashable],
        lowering: NodeLowering,
    ) -> HostedBox:
        if isinstance(node, SourceNode):
            entry = lowering.source_operator(node)
            self.engine.add_source(node.name, entry)
            self.entries[node.name] = entry
            return HostedBox(entry, node, [], [])
        op = lowering.lower(node)
        if isinstance(node, JoinNode):
            targets = [(node.left, op.left_port()), (node.right, op.right_port())]
        else:
            targets = [(child, op) for child in node.inputs]
        inbound = [
            (self._boxes[fingerprints[id(child)]].op, target) for child, target in targets
        ]
        for parent, target in inbound:
            parent.connect(target)
        self.engine.register(op)
        return HostedBox(op, node, [], inbound)

    def detach(self, owner: str) -> List[str]:
        """Remove ``owner``'s plan; returns the names of the sources removed.

        Boxes another owner still uses keep running with their state.
        The rest are disconnected from the boxes that survive them and
        unregistered, except the entry boxes of :attr:`declared`
        sources, which stay unowned.
        """
        removed: List[str] = []
        for fingerprint in reversed(list(self._owned.pop(owner, ()))):
            box = self._boxes[fingerprint]
            box.owners.remove(owner)
            if box.owners:
                continue
            if isinstance(box.node, SourceNode):
                if box.node.name in self.declared:
                    continue
                self.engine.remove_source(box.node.name)
                del self.entries[box.node.name]
                removed.append(box.node.name)
            else:
                for parent, target in box.inbound:
                    parent.disconnect(target)
                self.engine.unregister(box.op)
            del self._boxes[fingerprint]
        return removed

    def boxes(self, owner: Optional[str] = None) -> List[HostedBox]:
        """The boxes of ``owner``'s plan (of every plan when ``None``)."""
        if owner is None:
            return list(self._boxes.values())
        return [self._boxes[fingerprint] for fingerprint in self._owned[owner]]

    def snapshot(self, owner: Optional[str] = None) -> List[dict]:
        """Every box's state as ``{"name", "state"}`` entries, in box order."""
        return [
            {"name": box.op.name, "state": box.op.state_snapshot()}
            for box in self.boxes(owner)
        ]

    def restore(self, entries: List[dict], owner: Optional[str] = None) -> None:
        """Re-apply :meth:`snapshot` output onto the same plan, hosted anew.

        Entries restore by position; the box name at each position is
        checked, so a checkpoint of a different plan (or of the same
        query under different planner settings) raises
        :class:`~repro.recovery.state.StateError`.
        """
        from repro.recovery.state import StateError

        boxes = self.boxes(owner)
        if len(boxes) != len(entries):
            raise StateError(
                f"the plan has {len(boxes)} boxes, the checkpoint recorded "
                f"{len(entries)}; recover with the same query and planner "
                "settings as the checkpoint"
            )
        for box, entry in zip(boxes, entries):
            if box.op.name != entry["name"]:
                raise StateError(
                    f"box order mismatch: the plan has {box.op.name!r} where "
                    f"the checkpoint recorded {entry['name']!r}"
                )
            box.op.state_restore(entry["state"])

    def statistics(self, owner: Optional[str] = None) -> List[BoxReport]:
        """Per-box :class:`OperatorStats` with each box's owners."""
        scope, view = self.engine.obs_scope, obs.get_registry().operator_view
        return [
            BoxReport(OperatorStats(*view(scope, box.op).stats()), tuple(box.owners))
            for box in self.boxes(owner)
        ]


class CompiledQuery:
    """A compiled query: a plan host, named sources, one sink per output.

    Single-output queries behave like a classic compiled query:
    ``push(source, item)`` / ``push_many(source, items)`` /
    ``finish() -> results``.  Multi-output plans expose each output's
    results via :meth:`output`.  ``host`` is the :class:`PlanHost`
    holding the plan's boxes (their state snapshots and statistics).
    """

    def __init__(
        self,
        host: PlanHost,
        sinks: Dict[str, CollectSink],
        logical_plan: LogicalPlan,
        optimized_plan: LogicalPlan,
        rewrites: List[RewriteTrace],
        execution: ExecutionChoice,
        strategy_decisions: List[_StrategyDecision],
    ):
        self.host = host
        self.engine = host.engine
        self.sources = sorted(host.entries)
        self._sinks = sinks
        self.logical_plan = logical_plan
        self.optimized_plan = optimized_plan
        self.rewrites = rewrites
        self.execution = execution
        self.strategy_decisions = strategy_decisions

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

    def _sink(self, name: Optional[str]) -> CollectSink:
        if name is None:
            name = self.logical_plan.names[0]
        try:
            return self._sinks[name]
        except KeyError as exc:
            raise PlanError(
                f"unknown output {name!r}; outputs are {sorted(self._sinks)}"
            ) from exc

    def output(self, name: str) -> List[StreamTuple]:
        """Results collected for the named plan output."""
        return list(self._sink(name).results)

    def take(self, name: Optional[str] = None) -> List[StreamTuple]:
        """Drain and return the named (default: primary) output's results."""
        sink = self._sink(name)
        drained = list(sink.results)
        sink.results.clear()
        return drained

    @property
    def output_names(self) -> List[str]:
        return list(self.logical_plan.names)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def statistics(self) -> List[OperatorStats]:
        """Per-box statistics from the engine (see ``StreamEngine.statistics``)."""
        return self.engine.statistics()

    def explain(self) -> str:
        """Full report: logical plan, rewrites, decisions, physical plan."""
        lines: List[str] = ["Logical plan", "============"]
        lines.append(self.logical_plan.explain())
        lines.append("")
        lines.append("Rewrites")
        lines.append("========")
        lines.extend([f"- {t.rule}: {t.description}" for t in self.rewrites] or ["(none applied)"])
        lines.append("")
        lines.append("Cost model")
        lines.append("==========")
        lines.extend(decision.explain() for decision in self.strategy_decisions)
        lines.append(
            f"- execution: batch(batch_size={self.execution.batch_size}) "
            f"({self.execution.reason})"
        )
        lines.append("")
        lines.append("Physical plan")
        lines.append("=============")
        for box in self.host.boxes():
            lines.append(f"- {box.op.name} <- {box.node.label()}")
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

        # A pinned batch size is checked here; the cost model's choice
        # replaces the default once lowering has seen the windows.
        host = PlanHost(StreamEngine(batch_size=batch_size), self.cost_model)
        roots, lowering = host.attach("plan", optimized.outputs)
        sinks: Dict[str, CollectSink] = {}
        for name, root in zip(optimized.names, roots):
            sink = CollectSink(name=f"sink:{name}")
            root.connect(sink)
            host.engine.register(sink)
            sinks[name] = sink

        if batch_size is None:
            execution = self.cost_model.choose_execution(lowering.window_sizes)
            host.engine.batch_size = execution.batch_size
        else:
            execution = ExecutionChoice(
                batch_size, f"pinned by compile(batch_size={batch_size})"
            )
        return CompiledQuery(
            host=host,
            sinks=sinks,
            logical_plan=plan,
            optimized_plan=optimized,
            rewrites=traces,
            execution=execution,
            strategy_decisions=lowering.strategy_decisions,
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
