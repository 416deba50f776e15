"""Logical plan IR: immutable node dataclasses for declarative queries.

Section 3 of the paper describes every workload as a box-arrow diagram
"compiled from a query".  This module is the *logical* half of that
compilation: a query built with :class:`repro.plan.Stream` produces an
immutable DAG of the node types below, which the planner
(:mod:`repro.plan.planner`) rewrites and lowers to physical
:class:`~repro.streams.operators.base.Operator` boxes.

Design notes
------------
* Nodes are frozen dataclasses.  A node never mutates after
  construction; rewrites build new nodes.  Fan-out is expressed by
  *sharing*: two consumers holding the same node object read the same
  intermediate stream, and the planner lowers a shared node to a single
  physical box with two downstream arrows.
* Each node can infer its output :class:`StreamSchema` from its inputs.
  Schemas are *optional*: a source declared without attributes has an
  open schema and downstream checks are skipped, mirroring the repo's
  schema-optional tuples.
* :func:`explain_logical` renders the DAG as an indented tree (shared
  subtrees are printed once and referenced), which `Stream.explain()`
  and `CompiledQuery.explain()` embed in their reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.aggregation import AGGREGATE_FUNCTIONS, HavingClause, SumStrategy
from repro.core.selection import Comparison, UncertainPredicate
from repro.streams.operators.base import Operator
from repro.streams.windows import WindowSpec

__all__ = [
    "PlanError",
    "StreamSchema",
    "ColumnStat",
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
    "LogicalPlan",
    "topological_nodes",
    "consumer_counts",
    "explain_logical",
]


class PlanError(Exception):
    """Raised for malformed logical plans (unknown attributes, bad wiring)."""


# ----------------------------------------------------------------------
# Schema inference
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamSchema:
    """The attributes known to be present on a logical stream.

    ``None`` for either attribute set means "unknown / open": the
    source did not declare its shape, so downstream reference checks
    are skipped for that attribute kind.
    """

    values: Optional[FrozenSet[str]] = None
    uncertain: Optional[FrozenSet[str]] = None

    @staticmethod
    def open() -> StreamSchema:
        return StreamSchema(None, None)

    @property
    def is_open(self) -> bool:
        return self.values is None and self.uncertain is None

    def with_values(self, *names: str) -> StreamSchema:
        if self.values is None:
            return self
        return replace(self, values=self.values | frozenset(names))

    def with_uncertain(self, *names: str) -> StreamSchema:
        if self.uncertain is None:
            return self
        return replace(self, uncertain=self.uncertain | frozenset(names))

    def require_uncertain(self, name: str, context: str) -> None:
        if self.uncertain is not None and name not in self.uncertain:
            raise PlanError(
                f"{context}: uncertain attribute {name!r} is not produced upstream "
                f"(known: {sorted(self.uncertain)})"
            )

    def require_any(self, name: str, context: str) -> None:
        if self.values is None or self.uncertain is None:
            return
        if name not in self.values and name not in self.uncertain:
            raise PlanError(
                f"{context}: attribute {name!r} is not produced upstream "
                f"(known values: {sorted(self.values)}, "
                f"uncertain: {sorted(self.uncertain)})"
            )


@dataclass(frozen=True)
class ColumnStat:
    """Declared population statistics for one source column.

    ``family`` is ``"gaussian"`` (``a`` = mean, ``b`` = standard
    deviation) or ``"uniform"`` (``a`` = low, ``b`` = high).  The cost
    model uses these to estimate the pass-rate of constant-comparison
    filters from the family's CDF (see
    :meth:`~repro.plan.cost.CostModel.prob_filter_selectivity`).
    """

    attribute: str
    family: str
    a: float
    b: float

    def __post_init__(self) -> None:
        family = self.family.lower()
        object.__setattr__(self, "family", family)
        if family not in ("gaussian", "normal", "uniform"):
            raise PlanError(
                f"column stat for {self.attribute!r}: unsupported family {family!r} "
                "(use 'gaussian' or 'uniform')"
            )
        if family == "uniform" and self.b <= self.a:
            raise PlanError(
                f"column stat for {self.attribute!r}: uniform needs high > low"
            )
        if family in ("gaussian", "normal") and self.b <= 0.0:
            raise PlanError(
                f"column stat for {self.attribute!r}: gaussian needs a positive std"
            )


# ----------------------------------------------------------------------
# Node types
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class LogicalNode:
    """Base class for logical plan nodes.

    Equality is identity (``eq=False``): sharing a node object *is* the
    DAG fan-out, so two structurally equal nodes are still distinct
    streams.
    """

    @property
    def inputs(self) -> Tuple["LogicalNode", ...]:
        return ()

    def with_inputs(self, *inputs: LogicalNode) -> LogicalNode:
        """Return a copy of this node reading from ``inputs`` instead."""
        raise NotImplementedError

    def output_schema(self) -> StreamSchema:
        """Infer the schema of this node's output stream."""
        raise NotImplementedError

    def label(self) -> str:
        """One-line description used by ``explain()``."""
        return type(self).__name__

    def validate(self) -> None:
        """Check this node against its input schemas (default: schema only)."""
        self.output_schema()


def _callable_name(fn: Callable) -> str:
    name = getattr(fn, "__name__", None)
    if name is None or name == "<lambda>":
        return "λ"
    return name


@dataclass(frozen=True, eq=False)
class SourceNode(LogicalNode):
    """A named input stream, optionally with a declared schema.

    Parameters
    ----------
    name:
        Engine source name used by ``CompiledQuery.push(name, ...)``.
    values / uncertain:
        Optional declared attribute names.  Declaring them enables
        reference checking throughout the plan.
    family:
        Declared distribution family of the uncertain attributes
        (``"gaussian"``, ``"gmm"``, ``"empirical"``, ...).  The cost
        model uses it to pick the SUM strategy and the batch size.
    rate_hint:
        Expected tuples per second; lets the cost model convert a time
        window into an expected window size.
    stats:
        Optional per-column population statistics
        (:class:`ColumnStat`); the cost model estimates filter
        selectivities from them.
    """

    name: str = "input"
    values: Optional[FrozenSet[str]] = None
    uncertain: Optional[FrozenSet[str]] = None
    family: Optional[str] = None
    rate_hint: Optional[float] = None
    stats: Optional[Tuple[ColumnStat, ...]] = None

    def stat_for(self, attribute: str) -> Optional[ColumnStat]:
        """Return the declared statistics for ``attribute``, if any."""
        for stat in self.stats or ():
            if stat.attribute == attribute:
                return stat
        return None

    def with_inputs(self, *inputs: LogicalNode) -> SourceNode:
        if inputs:
            raise PlanError("SourceNode takes no inputs")
        return self

    def output_schema(self) -> StreamSchema:
        return StreamSchema(
            None if self.values is None else frozenset(self.values),
            None if self.uncertain is None else frozenset(self.uncertain),
        )

    def label(self) -> str:
        parts = [f"Source[{self.name}"]
        if self.family is not None:
            parts.append(f", family={self.family}")
        parts.append("]")
        return "".join(parts)


@dataclass(frozen=True, eq=False)
class DeriveNode(LogicalNode):
    """Add derived attributes (the inner Select of Q1)."""

    input: LogicalNode
    value_functions: Tuple[Tuple[str, Callable], ...] = ()
    uncertain_functions: Tuple[Tuple[str, Callable], ...] = ()

    @property
    def inputs(self) -> Tuple[LogicalNode, ...]:
        return (self.input,)

    def with_inputs(self, *inputs: LogicalNode) -> DeriveNode:
        (node,) = inputs
        return replace(self, input=node)

    @property
    def introduced(self) -> FrozenSet[str]:
        """All attribute names this node introduces."""
        return frozenset(name for name, _ in self.value_functions) | frozenset(
            name for name, _ in self.uncertain_functions
        )

    def output_schema(self) -> StreamSchema:
        schema = self.input.output_schema()
        schema = schema.with_values(*(name for name, _ in self.value_functions))
        return schema.with_uncertain(*(name for name, _ in self.uncertain_functions))

    def validate(self) -> None:
        if not self.value_functions and not self.uncertain_functions:
            raise PlanError("derive() needs at least one derivation function")
        self.output_schema()

    def label(self) -> str:
        names = ", ".join(sorted(self.introduced))
        return f"Derive[{names}]"


@dataclass(frozen=True, eq=False)
class FilterNode(LogicalNode):
    """A deterministic filter (opaque predicate over the tuple).

    ``uses`` optionally declares which attributes the predicate reads;
    the planner can only push a filter below a derive or reorder it
    when the touched attributes are known.  ``cost_hint`` declares the
    predicate's per-tuple cost relative to a trivial comparison (1.0);
    the cost model's filter-ordering rank uses it.
    """

    input: LogicalNode
    predicate: Callable[..., bool]
    uses: Optional[FrozenSet[str]] = None
    description: Optional[str] = None
    cost_hint: Optional[float] = None

    @property
    def inputs(self) -> Tuple[LogicalNode, ...]:
        return (self.input,)

    def with_inputs(self, *inputs: LogicalNode) -> FilterNode:
        (node,) = inputs
        return replace(self, input=node)

    def output_schema(self) -> StreamSchema:
        schema = self.input.output_schema()
        if self.uses is not None:
            for name in sorted(self.uses):
                schema.require_any(name, "where()")
        return schema

    def label(self) -> str:
        desc = self.description or _callable_name(self.predicate)
        if self.uses:
            return f"Filter[{desc}, uses={{{', '.join(sorted(self.uses))}}}]"
        return f"Filter[{desc}]"


@dataclass(frozen=True, eq=False)
class ProbFilterNode(LogicalNode):
    """A probabilistic filter on one uncertain attribute (Section 5, Q2).

    ``annotate`` names the deterministic attribute that will carry the
    evaluated predicate probability on surviving tuples; ``None`` skips
    the annotation (and makes the filter eligible for pushdown below a
    join, since no annotation name needs re-prefixing).
    """

    input: LogicalNode
    attribute: str
    comparison: Comparison
    threshold: float
    upper: Optional[float] = None
    min_probability: float = 0.5
    annotate: Optional[str] = "selection_probability"

    @property
    def inputs(self) -> Tuple[LogicalNode, ...]:
        return (self.input,)

    def with_inputs(self, *inputs: LogicalNode) -> ProbFilterNode:
        (node,) = inputs
        return replace(self, input=node)

    def predicate(self) -> UncertainPredicate:
        return UncertainPredicate(self.attribute, self.comparison, self.threshold, self.upper)

    def output_schema(self) -> StreamSchema:
        schema = self.input.output_schema()
        schema.require_uncertain(self.attribute, "where_probably()")
        if self.annotate is not None:
            schema = schema.with_values(self.annotate)
        return schema

    def validate(self) -> None:
        if not 0.0 <= self.min_probability <= 1.0:
            raise PlanError("min_probability must lie in [0, 1]")
        if self.comparison is Comparison.BETWEEN and self.upper is None:
            raise PlanError("BETWEEN predicates require an upper bound")
        self.output_schema()

    def label(self) -> str:
        if self.comparison is Comparison.BETWEEN:
            pred = f"{self.threshold} <= {self.attribute} <= {self.upper}"
        else:
            pred = f"{self.attribute} {self.comparison.value} {self.threshold}"
        annotation = "" if self.annotate is None else f", annotate={self.annotate}"
        return f"ProbFilter[{pred}, p>={self.min_probability}{annotation}]"


@dataclass(frozen=True, eq=False)
class AggregateNode(LogicalNode):
    """Windowed aggregation, optionally grouped, with a probabilistic HAVING.

    ``strategy=None`` asks the planner's cost model to choose the SUM
    strategy from the window size and the declared distribution family.
    """

    input: LogicalNode
    window: WindowSpec
    attribute: str
    function: str = "sum"
    strategy: Optional[SumStrategy] = None
    key: Optional[Callable[..., Hashable]] = None
    having: Optional[HavingClause] = None
    output_attribute: Optional[str] = None
    check_independence: bool = True

    @property
    def inputs(self) -> Tuple[LogicalNode, ...]:
        return (self.input,)

    def with_inputs(self, *inputs: LogicalNode) -> AggregateNode:
        (node,) = inputs
        return replace(self, input=node)

    @property
    def result_attribute(self) -> str:
        return self.output_attribute or f"{self.function}_{self.attribute}"

    def output_schema(self) -> StreamSchema:
        schema = self.input.output_schema()
        if self.function != "count":
            schema.require_any(self.attribute, "aggregate()")
        values = {"window_start", "window_end", "window_count"}
        uncertain = set()
        if self.key is not None:
            values.add("group")
        if self.function == "count":
            values.add(self.result_attribute)
        else:
            uncertain.add(self.result_attribute)
            values.add(f"{self.result_attribute}_mean")
            if self.having is not None:
                values.add("having_probability")
        return StreamSchema(frozenset(values), frozenset(uncertain))

    def validate(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise PlanError(
                f"unsupported aggregate function {self.function!r}; "
                f"choose from {AGGREGATE_FUNCTIONS}"
            )
        self.output_schema()

    def label(self) -> str:
        parts = [f"Aggregate[{self.function}({self.attribute}) @ {self.window!r}"]
        if self.key is not None:
            parts.append(f", group_by={_callable_name(self.key)}")
        if self.strategy is None:
            parts.append(", strategy=auto")
        else:
            parts.append(f", strategy={self.strategy.name}")
        if self.having is not None:
            parts.append(
                f", having P[> {self.having.threshold}] >= {self.having.min_probability}"
            )
        parts.append("]")
        return "".join(parts)


@dataclass(frozen=True, eq=False)
class JoinNode(LogicalNode):
    """Symmetric sliding-window probabilistic join of two streams (Q2)."""

    left: LogicalNode
    right: LogicalNode
    on: Callable[..., float]
    window_length: float = 3.0
    min_probability: float = 0.5
    prefix_left: str = "left_"
    prefix_right: str = "right_"
    probability_attribute: str = "match_probability"

    @property
    def inputs(self) -> Tuple[LogicalNode, ...]:
        return (self.left, self.right)

    def with_inputs(self, *inputs: LogicalNode) -> JoinNode:
        left, right = inputs
        return replace(self, left=left, right=right)

    def output_schema(self) -> StreamSchema:
        left = self.left.output_schema()
        right = self.right.output_schema()

        def prefixed(names: Optional[FrozenSet[str]], prefix: str) -> Optional[FrozenSet[str]]:
            if names is None:
                return None
            return frozenset(f"{prefix}{name}" for name in names)

        lv, rv = prefixed(left.values, self.prefix_left), prefixed(right.values, self.prefix_right)
        lu = prefixed(left.uncertain, self.prefix_left)
        ru = prefixed(right.uncertain, self.prefix_right)
        values = None if lv is None or rv is None else lv | rv | {self.probability_attribute}
        uncertain = None if lu is None or ru is None else lu | ru
        return StreamSchema(values, uncertain)

    def validate(self) -> None:
        if self.window_length <= 0:
            raise PlanError("join window_length must be positive")
        if not 0.0 <= self.min_probability <= 1.0:
            raise PlanError("join min_probability must lie in [0, 1]")
        self.output_schema()

    def label(self) -> str:
        return (
            f"Join[on={_callable_name(self.on)}, window={self.window_length}s, "
            f"p>={self.min_probability}]"
        )


@dataclass(frozen=True, eq=False)
class UnionNode(LogicalNode):
    """Merge several streams into one (identity per tuple)."""

    sources: Tuple[LogicalNode, ...] = ()

    @property
    def inputs(self) -> Tuple[LogicalNode, ...]:
        return self.sources

    def with_inputs(self, *inputs: LogicalNode) -> UnionNode:
        return replace(self, sources=tuple(inputs))

    def output_schema(self) -> StreamSchema:
        schemas = [node.output_schema() for node in self.sources]
        values: Optional[FrozenSet[str]] = None
        uncertain: Optional[FrozenSet[str]] = None
        for schema in schemas:
            if schema.values is None:
                values = None
                break
            values = schema.values if values is None else values & schema.values
        for schema in schemas:
            if schema.uncertain is None:
                uncertain = None
                break
            uncertain = schema.uncertain if uncertain is None else uncertain & schema.uncertain
        return StreamSchema(values, uncertain)

    def validate(self) -> None:
        if len(self.sources) < 2:
            raise PlanError("union() needs at least two input streams")
        self.output_schema()

    def label(self) -> str:
        return f"Union[{len(self.sources)} inputs]"


@dataclass(frozen=True, eq=False)
class SummarizeNode(LogicalNode):
    """Replace a result distribution with summary statistics (Section 3)."""

    input: LogicalNode
    attribute: str
    confidence: float = 0.95
    keep_distribution: bool = False

    @property
    def inputs(self) -> Tuple[LogicalNode, ...]:
        return (self.input,)

    def with_inputs(self, *inputs: LogicalNode) -> SummarizeNode:
        (node,) = inputs
        return replace(self, input=node)

    def output_schema(self) -> StreamSchema:
        schema = self.input.output_schema()
        schema.require_uncertain(self.attribute, "summarize()")
        schema = schema.with_values(
            f"{self.attribute}_mean",
            f"{self.attribute}_variance",
            f"{self.attribute}_lo",
            f"{self.attribute}_hi",
        )
        if not self.keep_distribution and schema.uncertain is not None:
            schema = replace(schema, uncertain=schema.uncertain - {self.attribute})
        return schema

    def validate(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise PlanError("confidence must lie strictly between 0 and 1")
        self.output_schema()

    def label(self) -> str:
        return f"Summarize[{self.attribute}, confidence={self.confidence}]"


@dataclass(frozen=True, eq=False)
class PipeNode(LogicalNode):
    """Escape hatch: route the stream through a user-supplied operator.

    Used for boxes the declarative surface does not model (T operators,
    application-specific monitors).  The operator instance is stateful,
    so a plan containing PipeNodes can only be compiled once.
    """

    input: LogicalNode
    operator: Operator
    description: Optional[str] = None

    @property
    def inputs(self) -> Tuple[LogicalNode, ...]:
        return (self.input,)

    def with_inputs(self, *inputs: LogicalNode) -> PipeNode:
        (node,) = inputs
        return replace(self, input=node)

    def output_schema(self) -> StreamSchema:
        self.input.output_schema()
        # A custom operator may emit anything: the schema goes open.
        return StreamSchema.open()

    def label(self) -> str:
        return f"Pipe[{self.description or self.operator.name}]"


# ----------------------------------------------------------------------
# DAG traversal helpers
# ----------------------------------------------------------------------
def topological_nodes(roots: Tuple[LogicalNode, ...]) -> List[LogicalNode]:
    """Return all nodes reachable from ``roots`` in topological order
    (inputs before consumers), visiting shared nodes once."""
    order: List[LogicalNode] = []
    seen: set = set()

    for root in roots:
        stack: List[Tuple[LogicalNode, bool]] = [(root, False)]
        on_path: set = set()
        while stack:
            node, expanded = stack.pop()
            if expanded:
                on_path.discard(id(node))
                if id(node) not in seen:
                    seen.add(id(node))
                    order.append(node)
                continue
            if id(node) in seen:
                continue
            if id(node) in on_path:
                raise PlanError("logical plan contains a cycle")
            on_path.add(id(node))
            stack.append((node, True))
            for child in node.inputs:
                stack.append((child, False))
    return order


def consumer_counts(roots: Tuple[LogicalNode, ...]) -> Dict[int, int]:
    """Return ``id(node) -> number of consumers`` over the whole DAG.

    Root nodes count their sink as one consumer, so a root that also
    feeds another node reports 2 and is recognised as shared.
    """
    counts: Dict[int, int] = {}
    for node in topological_nodes(roots):
        counts.setdefault(id(node), 0)
        for child in node.inputs:
            counts[id(child)] = counts.get(id(child), 0) + 1
    for root in roots:
        counts[id(root)] = counts.get(id(root), 0) + 1
    return counts


def explain_logical(roots: Tuple[LogicalNode, ...], names: Tuple[str, ...] = ()) -> str:
    """Render a logical DAG as an indented tree.

    Shared subtrees are assigned a reference (``#1``, ``#2``, ...) the
    first time they are printed and referred to by it afterwards, so
    fan-out is visible without duplicating whole subtrees.
    """
    counts = consumer_counts(roots)
    refs: Dict[int, int] = {}
    printed: set = set()
    lines: List[str] = []

    def render(node: LogicalNode, depth: int) -> None:
        indent = "  " * depth
        shared = counts.get(id(node), 0) > 1
        if shared and id(node) in printed:
            lines.append(f"{indent}(see #{refs[id(node)]})")
            return
        tag = ""
        if shared:
            refs[id(node)] = len(refs) + 1
            tag = f"  #{refs[id(node)]}"
            printed.add(id(node))
        lines.append(f"{indent}{node.label()}{tag}")
        for child in node.inputs:
            render(child, depth + 1)

    for i, root in enumerate(roots):
        if names and i < len(names):
            lines.append(f"output {names[i]}:")
        render(root, 1 if names else 0)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# LogicalPlan: a validated set of output nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LogicalPlan:
    """An immutable logical plan: named output nodes plus validation.

    Most queries have a single output; multi-output plans express
    Figure 2-style fan-out (one T operator feeding Q1 and Q2) with the
    shared prefix lowered to shared physical boxes.
    """

    outputs: Tuple[LogicalNode, ...]
    names: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.outputs:
            raise PlanError("a logical plan needs at least one output")
        names = self.names
        if not names:
            names = tuple(
                "out" if len(self.outputs) == 1 else f"out{i}"
                for i in range(len(self.outputs))
            )
            object.__setattr__(self, "names", names)
        if len(names) != len(set(names)):
            raise PlanError(f"duplicate output names: {names}")
        if len(names) != len(self.outputs):
            raise PlanError("output names and output nodes must align")

    def validate(self) -> None:
        """Type/schema-check every node and verify source-name uniqueness."""
        source_names: Dict[str, int] = {}
        for node in topological_nodes(self.outputs):
            node.validate()
            if isinstance(node, SourceNode):
                previous = source_names.get(node.name)
                if previous is not None and previous != id(node):
                    raise PlanError(
                        f"two distinct sources both named {node.name!r}; "
                        "reuse one Stream.source handle for fan-out instead"
                    )
                source_names[node.name] = id(node)

    @property
    def nodes(self) -> List[LogicalNode]:
        return topological_nodes(self.outputs)

    @property
    def sources(self) -> List[SourceNode]:
        return [node for node in self.nodes if isinstance(node, SourceNode)]

    def explain(self) -> str:
        names = self.names if len(self.outputs) > 1 else ()
        return explain_logical(self.outputs, names)
