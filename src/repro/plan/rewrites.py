"""Planner rewrite rules over the logical plan IR.

Each rule is a small, local, semantics-preserving transformation.  The
driver (:func:`apply_rewrites`) rebuilds the DAG bottom-up, applying
rules at every node until a local fixpoint, and records a
:class:`RewriteTrace` for every application so `explain()` can show
exactly what fired.

The rules:

``push_filter_below_derive``
    ``Filter(Derive(x))`` → ``Derive(Filter(x))`` when the filter
    declares ``uses`` and touches none of the derived attributes.  The
    derive functions then run only on surviving tuples.

``push_filter_below_join``
    ``ProbFilter(Join(l, r))`` → ``Join(ProbFilter(l), r)`` (or the
    right side) when the filtered attribute carries exactly one side's
    prefix and the filter does not annotate.  The join then never pairs
    tuples the filter would discard.

``fuse_adjacent_filters``
    ``Filter(Filter(x))`` → one filter evaluating the conjunction —
    one box and one Python call per tuple instead of two.

``reorder_cheap_filter_first``
    ``Filter(ProbFilter(x))`` → ``ProbFilter(Filter(x))`` when the cost
    model's selectivity × cost rank favours it.  Both are
    order-preserving row filters, so outputs are identical; with the
    default costs (a deterministic predicate is cheap against an
    erf/CDF evaluation) the deterministic filter runs first unless its
    declared ``cost_hint`` is high and the probabilistic filter is
    estimated to be very selective.

``reorder_selective_prob_filter_first``
    ``ProbFilter(ProbFilter(x))`` → the more *selective* filter first,
    when both pass-rates can be estimated from declared column
    statistics (both filters cost one CDF evaluation, so selectivity
    alone decides).

``drop_unread_annotation``
    ``Aggregate(ProbFilter(x, annotate=a))`` → ``Aggregate(ProbFilter(x))``
    when nothing can read ``a``: the aggregate is the filter's sole
    consumer, it has no (opaque) group key and it does not aggregate
    ``a``.  The filter then passes its survivors on as a selection of
    the input batch, columns included, instead of building annotated
    rows the window discards anyway.

Safety notes are spelled out per rule below; every rule is covered by
an optimized-vs-naive equivalence test in ``tests/plan/``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cost import CostModel
from .nodes import (
    AggregateNode,
    DeriveNode,
    FilterNode,
    JoinNode,
    LogicalNode,
    LogicalPlan,
    ProbFilterNode,
    consumer_counts,
)

__all__ = [
    "RewriteTrace",
    "RewriteRule",
    "apply_rewrites",
    "DEFAULT_RULES",
    "default_rules",
    "push_filter_below_derive",
    "push_filter_below_join",
    "fuse_adjacent_filters",
    "reorder_cheap_filter_first",
    "reorder_selective_prob_filter_first",
    "drop_unread_annotation",
]


@dataclass(frozen=True)
class RewriteTrace:
    """One applied rewrite: the rule name and what it did."""

    rule: str
    description: str


@dataclass(frozen=True)
class RewriteRule:
    """A named local rewrite: node -> (replacement, description) or None."""

    name: str
    apply: Callable[[LogicalNode, Dict[int, int]], Optional[Tuple[LogicalNode, str]]]


# ----------------------------------------------------------------------
# Rule implementations (each: node, consumers -> (new node, note) | None)
# ----------------------------------------------------------------------
def _push_filter_below_derive(
    node: LogicalNode, consumers: Dict[int, int]
) -> Optional[Tuple[LogicalNode, str]]:
    if not isinstance(node, FilterNode) or node.uses is None:
        return None
    child = node.input
    if not isinstance(child, DeriveNode):
        return None
    if consumers.get(id(child), 0) > 1:
        # The derived stream has other consumers; filtering below the
        # derive would change what they see.
        return None
    if node.uses & child.introduced:
        return None
    pushed = replace(node, input=child.input)
    return (
        replace(child, input=pushed),
        f"filter on {{{', '.join(sorted(node.uses))}}} now runs before "
        f"Derive[{', '.join(sorted(child.introduced))}]",
    )


def _push_filter_below_join(
    node: LogicalNode, consumers: Dict[int, int]
) -> Optional[Tuple[LogicalNode, str]]:
    if not isinstance(node, ProbFilterNode) or node.annotate is not None:
        # An annotating filter writes an un-prefixed probability
        # attribute; pushing it below the join would prefix it.
        return None
    child = node.input
    if not isinstance(child, JoinNode) or consumers.get(id(child), 0) > 1:
        return None
    for side, prefix in (("left", child.prefix_left), ("right", child.prefix_right)):
        other_prefix = child.prefix_right if side == "left" else child.prefix_left
        if not prefix or not node.attribute.startswith(prefix):
            continue
        if other_prefix and node.attribute.startswith(other_prefix):
            # Ambiguous prefixes (one is a prefix of the other): skip.
            return None
        stripped = node.attribute[len(prefix):]
        branch = child.left if side == "left" else child.right
        pushed = replace(node, input=branch, attribute=stripped)
        new_join = (
            replace(child, left=pushed) if side == "left" else replace(child, right=pushed)
        )
        return (
            new_join,
            f"probabilistic filter on {node.attribute!r} pushed to the {side} "
            f"join input as {stripped!r}",
        )
    return None


def _fuse_adjacent_filters(
    node: LogicalNode, consumers: Dict[int, int]
) -> Optional[Tuple[LogicalNode, str]]:
    if not isinstance(node, FilterNode):
        return None
    child = node.input
    if not isinstance(child, FilterNode) or consumers.get(id(child), 0) > 1:
        return None
    inner_pred, outer_pred = child.predicate, node.predicate

    def fused(item) -> bool:
        # Inner (upstream) predicate first: preserves evaluation order
        # and short-circuits exactly like the two separate boxes.
        return bool(inner_pred(item)) and bool(outer_pred(item))

    uses = None
    if node.uses is not None and child.uses is not None:
        uses = node.uses | child.uses
    inner_desc = child.description or "filter"
    outer_desc = node.description or "filter"
    merged = FilterNode(
        input=child.input,
        predicate=fused,
        uses=uses,
        description=f"{inner_desc} ∧ {outer_desc}",
    )
    return merged, f"adjacent filters '{inner_desc}' and '{outer_desc}' fused into one box"


def _make_reorder_cheap_filter_first(cost_model: CostModel):
    def rule(
        node: LogicalNode, consumers: Dict[int, int]
    ) -> Optional[Tuple[LogicalNode, str]]:
        if not isinstance(node, FilterNode) or node.uses is None:
            return None
        child = node.input
        if not isinstance(child, ProbFilterNode) or consumers.get(id(child), 0) > 1:
            return None
        if child.annotate is not None and child.annotate in node.uses:
            # The deterministic predicate reads the probability
            # annotation; it cannot run before the annotation exists.
            return None
        if not cost_model.prefer_first(node, child):
            # Selectivity × cost says the probabilistic filter already
            # sits in the cheaper position (e.g. an expensive
            # deterministic predicate behind a highly selective filter).
            return None
        pushed = replace(node, input=child.input)
        selectivity = cost_model.prob_filter_selectivity(child)
        basis = (
            "structural default"
            if selectivity is None
            else f"estimated pass-rate {selectivity:.3f}"
        )
        return (
            replace(child, input=pushed),
            f"deterministic filter on {{{', '.join(sorted(node.uses))}}} now runs "
            f"before the probabilistic filter on {child.attribute!r} ({basis})",
        )

    return rule


def _make_reorder_selective_prob_filter_first(cost_model: CostModel):
    def rule(
        node: LogicalNode, consumers: Dict[int, int]
    ) -> Optional[Tuple[LogicalNode, str]]:
        if not isinstance(node, ProbFilterNode):
            return None
        child = node.input
        if not isinstance(child, ProbFilterNode) or consumers.get(id(child), 0) > 1:
            return None
        # Swapping must not change what either predicate reads or what
        # annotation survives: skip when either filter's attribute is
        # the other's annotation, or both annotate the same attribute
        # (the later write wins, so order is observable).
        if node.attribute in (child.annotate,) or child.attribute in (node.annotate,):
            return None
        if node.annotate is not None and node.annotate == child.annotate:
            return None
        inner = cost_model.prob_filter_selectivity(child)
        outer_node = replace(node, input=child.input)  # selectivity vs the source
        outer = cost_model.prob_filter_selectivity(outer_node)
        if inner is None or outer is None or outer >= inner:
            return None
        swapped = replace(child, input=outer_node)
        return (
            swapped,
            f"probabilistic filter on {node.attribute!r} (pass-rate {outer:.3f}) "
            f"now runs before the one on {child.attribute!r} (pass-rate {inner:.3f})",
        )

    return rule


def _drop_unread_annotation(
    node: LogicalNode, consumers: Dict[int, int]
) -> Optional[Tuple[LogicalNode, str]]:
    if not isinstance(node, AggregateNode):
        return None
    child = node.input
    if not isinstance(child, ProbFilterNode) or child.annotate is None:
        return None
    if consumers.get(id(child), 0) > 1:
        # Another consumer of the filtered stream may read the annotation.
        return None
    if node.key is not None or node.attribute == child.annotate:
        # A group key is an opaque callable (it may read anything), and
        # the aggregated attribute itself could name the annotation.
        return None
    return (
        replace(node, input=replace(child, annotate=None)),
        f"annotation {child.annotate!r} of the probabilistic filter on "
        f"{child.attribute!r} dropped: {node.function}({node.attribute}) never reads it",
    )


push_filter_below_derive = RewriteRule("push_filter_below_derive", _push_filter_below_derive)
push_filter_below_join = RewriteRule("push_filter_below_join", _push_filter_below_join)
fuse_adjacent_filters = RewriteRule("fuse_adjacent_filters", _fuse_adjacent_filters)
drop_unread_annotation = RewriteRule("drop_unread_annotation", _drop_unread_annotation)


def default_rules(cost_model: Optional[CostModel] = None) -> Tuple[RewriteRule, ...]:
    """The default rule set, with ordering rules bound to ``cost_model``.

    Rule order matters only for the trace, not for correctness:
    pushdowns and reorders run before fusions, and the annotation is
    dropped last, once the filters have their final positions.
    """
    model = cost_model or CostModel()
    return (
        push_filter_below_derive,
        push_filter_below_join,
        RewriteRule(
            "reorder_cheap_filter_first", _make_reorder_cheap_filter_first(model)
        ),
        RewriteRule(
            "reorder_selective_prob_filter_first",
            _make_reorder_selective_prob_filter_first(model),
        ),
        fuse_adjacent_filters,
        drop_unread_annotation,
    )


DEFAULT_RULES: Tuple[RewriteRule, ...] = default_rules()
reorder_cheap_filter_first = DEFAULT_RULES[2]
reorder_selective_prob_filter_first = DEFAULT_RULES[3]

#: Upper bound on rule applications per node, against pathological
#: rule sets that keep rewriting each other's output.
_MAX_LOCAL_APPLICATIONS = 16


def apply_rewrites(
    plan: LogicalPlan, rules: Sequence[RewriteRule] = DEFAULT_RULES
) -> Tuple[LogicalPlan, List[RewriteTrace]]:
    """Rewrite ``plan`` bottom-up with ``rules``; return plan + trace.

    The DAG is rebuilt with memoisation so shared nodes stay shared in
    the rewritten plan, and consumer counts (computed on the *input*
    plan) gate the rules that must not duplicate or hide a shared
    stream.
    """
    consumers = consumer_counts(plan.outputs)
    traces: List[RewriteTrace] = []
    rebuilt: Dict[int, LogicalNode] = {}
    # Memoisation keys are object ids; keep every visited node alive so
    # a recycled id can never alias a dead intermediate node.
    keepalive: List[LogicalNode] = []

    def rebuild(node: LogicalNode) -> LogicalNode:
        cached = rebuilt.get(id(node))
        if cached is not None:
            return cached
        keepalive.append(node)
        new_inputs = tuple(rebuild(child) for child in node.inputs)
        current = node if new_inputs == node.inputs else node.with_inputs(*new_inputs)
        # Rewritten nodes inherit the original node's consumer count so
        # sharing gates keep working after a child was rebuilt.
        consumers.setdefault(id(current), consumers.get(id(node), 0))
        for _ in range(_MAX_LOCAL_APPLICATIONS):
            for rule in rules:
                outcome = rule.apply(current, consumers)
                if outcome is not None:
                    current, note = outcome
                    keepalive.append(current)
                    consumers.setdefault(id(current), consumers.get(id(node), 0))
                    # Freshly created children start at one consumer, and
                    # are themselves rebuilt so rules cascade (e.g. a
                    # filter pushed below one derive keeps descending
                    # through the next).
                    for child in current.inputs:
                        consumers.setdefault(id(child), 1)
                    child_inputs = tuple(rebuild(child) for child in current.inputs)
                    if child_inputs != current.inputs:
                        current = current.with_inputs(*child_inputs)
                        consumers.setdefault(id(current), consumers.get(id(node), 0))
                    traces.append(RewriteTrace(rule.name, note))
                    break
            else:
                break
        rebuilt[id(node)] = current
        return current

    new_outputs = tuple(rebuild(root) for root in plan.outputs)
    return LogicalPlan(outputs=new_outputs, names=plan.names), traces
