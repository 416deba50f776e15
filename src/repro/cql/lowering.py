"""Lowering: CQL AST → the logical plan IR of :mod:`repro.plan`.

The lowering walks one :class:`~repro.cql.syntax.SelectQuery` at a time
and builds the same node chain the fluent builder would::

    Source → Derive (SELECT expr AS name)
           → [Join]
           → Filter / ProbFilter (WHERE conjuncts, in order)
           → Aggregate (windowed FROM + SELECT aggregate + GROUP BY/HAVING)

so text queries and :class:`~repro.plan.Stream` pipelines compile
through the *same* planner, rewrites, cost model and operators — the
CQL surface adds parsing, not a second execution path.  UNION lowers
each branch and merges them with a :class:`~repro.plan.UnionNode`.

Compiled closures (derive expressions, predicates, group keys, join
match functions) are tagged with a canonical fingerprint derived from
the query text and the identities of any referenced UDFs, so two
queries registered from the same text produce *structurally equal*
plan nodes — which is what lets a
:class:`~repro.service.QuerySession` share their physical operators.

Classification of WHERE conjuncts: a constant comparison on an
attribute the schema declares *uncertain* (or any comparison carrying
``WITH PROBABILITY``) becomes a probabilistic filter evaluated on the
attribute's distribution; everything else compiles to an ordinary
deterministic predicate.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.core.join import match_probability_band
from repro.core.selection import Comparison
from repro.plan.builder import Stream
from repro.plan.fingerprint import FINGERPRINT_ATTR, callable_fingerprint
from repro.plan.nodes import (
    AggregateNode,
    DeriveNode,
    FilterNode,
    JoinNode,
    LogicalNode,
    LogicalPlan,
    ProbFilterNode,
    SourceNode,
    UnionNode,
)
from repro.core.aggregation import AGGREGATE_FUNCTIONS, ColumnKey, HavingClause
from repro.streams.windows import (
    NowWindow,
    SlidingTimeWindow,
    TumblingCountWindow,
    TumblingTimeWindow,
    WindowSpec,
)

from .errors import CQLSemanticError
from .parser import parse
from .syntax import (
    AggregateItem,
    BandMatchTerm,
    BinOp,
    Call,
    ColumnItem,
    Conjunct,
    DeriveItem,
    Expr,
    FuncMatchTerm,
    Ident,
    Literal,
    Query,
    SelectQuery,
    StarItem,
    StreamRef,
    Unary,
    WindowClause,
)

__all__ = ["lower_query", "compile_cql", "BUILTIN_FUNCTIONS"]

#: Functions available in every query without registration.
BUILTIN_FUNCTIONS: Dict[str, Callable] = {
    "abs": abs,
    "min": min,
    "max": max,
    "round": round,
    "floor": math.floor,
    "ceil": math.ceil,
    "sqrt": math.sqrt,
}

_COMPARISON_FLIP = {">": "<", "<": ">", ">=": "<=", "<=": ">=", "=": "=", "!=": "!="}


def _constant_number(expr: Expr) -> Optional[float]:
    """The numeric value of a literal constant, handling unary minus."""
    if isinstance(expr, Literal) and isinstance(expr.value, (int, float)):
        return float(expr.value)
    if isinstance(expr, Unary) and expr.op == "-":
        inner = _constant_number(expr.operand)
        return None if inner is None else -inner
    return None


class _Scope:
    """Name resolution for one expression context.

    ``aliases`` maps a stream alias to the runtime attribute prefix its
    attributes carry in this context ("" before a join, ``"obj_"``
    after one).  ``uncertain`` is the set of runtime attribute names
    known to be uncertain (None = unknown / open schema).
    """

    def __init__(
        self,
        aliases: Mapping[str, str],
        uncertain: Optional[Set[str]],
        functions: Mapping[str, Callable],
    ):
        self.aliases = dict(aliases)
        self.uncertain = uncertain
        self.functions = functions

    def resolve(self, ident: Ident) -> str:
        if ident.qualifier is None:
            return ident.name
        try:
            prefix = self.aliases[ident.qualifier]
        except KeyError:
            known = ", ".join(sorted(self.aliases)) or "none"
            raise CQLSemanticError(
                f"unknown stream alias {ident.qualifier!r} (in scope: {known})",
                ident.line,
                ident.column,
                ident.qualifier,
            ) from None
        return f"{prefix}{ident.name}"

    def is_uncertain(self, runtime_name: str) -> bool:
        return self.uncertain is not None and runtime_name in self.uncertain

    def function(self, call: Call) -> Callable:
        fn = self.functions.get(call.name)
        if fn is None:
            raise CQLSemanticError(
                f"unknown function {call.name!r}; register it via the "
                "functions mapping",
                call.line,
                call.column,
                call.name,
            )
        return fn


class _CompiledExpr:
    """A compiled expression: closure + referenced names + canonical text."""

    def __init__(self, fn: Callable, uses: Set[str], canonical: str):
        self.fn = fn
        self.uses = uses
        self.canonical = canonical


def _fingerprint_tag(scope: _Scope, canonical: str, udf_names: Sequence[str]) -> tuple:
    udfs = tuple(
        (name, callable_fingerprint(scope.functions[name]))
        for name in sorted(set(udf_names))
    )
    return ("cql-expr", canonical, udfs)


def _compile_expr(expr: Expr, scope: _Scope) -> _CompiledExpr:
    """Compile an expression AST into a tuple-evaluating closure."""
    uses: Set[str] = set()
    udf_names: List[str] = []

    def build(e: Expr) -> Callable:
        if isinstance(e, Literal):
            value = e.value
            return lambda t: value
        if isinstance(e, Ident):
            name = scope.resolve(e)
            uses.add(name)
            # Deterministic value, else distribution; an aggregate
            # grouping by it reads it as a batch column.
            return ColumnKey(name)
        if isinstance(e, Unary):
            inner = build(e.operand)
            if e.op == "NOT":
                return lambda t: not inner(t)
            return lambda t: -inner(t)
        if isinstance(e, Call):
            fn = scope.function(e)
            udf_names.append(e.name)
            args = [build(a) for a in e.args]
            return lambda t: fn(*[a(t) for a in args])
        if isinstance(e, BinOp):
            if e.op == "BETWEEN":
                value = build(e.left)
                assert isinstance(e.right, BinOp)  # parser guarantees low AND high
                low, high = build(e.right.left), build(e.right.right)
                return lambda t: low(t) <= value(t) <= high(t)
            left, right = build(e.left), build(e.right)
            op = e.op
            if op == "AND":
                return lambda t: bool(left(t)) and bool(right(t))
            if op == "OR":
                return lambda t: bool(left(t)) or bool(right(t))
            if op == "+":
                return lambda t: left(t) + right(t)
            if op == "-":
                return lambda t: left(t) - right(t)
            if op == "*":
                return lambda t: left(t) * right(t)
            if op == "/":
                return lambda t: left(t) / right(t)
            if op == ">":
                return lambda t: left(t) > right(t)
            if op == "<":
                return lambda t: left(t) < right(t)
            if op == ">=":
                return lambda t: left(t) >= right(t)
            if op == "<=":
                return lambda t: left(t) <= right(t)
            if op == "=":
                return lambda t: left(t) == right(t)
            if op == "!=":
                return lambda t: left(t) != right(t)
        raise CQLSemanticError(  # pragma: no cover - parser emits no other nodes
            f"cannot compile expression node {type(e).__name__}", e.line, e.column
        )

    fn = build(expr)
    canonical = _canonical_in_scope(expr, scope)
    setattr(fn, FINGERPRINT_ATTR, _fingerprint_tag(scope, canonical, udf_names))
    return _CompiledExpr(fn, uses, canonical)


def _canonical_in_scope(expr: Expr, scope: _Scope) -> str:
    """Canonical text with identifiers resolved to runtime names."""
    if isinstance(expr, Ident):
        return scope.resolve(expr)
    if isinstance(expr, Literal):
        return expr.canonical()
    if isinstance(expr, Unary):
        inner = _canonical_in_scope(expr.operand, scope)
        return f"(NOT {inner})" if expr.op == "NOT" else f"({expr.op}{inner})"
    if isinstance(expr, BinOp):
        left = _canonical_in_scope(expr.left, scope)
        right = _canonical_in_scope(expr.right, scope)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, Call):
        args = ", ".join(_canonical_in_scope(a, scope) for a in expr.args)
        return f"{expr.name}({args})"
    return expr.canonical()


# ----------------------------------------------------------------------
# Windows
# ----------------------------------------------------------------------
def _window_spec(clause: WindowClause) -> WindowSpec:
    if clause.kind == "now":
        return NowWindow()
    if clause.kind == "rows":
        size = int(clause.length)
        if size < 1 or size != clause.length:
            raise CQLSemanticError(
                "[ROWS n] needs a positive whole number of rows",
                clause.line,
                clause.column,
            )
        return TumblingCountWindow(size)
    # RANGE: sliding unless SLIDE equals the range (tumbling).
    if clause.length <= 0:
        raise CQLSemanticError(
            "[RANGE n] needs a positive window length", clause.line, clause.column
        )
    if clause.slide is None:
        return SlidingTimeWindow(clause.length)
    if clause.slide == clause.length:
        return TumblingTimeWindow(clause.length)
    raise CQLSemanticError(
        "only tumbling slides are supported: SLIDE must equal RANGE",
        clause.line,
        clause.column,
    )


# ----------------------------------------------------------------------
# Source resolution
# ----------------------------------------------------------------------
def _as_source_node(name: str, declared) -> SourceNode:
    if isinstance(declared, Stream):
        declared = declared.node
    if not isinstance(declared, SourceNode):
        raise CQLSemanticError(
            f"source {name!r} must be declared as a Stream.source(...) or "
            f"SourceNode, got {type(declared).__name__}",
            1,
            1,
        )
    if declared.name != name:
        raise CQLSemanticError(
            f"source declared under key {name!r} is named {declared.name!r}",
            1,
            1,
        )
    return declared


# ----------------------------------------------------------------------
# The lowering itself
# ----------------------------------------------------------------------
class _Lowerer:
    def __init__(
        self,
        sources: Optional[Mapping[str, Union[Stream, SourceNode]]],
        functions: Optional[Mapping[str, Callable]],
    ):
        self.declared = {
            name: _as_source_node(name, decl) for name, decl in (sources or {}).items()
        }
        self.functions: Dict[str, Callable] = dict(BUILTIN_FUNCTIONS)
        self.functions.update(functions or {})
        # One SourceNode object per source name across the whole query,
        # so UNION branches reading the same stream share it.
        self._source_nodes: Dict[str, SourceNode] = {}

    def source_node(self, ref: StreamRef) -> SourceNode:
        node = self._source_nodes.get(ref.name)
        if node is None:
            node = self.declared.get(ref.name) or SourceNode(name=ref.name)
            self._source_nodes[ref.name] = node
        return node

    # ------------------------------------------------------------------
    def lower(self, query: Query) -> LogicalPlan:
        roots = [self._lower_select(select) for select in query.selects]
        if len(roots) == 1:
            plan = LogicalPlan(outputs=(roots[0],))
        else:
            plan = LogicalPlan(outputs=(UnionNode(sources=tuple(roots)),))
        plan.validate()
        return plan

    # ------------------------------------------------------------------
    def _lower_select(self, select: SelectQuery) -> LogicalNode:
        left_source = self.source_node(select.source)
        left_alias = select.source.alias or select.source.name

        # -- classify select items ---------------------------------------
        derive_items: List[DeriveItem] = []
        aggregate_items: List[AggregateItem] = []
        column_items: List[ColumnItem] = []
        for item in select.items:
            if isinstance(item, StarItem):
                continue
            if isinstance(item, DeriveItem):
                derive_items.append(item)
            elif isinstance(item, AggregateItem):
                aggregate_items.append(item)
            else:
                column_items.append(item)  # type: ignore[arg-type]
        if len(aggregate_items) > 1:
            extra = aggregate_items[1]
            raise CQLSemanticError(
                "only one aggregate per SELECT is supported",
                extra.line,
                extra.column,
                extra.call.canonical(),
            )

        # -- derive stage (pre-join, pre-window) -------------------------
        uncertain: Optional[Set[str]] = (
            set(left_source.uncertain) if left_source.uncertain is not None else None
        )
        pre_scope = _Scope({left_alias: ""}, uncertain, self.functions)
        node: LogicalNode = left_source
        if derive_items:
            values: List[Tuple[str, Callable]] = []
            uncertain_fns: List[Tuple[str, Callable]] = []
            for item in derive_items:
                compiled = _compile_expr(item.expr, pre_scope)
                if item.uncertain:
                    uncertain_fns.append((item.name, compiled.fn))
                    if uncertain is not None:
                        uncertain.add(item.name)
                else:
                    values.append((item.name, compiled.fn))
            node = DeriveNode(
                input=node,
                value_functions=tuple(values),
                uncertain_functions=tuple(uncertain_fns),
            )

        # -- join --------------------------------------------------------
        scope = _Scope({left_alias: ""}, set(uncertain) if uncertain is not None else None,
                       self.functions)
        if select.join is not None:
            if select.source.window is not None:
                raise CQLSemanticError(
                    "a window on the left join input is not supported; the join "
                    "window comes from the joined stream's [RANGE ...]",
                    select.source.window.line,
                    select.source.window.column,
                )
            node, scope = self._lower_join(select, node, left_alias, uncertain)

        # -- WHERE conjuncts ---------------------------------------------
        in_join = select.join is not None
        for conjunct in select.where:
            node = self._lower_conjunct(conjunct, node, scope, in_join)

        # -- windowed aggregation ----------------------------------------
        window_clause = select.source.window
        if aggregate_items:
            node = self._lower_aggregate(
                select, aggregate_items[0], column_items, node, scope, window_clause
            )
        else:
            if select.having is not None:
                raise CQLSemanticError(
                    "HAVING needs a matching aggregate in SELECT",
                    select.having.line,
                    select.having.column,
                )
            if select.group_by is not None:
                expr = select.group_by if isinstance(select.group_by, Expr) else select.group_by[0]
                raise CQLSemanticError(
                    "GROUP BY needs an aggregate in SELECT", expr.line, expr.column
                )
            if window_clause is not None and window_clause.kind != "now":
                raise CQLSemanticError(
                    "a windowed FROM needs an aggregate in SELECT",
                    window_clause.line,
                    window_clause.column,
                )
        return node

    # ------------------------------------------------------------------
    def _lower_join(
        self,
        select: SelectQuery,
        left_node: LogicalNode,
        left_alias: str,
        left_uncertain: Optional[Set[str]],
    ) -> Tuple[LogicalNode, _Scope]:
        join = select.join
        assert join is not None
        right_source = self.source_node(join.right)
        right_alias = join.right.alias or join.right.name
        if right_alias == left_alias:
            raise CQLSemanticError(
                f"both join inputs are called {left_alias!r}; alias one with AS",
                join.right.line,
                join.right.column,
                right_alias,
            )
        window = join.right.window
        if window is None or window.kind != "range" or window.slide is not None:
            where = window or join.right
            raise CQLSemanticError(
                "the joined stream needs a sliding [RANGE n SECONDS] window",
                where.line,
                where.column,
            )
        prefix_left, prefix_right = f"{left_alias}_", f"{right_alias}_"

        branch_scopes = {
            left_alias: _Scope({left_alias: ""}, left_uncertain, self.functions),
            right_alias: _Scope(
                {right_alias: ""},
                set(right_source.uncertain) if right_source.uncertain is not None else None,
                self.functions,
            ),
        }
        match_fn, canonical = self._compile_match(join.terms, left_alias, right_alias,
                                                  branch_scopes)
        min_probability = 0.5 if join.min_probability is None else join.min_probability
        node = JoinNode(
            left=left_node,
            right=right_source,
            on=match_fn,
            window_length=window.length,
            min_probability=min_probability,
            prefix_left=prefix_left,
            prefix_right=prefix_right,
        )
        # Post-join scope: both aliases resolve through their prefixes.
        post_uncertain: Optional[Set[str]] = None
        left_unc = branch_scopes[left_alias].uncertain
        right_unc = branch_scopes[right_alias].uncertain
        if left_unc is not None and right_unc is not None:
            post_uncertain = {f"{prefix_left}{n}" for n in left_unc}
            post_uncertain |= {f"{prefix_right}{n}" for n in right_unc}
        scope = _Scope(
            {left_alias: prefix_left, right_alias: prefix_right},
            post_uncertain,
            self.functions,
        )
        return node, scope

    def _compile_match(
        self,
        terms,
        left_alias: str,
        right_alias: str,
        branch_scopes: Mapping[str, _Scope],
    ) -> Tuple[Callable, str]:
        """Build ``on(left, right) -> probability`` from the ON terms."""
        factors: List[Callable] = []
        canonicals: List[str] = []
        udf_names: List[str] = []
        for term in terms:
            if isinstance(term, FuncMatchTerm):
                fn = self.functions.get(term.name)
                if fn is None:
                    raise CQLSemanticError(
                        f"unknown match function {term.name!r}; register it via "
                        "the functions mapping",
                        term.line,
                        term.column,
                        term.name,
                    )
                factors.append(fn)
                canonicals.append(f"MATCH {term.name}")
                udf_names.append(term.name)
                continue
            assert isinstance(term, BandMatchTerm)
            sides: Dict[str, str] = {}
            for ident in (term.left, term.right):
                if ident.qualifier not in (left_alias, right_alias):
                    raise CQLSemanticError(
                        f"join match terms need both sides qualified with "
                        f"{left_alias!r} or {right_alias!r}",
                        ident.line,
                        ident.column,
                        ident.canonical(),
                    )
                if ident.qualifier in sides:
                    raise CQLSemanticError(
                        "a band match term needs one attribute from each side",
                        ident.line,
                        ident.column,
                        ident.canonical(),
                    )
                sides[ident.qualifier] = ident.name
            left_attr, right_attr = sides[left_alias], sides[right_alias]
            width = term.width

            def band(l, r, _la=left_attr, _ra=right_attr, _w=width):  # noqa: E741
                return match_probability_band(
                    l.distribution(_la), r.distribution(_ra), _w
                )

            factors.append(band)
            canonicals.append(
                f"{left_alias}.{left_attr} ~= {right_alias}.{right_attr} WITHIN {width!r}"
            )

        def on(left, right):
            probability = 1.0
            for factor in factors:
                probability *= factor(left, right)
            return probability

        canonical = " AND ".join(canonicals)
        udfs = tuple(
            (name, callable_fingerprint(self.functions[name]))
            for name in sorted(set(udf_names))
        )
        setattr(on, FINGERPRINT_ATTR, ("cql-match", canonical, udfs))
        return on, canonical

    # ------------------------------------------------------------------
    def _lower_conjunct(
        self,
        conjunct: Conjunct,
        node: LogicalNode,
        scope: _Scope,
        in_join: bool,
    ) -> LogicalNode:
        prob = self._as_prob_filter(conjunct, scope)
        if prob is not None:
            attribute, comparison, threshold, upper = prob
            min_probability = (
                0.5 if conjunct.probability is None else conjunct.probability
            )
            if not 0.0 <= min_probability <= 1.0:
                raise CQLSemanticError(
                    "WITH PROBABILITY needs a value in [0, 1]",
                    conjunct.expr.line,
                    conjunct.expr.column,
                )
            return ProbFilterNode(
                input=node,
                attribute=attribute,
                comparison=comparison,
                threshold=threshold,
                upper=upper,
                min_probability=min_probability,
                # Above a join the annotation is omitted so the planner
                # may push the filter into the join input.
                annotate=None if in_join else "selection_probability",
            )
        if conjunct.probability is not None:
            raise CQLSemanticError(
                "WITH PROBABILITY applies to constant comparisons on uncertain "
                "attributes",
                conjunct.expr.line,
                conjunct.expr.column,
            )
        compiled = _compile_expr(conjunct.expr, scope)
        return FilterNode(
            input=node,
            predicate=compiled.fn,
            uses=frozenset(compiled.uses),
            description=compiled.canonical,
        )

    def _as_prob_filter(
        self, conjunct: Conjunct, scope: _Scope
    ) -> Optional[Tuple[str, Comparison, float, Optional[float]]]:
        """Recognise ``attr cmp number`` / ``attr BETWEEN a AND b`` on an
        uncertain attribute; returns None when the conjunct is an
        ordinary deterministic predicate."""
        expr = conjunct.expr
        if not isinstance(expr, BinOp):
            return None
        if expr.op == "BETWEEN":
            if not isinstance(expr.left, Ident):
                return None
            bounds = expr.right
            assert isinstance(bounds, BinOp)
            low = _constant_number(bounds.left)
            high = _constant_number(bounds.right)
            if low is None or high is None:
                return None
            attribute = scope.resolve(expr.left)
            if conjunct.probability is None and not scope.is_uncertain(attribute):
                return None
            return attribute, Comparison.BETWEEN, low, high
        if expr.op not in (">", "<", ">=", "<="):
            if expr.op in ("=", "!="):
                # Equality on an uncertain attribute has measure zero;
                # only flag it when the attribute is known uncertain.
                if isinstance(expr.left, Ident) and isinstance(expr.right, Literal):
                    attribute = scope.resolve(expr.left)
                    if scope.is_uncertain(attribute):
                        raise CQLSemanticError(
                            f"equality on uncertain attribute {attribute!r} is not "
                            "supported; use BETWEEN or a join match term",
                            expr.line,
                            expr.column,
                            expr.op,
                        )
            return None
        left, right, op = expr.left, expr.right, expr.op
        if not isinstance(left, Ident) and isinstance(right, Ident):
            left, right, op = right, left, _COMPARISON_FLIP[op]
        if not isinstance(left, Ident):
            return None
        threshold = _constant_number(right)
        if threshold is None:
            return None
        attribute = scope.resolve(left)
        if conjunct.probability is None and not scope.is_uncertain(attribute):
            return None
        comparison = Comparison.GREATER if op in (">", ">=") else Comparison.LESS
        return attribute, comparison, threshold, None

    # ------------------------------------------------------------------
    def _lower_aggregate(
        self,
        select: SelectQuery,
        item: AggregateItem,
        column_items: List[ColumnItem],
        node: LogicalNode,
        scope: _Scope,
        window_clause: Optional[WindowClause],
    ) -> LogicalNode:
        call = item.call
        if call.function not in AGGREGATE_FUNCTIONS:  # pragma: no cover - lexer gates
            raise CQLSemanticError(
                f"unsupported aggregate {call.function!r}", call.line, call.column
            )
        if window_clause is None:
            raise CQLSemanticError(
                f"{call.canonical()} needs a windowed FROM clause "
                "([RANGE ...], [ROWS n] or [NOW])",
                call.line,
                call.column,
                call.canonical(),
            )
        window = _window_spec(window_clause)

        group_exprs: List[Expr] = []
        if select.group_by is not None:
            group_exprs = (
                [select.group_by]
                if isinstance(select.group_by, Expr)
                else list(select.group_by)
            )
        key = None
        group_canonicals: List[str] = []
        if group_exprs:
            compiled = [_compile_expr(e, scope) for e in group_exprs]
            group_canonicals = [c.canonical for c in compiled]
            if len(compiled) == 1:
                key = compiled[0].fn
            else:
                fns = [c.fn for c in compiled]

                def key(t, _fns=tuple(fns)):  # noqa: F811
                    return tuple(fn(t) for fn in _fns)

                # The composite tag is built from the members' own tags,
                # which carry the identities of any referenced UDFs —
                # canonical text alone would let two sessions with
                # different UDF bindings falsely share the aggregate.
                setattr(
                    key,
                    FINGERPRINT_ATTR,
                    ("cql-key", tuple(getattr(fn, FINGERPRINT_ATTR) for fn in fns)),
                )

        # Plain columns next to an aggregate must be the GROUP BY key
        # (they surface as the result tuple's "group" attribute).
        for column in column_items:
            canonical = (
                f"{column.qualifier}.{column.name}" if column.qualifier else column.name
            )
            resolved = scope.resolve(
                Ident(column.line, column.column, column.name, column.qualifier)
            )
            if resolved not in group_canonicals and canonical not in group_canonicals:
                raise CQLSemanticError(
                    f"column {canonical!r} selected alongside an aggregate must "
                    "appear in GROUP BY",
                    column.line,
                    column.column,
                    canonical,
                )

        if call.argument == "*":
            if call.function != "count":
                raise CQLSemanticError(
                    f"{call.function.upper()}(*) is not supported; name an attribute",
                    call.line,
                    call.column,
                )
            attribute = "*"
            default_output = "count"
        else:
            parts = call.argument.split(".")
            ident = (
                Ident(call.line, call.column, parts[1], parts[0])
                if len(parts) == 2
                else Ident(call.line, call.column, parts[0])
            )
            attribute = scope.resolve(ident)
            default_output = None

        having = None
        if select.having is not None:
            having_syntax = select.having
            if (
                having_syntax.call.function != call.function
                or having_syntax.call.argument != call.argument
            ):
                raise CQLSemanticError(
                    f"HAVING aggregate {having_syntax.call.canonical()} does not "
                    f"match the SELECT aggregate {call.canonical()}",
                    having_syntax.call.line,
                    having_syntax.call.column,
                    having_syntax.call.canonical(),
                )
            min_probability = (
                0.5
                if having_syntax.min_probability is None
                else having_syntax.min_probability
            )
            having = HavingClause(
                threshold=having_syntax.threshold, min_probability=min_probability
            )

        return AggregateNode(
            input=node,
            window=window,
            attribute=attribute,
            function=call.function,
            strategy=None,  # the planner's cost model chooses
            key=key,
            having=having,
            output_attribute=item.alias or default_output,
        )


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def lower_query(
    query: Union[str, Query],
    sources: Optional[Mapping[str, Union[Stream, SourceNode]]] = None,
    functions: Optional[Mapping[str, Callable]] = None,
) -> LogicalPlan:
    """Lower CQL text (or a parsed AST) into a validated logical plan.

    ``sources`` maps stream names to declared
    :meth:`Stream.source <repro.plan.Stream.source>` handles (or
    :class:`SourceNode` objects) — declaring them gives the query
    schema checking, uncertain-attribute classification in WHERE, and
    cost-model hints.  Undeclared names become open-schema sources.
    ``functions`` maps UDF names usable in expressions, ``MATCH``
    terms and GROUP BY keys.
    """
    ast = parse(query) if isinstance(query, str) else query
    return _Lowerer(sources, functions).lower(ast)


def compile_cql(
    query: Union[str, Query],
    sources: Optional[Mapping[str, Union[Stream, SourceNode]]] = None,
    functions: Optional[Mapping[str, Callable]] = None,
    batch_size: Optional[int] = None,
    optimize: bool = True,
    planner=None,
):
    """Parse, lower and compile a CQL query; returns a ``CompiledQuery``.

    Equivalent to building the same pipeline with
    :class:`repro.plan.Stream` and calling ``compile()`` — text queries
    run through the identical planner and operators.
    """
    from repro.plan.planner import Planner

    plan = lower_query(query, sources=sources, functions=functions)
    active = planner or Planner()
    return active.compile(plan, batch_size=batch_size, optimize=optimize)
