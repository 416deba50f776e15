"""`Stream`: the fluent, DAG-capable declarative query builder.

A :class:`Stream` is an immutable handle on a logical plan node.  Every
method returns a *new* handle, so intermediate handles can be kept and
reused — reusing one handle in two chains expresses fan-out (one box
feeding two arrows), and :meth:`Stream.join` / :meth:`Stream.union`
bring two chains back together::

    located = Stream.source("rfid", uncertain=("x", "y"))
    heavy   = located.window(TumblingTimeWindow(5.0)).group_by(area)\\
                     .aggregate("weight").having(200.0)
    hot     = located.join(sensors.where_probably("temp", ">", 60.0),
                           on=location_match, window_length=3.0)

`window()` / `group_by()` stage windowing state on the handle; the
following `aggregate()` consumes it, and `having()` refines the
aggregate just built.  `compile()` hands the plan to the cost-aware
planner (:mod:`repro.plan.planner`); `explain()` renders the logical
plan without compiling.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Mapping, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .planner import Planner

from repro.core.aggregation import HavingClause, SumStrategy
from repro.core.selection import Comparison
from repro.distributions import Distribution
from repro.streams.operators.base import Operator
from repro.streams.windows import WindowSpec

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
    SummarizeNode,
    UnionNode,
)

__all__ = ["Stream"]


def _column_stats(uncertain) -> Optional[tuple]:
    """Extract :class:`ColumnStat` declarations from an ``uncertain`` mapping.

    ``Stream.source`` accepts ``uncertain`` either as a plain iterable
    of attribute names or as a mapping ``name -> declaration`` where a
    declaration is ``None`` (name only), a :class:`ColumnStat`, a
    ``(family, a, b)`` tuple, or a distribution-like object exposing
    ``mean()``/``std()`` (e.g. a :class:`~repro.distributions.Gaussian`
    describing the population of per-tuple means).
    """
    if not isinstance(uncertain, Mapping):
        return None
    stats = []
    for name, decl in uncertain.items():
        if decl is None:
            continue
        if isinstance(decl, ColumnStat):
            if decl.attribute != name:
                raise PlanError(
                    f"column stat declared under {name!r} names attribute "
                    f"{decl.attribute!r}"
                )
            stats.append(decl)
        elif isinstance(decl, tuple) and len(decl) == 3:
            family, a, b = decl
            stats.append(ColumnStat(name, str(family), float(a), float(b)))
        elif isinstance(decl, Distribution):
            low, high = getattr(decl, "low", None), getattr(decl, "high", None)
            if low is not None and high is not None:
                stats.append(ColumnStat(name, "uniform", float(low), float(high)))
            else:
                stats.append(
                    ColumnStat(name, "gaussian", float(decl.mean()), float(decl.std()))
                )
        else:
            raise PlanError(
                f"cannot interpret column declaration for {name!r}: {decl!r} "
                "(use None, a ColumnStat, a (family, a, b) tuple or a distribution)"
            )
    return tuple(stats) or None


def _as_comparison(comparison: Union[Comparison, str]) -> Comparison:
    if isinstance(comparison, Comparison):
        return comparison
    try:
        return Comparison(comparison)
    except ValueError as exc:
        raise PlanError(
            f"unknown comparison {comparison!r}; use '>', '<' or 'between'"
        ) from exc


class Stream:
    """An immutable handle on a logical stream (see module docstring)."""

    __slots__ = ("node", "_pending_window", "_pending_key")

    def __init__(
        self,
        node: LogicalNode,
        _pending_window: Optional[WindowSpec] = None,
        _pending_key: Optional[Callable[..., Hashable]] = None,
    ):
        self.node = node
        self._pending_window = _pending_window
        self._pending_key = _pending_key

    def _wrap(self, node: LogicalNode, keep_staged: bool = False) -> Stream:
        """A new handle on ``node``.

        Row-wise stages pass ``keep_staged=True`` so a window/key staged
        before them still applies to the next ``aggregate()``; stages
        that cannot precede an aggregate refuse to silently discard
        staged state (see :meth:`_consume_staged`).
        """
        if keep_staged:
            return Stream(
                node,
                _pending_window=self._pending_window,
                _pending_key=self._pending_key,
            )
        return Stream(node)

    def _require_no_staged(self, stage: str) -> None:
        """Refuse to silently drop a staged ``window()``/``group_by()``."""
        if self._pending_window is not None or self._pending_key is not None:
            staged = "window()" if self._pending_window is not None else "group_by()"
            raise PlanError(
                f"{stage} would discard the staged {staged}; call aggregate() "
                f"first or restage the window after {stage}"
            )

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    @classmethod
    def source(
        cls,
        name: str = "input",
        values: Optional[Iterable[str]] = None,
        uncertain: Optional[Iterable[str]] = None,
        family: Optional[str] = None,
        rate_hint: Optional[float] = None,
    ) -> Stream:
        """Declare a named input stream.

        ``values`` / ``uncertain`` optionally declare the attributes
        tuples will carry, enabling schema checking across the plan;
        ``family`` declares the distribution family of the uncertain
        attributes for the cost model, and ``rate_hint`` (tuples/s)
        lets it size time windows.  ``uncertain`` may also be a mapping
        ``name -> population declaration`` (a distribution, a
        ``(family, a, b)`` tuple or a
        :class:`~repro.plan.nodes.ColumnStat`), which additionally
        gives the cost model per-column selectivity estimates.
        """
        return cls(
            SourceNode(
                name=name,
                values=None if values is None else frozenset(values),
                uncertain=None if uncertain is None else frozenset(uncertain),
                family=family,
                rate_hint=rate_hint,
                stats=_column_stats(uncertain),
            )
        )

    # ------------------------------------------------------------------
    # Row-wise stages
    # ------------------------------------------------------------------
    def derive(
        self,
        values: Optional[Mapping[str, Callable[..., Any]]] = None,
        uncertain: Optional[Mapping[str, Callable[..., Distribution]]] = None,
    ) -> Stream:
        """Add derived attributes computed from existing ones."""
        node = DeriveNode(
            input=self.node,
            value_functions=tuple((values or {}).items()),
            uncertain_functions=tuple((uncertain or {}).items()),
        )
        return self._wrap(node, keep_staged=True)

    def where(
        self,
        predicate: Callable[..., bool],
        uses: Optional[Iterable[str]] = None,
        description: Optional[str] = None,
        cost_hint: Optional[float] = None,
    ) -> Stream:
        """Deterministic filter.

        Declaring ``uses`` (the attributes the predicate reads) lets
        the planner push the filter below derives and reorder it
        against probabilistic filters; ``cost_hint`` declares the
        predicate's per-tuple cost relative to a trivial comparison
        (1.0) for the ordering rank.
        """
        node = FilterNode(
            input=self.node,
            predicate=predicate,
            uses=None if uses is None else frozenset(uses),
            description=description,
            cost_hint=cost_hint,
        )
        return self._wrap(node, keep_staged=True)

    def where_probably(
        self,
        attribute: str,
        comparison: Union[Comparison, str],
        threshold: float,
        upper: Optional[float] = None,
        min_probability: float = 0.5,
        annotate: Optional[str] = "selection_probability",
    ) -> Stream:
        """Probabilistic filter on an uncertain attribute (``temp > 60``)."""
        node = ProbFilterNode(
            input=self.node,
            attribute=attribute,
            comparison=_as_comparison(comparison),
            threshold=threshold,
            upper=upper,
            min_probability=min_probability,
            annotate=annotate,
        )
        return self._wrap(node, keep_staged=True)

    # ------------------------------------------------------------------
    # Windowed aggregation
    # ------------------------------------------------------------------
    def window(self, spec: WindowSpec) -> Stream:
        """Stage a window specification for the next ``aggregate()``."""
        if not isinstance(spec, WindowSpec):
            raise PlanError(f"window() expects a WindowSpec, got {type(spec).__name__}")
        return Stream(self.node, _pending_window=spec, _pending_key=self._pending_key)

    def group_by(self, key: Callable[..., Hashable]) -> Stream:
        """Stage a grouping key for the next ``aggregate()``."""
        return Stream(self.node, _pending_window=self._pending_window, _pending_key=key)

    def aggregate(
        self,
        attribute: str,
        function: str = "sum",
        strategy: Optional[SumStrategy] = None,
        window: Optional[WindowSpec] = None,
        key: Optional[Callable[..., Hashable]] = None,
        having: Optional[HavingClause] = None,
        output_attribute: Optional[str] = None,
        check_independence: bool = True,
    ) -> Stream:
        """Aggregate the staged (or passed) window, per group if keyed.

        With ``strategy=None`` the planner's cost model chooses among
        CF approximation, CLT and CF inversion from the window size and
        the source's declared distribution family.
        """
        spec = window or self._pending_window
        if spec is None:
            raise PlanError("aggregate() needs a window: call .window(spec) first")
        node = AggregateNode(
            input=self.node,
            window=spec,
            attribute=attribute,
            function=function,
            strategy=strategy,
            key=key or self._pending_key,
            having=having,
            output_attribute=output_attribute,
            check_independence=check_independence,
        )
        return self._wrap(node)

    def having(self, threshold: float, min_probability: float = 0.5) -> Stream:
        """Attach a probabilistic HAVING clause to the aggregate just built."""
        if not isinstance(self.node, AggregateNode):
            raise PlanError("having() must directly follow aggregate()")
        clause = HavingClause(threshold=threshold, min_probability=min_probability)
        return self._wrap(replace(self.node, having=clause))

    # ------------------------------------------------------------------
    # Multi-stream stages
    # ------------------------------------------------------------------
    def join(
        self,
        other: Stream,
        on: Callable[..., float],
        window_length: float,
        min_probability: float = 0.5,
        prefix_left: str = "left_",
        prefix_right: str = "right_",
        probability_attribute: str = "match_probability",
    ) -> Stream:
        """Probabilistic sliding-window join with ``other`` (the Q2 shape).

        ``on(left_tuple, right_tuple)`` returns the probability that
        the join predicate holds for the pair.
        """
        if not isinstance(other, Stream):
            raise PlanError(f"join() expects a Stream, got {type(other).__name__}")
        self._require_no_staged("join()")
        other._require_no_staged("join()")
        node = JoinNode(
            left=self.node,
            right=other.node,
            on=on,
            window_length=window_length,
            min_probability=min_probability,
            prefix_left=prefix_left,
            prefix_right=prefix_right,
            probability_attribute=probability_attribute,
        )
        return self._wrap(node)

    def union(self, *others: Stream) -> Stream:
        """Merge this stream with one or more others (identity per tuple)."""
        self._require_no_staged("union()")
        for other in others:
            other._require_no_staged("union()")
        nodes = (self.node,) + tuple(o.node for o in others)
        return self._wrap(UnionNode(sources=nodes))

    # ------------------------------------------------------------------
    # Output shaping / escape hatch
    # ------------------------------------------------------------------
    def summarize(
        self,
        attribute: str,
        confidence: float = 0.95,
        keep_distribution: bool = False,
    ) -> Stream:
        """Replace a result distribution with its summary statistics."""
        self._require_no_staged("summarize()")
        node = SummarizeNode(
            input=self.node,
            attribute=attribute,
            confidence=confidence,
            keep_distribution=keep_distribution,
        )
        return self._wrap(node)

    def pipe(self, operator: Operator, description: Optional[str] = None) -> Stream:
        """Route the stream through a custom operator box (e.g. a T operator).

        The operator instance is stateful, so a plan containing piped
        operators can only be compiled once.
        """
        if not isinstance(operator, Operator):
            raise PlanError(f"pipe() expects an Operator, got {type(operator).__name__}")
        self._require_no_staged("pipe()")
        return self._wrap(PipeNode(input=self.node, operator=operator, description=description))

    # ------------------------------------------------------------------
    # Plan / compile
    # ------------------------------------------------------------------
    def plan(self) -> LogicalPlan:
        """Freeze this handle into a validated single-output logical plan."""
        self._require_no_staged("plan()")
        plan = LogicalPlan(outputs=(self.node,))
        plan.validate()
        return plan

    def explain(self, optimize: bool = False) -> str:
        """Render the logical plan (optionally after planner rewrites)."""
        if optimize:
            from .planner import Planner

            optimized, traces = Planner().optimize(self.plan())
            lines = [optimized.explain()]
            if traces:
                lines.append("")
                lines.append("rewrites applied:")
                lines.extend(f"  - {t.rule}: {t.description}" for t in traces)
            return "\n".join(lines)
        return self.plan().explain()

    def compile(
        self,
        batch_size: Optional[int] = None,
        optimize: bool = True,
        planner: Optional["Planner"] = None,
    ):
        """Optimize and lower this plan; returns a ``CompiledQuery``.

        ``batch_size`` pins the rows per batch ``push_many`` cuts (the
        cost model sizes it otherwise; ``push`` is always a batch of
        one); ``optimize=False`` skips the rewrite rules (used by the
        planner equivalence tests).
        """
        from .planner import Planner

        active = planner or Planner()
        return active.compile(self.plan(), batch_size=batch_size, optimize=optimize)
