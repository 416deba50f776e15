"""Push-based execution engine for box-arrow query plans.

The :class:`StreamEngine` owns a set of operators (boxes) and the
connections between them (arrows), accepts tuples from named sources,
and pushes data through the plan with an *iterative* worklist scheduler
(no recursion, so arbitrarily deep plans execute without hitting the
interpreter's recursion limit).  The engine is single-threaded and
deterministic: the paper's performance numbers come from algorithmic
choices inside the operators, not from parallel execution, so a simple
engine keeps experiments reproducible.

There is one execution path.  Whole
:class:`~repro.streams.batch.TupleBatch` containers move between boxes
(:meth:`~repro.streams.operators.base.Operator.accept_batch`), so
operators run their vectorised kernels
(:meth:`~repro.streams.operators.base.Operator.process_batch`) and pay
per-call overhead once per batch.  :meth:`StreamEngine.push` is a batch
of one; :meth:`StreamEngine.push_many` chunks its input into batches of
the engine's ``batch_size`` (one tuple per batch when none is set);
:meth:`StreamEngine.push_batch` takes a batch as given.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import obs

from .batch import TupleBatch
from .operators.base import Operator
from .tuples import StreamTuple

__all__ = ["StreamEngine", "EngineError", "OperatorStats", "run_plan"]

_engine_scopes = itertools.count(1)


class EngineError(Exception):
    """Raised for plan-construction or execution errors."""


@dataclass(frozen=True)
class OperatorStats:
    """Per-box statistics surfaced by :meth:`StreamEngine.statistics`."""

    name: str
    tuples_in: int
    tuples_out: int
    batches_in: int
    seconds: float

    @property
    def tuples_per_second(self) -> float:
        """Input throughput of the box (0.0 when no time was recorded)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.tuples_in / self.seconds


class StreamEngine:
    """Executes a DAG of operators over pushed tuples or batches.

    Typical use::

        engine = StreamEngine(batch_size=1024)
        engine.add_source("rfid", t_operator)
        t_operator.connect(select)
        select.connect(aggregate)
        aggregate.connect(sink)
        engine.register(select, aggregate, sink)

        engine.push_many("rfid", stream)   # chunked into batches
        engine.finish()

    Parameters
    ----------
    batch_size:
        Rows per :class:`TupleBatch` that :meth:`push_many` cuts its
        input into.  ``None`` (default) pushes one-row batches, so every
        tuple is delivered before the next one is read.
    """

    def __init__(
        self, batch_size: Optional[int] = None, obs_scope: Optional[str] = None
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise EngineError(f"batch_size must be at least 1, got {batch_size}")
        #: Scope label under which this engine's operators appear in the
        #: :mod:`repro.obs` registry (METRICS snapshots, Prometheus).
        self.obs_scope = obs_scope or f"engine-{next(_engine_scopes)}"
        self._sources: Dict[str, Operator] = {}
        self._operators: List[Operator] = []
        self._operator_ids: set = set()
        #: Operators unregistered while a propagation may still hold
        #: scheduled (operator, batch) pairs pointing at them.  The
        #: propagation loops skip quarantined boxes so a query dropped
        #: from inside a sink callback stops receiving tuples
        #: *immediately*, not after the in-flight push drains.  Keyed by
        #: id() but holding the operator object, so a quarantined id
        #: cannot be recycled by the allocator while the entry lives;
        #: entries are cleared at the next top-level push.
        self._detached: Dict[int, Operator] = {}
        #: Propagation re-entrancy depth: a push issued from inside a
        #: sink callback must not clear the quarantine the outer
        #: propagation still relies on.
        self._propagation_depth = 0
        self.batch_size = batch_size

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def add_source(self, name: str, operator: Operator) -> Operator:
        """Register ``operator`` as the entry point for source ``name``."""
        if name in self._sources:
            raise EngineError(f"source {name!r} is already registered")
        self._sources[name] = operator
        self.register(operator)
        return operator

    def register(self, *operators: Operator) -> None:
        """Register operators so the engine can flush and inspect them."""
        registry = obs.get_registry()
        for op in operators:
            self._detached.pop(id(op), None)
            if id(op) not in self._operator_ids:
                self._operator_ids.add(id(op))
                self._operators.append(op)
                registry.operator_view(self.obs_scope, op)

    def unregister(self, *operators: Operator) -> None:
        """Forget operators (dynamic detach of a dropped query's boxes).

        Only removes the operators from the engine's bookkeeping; the
        caller is responsible for first disconnecting any arrows that
        still point at them from surviving operators (otherwise
        :meth:`_discover` finds them again through the graph).

        Takes effect immediately even mid-propagation: when a query is
        dropped from inside a result callback while ``push_many`` is
        running, tuples already scheduled for the detached boxes are
        discarded rather than delivered (the boxes are *quarantined*
        until the next top-level push).
        """
        doomed = {id(op) for op in operators}
        self._operator_ids -= doomed
        self._operators = [op for op in self._operators if id(op) not in doomed]
        for op in operators:
            self._detached[id(op)] = op

    def remove_source(self, name: str) -> Operator:
        """Drop a named source and unregister its entry operator."""
        try:
            entry = self._sources.pop(name)
        except KeyError as exc:
            raise EngineError(f"unknown source {name!r}") from exc
        self.unregister(entry)
        return entry

    def _discover(self) -> List[Operator]:
        """Return all operators reachable from sources plus registered ones."""
        seen: List[Operator] = []
        seen_ids: set = set()
        queue = deque(self._operators)
        while queue:
            op = queue.popleft()
            if id(op) in seen_ids:
                continue
            seen_ids.add(id(op))
            seen.append(op)
            queue.extend(op.downstream)
        return seen

    @property
    def operators(self) -> Sequence[Operator]:
        return tuple(self._discover())

    def validate(self) -> None:
        """Check that the plan is a DAG (no operator reachable from itself).

        One tri-color depth-first pass over the whole graph: operators
        are *white* (unvisited), *gray* (on the current DFS path) or
        *black* (fully explored).  An arrow into a gray operator is a
        back edge, i.e. a cycle through that operator.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[int, int] = {}
        for start in self._discover():
            if color.get(id(start), WHITE) != WHITE:
                continue
            color[id(start)] = GRAY
            stack = [(start, iter(start.downstream))]
            while stack:
                op, edges = stack[-1]
                advanced = False
                for nxt in edges:
                    state = color.get(id(nxt), WHITE)
                    if state == GRAY:
                        raise EngineError(f"cycle detected through operator {nxt.name!r}")
                    if state == WHITE:
                        color[id(nxt)] = GRAY
                        stack.append((nxt, iter(nxt.downstream)))
                        advanced = True
                        break
                if not advanced:
                    color[id(op)] = BLACK
                    stack.pop()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def push(self, source: str, item: StreamTuple) -> None:
        """Push one tuple into the plan via the named source (a batch of one)."""
        self.push_batch(source, TupleBatch((item,)))

    def push_many(
        self,
        source: str,
        items: Iterable[StreamTuple],
        batch_size: Optional[int] = None,
    ) -> None:
        """Push a sequence of tuples into the plan via the named source.

        The input is chunked into :class:`TupleBatch` containers of
        ``batch_size`` rows (from the argument or the engine default;
        one row when neither is set).
        """
        size = self.batch_size if batch_size is None else batch_size
        if size is None:
            size = 1
        if size < 1:
            raise EngineError(f"batch_size must be at least 1, got {size}")
        if isinstance(items, (list, tuple)):
            # Sequences chunk by slicing -- no per-item append loop.
            for start in range(0, len(items), size):
                self.push_batch(source, TupleBatch(items[start : start + size]))
            return
        chunk: List[StreamTuple] = []
        for item in items:
            chunk.append(item)
            if len(chunk) >= size:
                self.push_batch(source, TupleBatch(chunk))
                chunk = []
        if chunk:
            self.push_batch(source, TupleBatch(chunk))

    def push_batch(
        self, source: str, batch: Union[TupleBatch, Iterable[StreamTuple]]
    ) -> None:
        """Push a whole batch into the plan via the named source."""
        try:
            entry = self._sources[source]
        except KeyError as exc:
            raise EngineError(f"unknown source {source!r}") from exc
        if not isinstance(batch, TupleBatch):
            batch = TupleBatch(batch)
        if self._detached and self._propagation_depth == 0:
            self._detached.clear()
        self._propagate_batch(entry, batch)

    def _propagate_batch(self, operator: Operator, batch: TupleBatch) -> None:
        """Iterative propagation of a batch (depth-first over boxes).

        When the active trace is sampled (:mod:`repro.obs.spans`), each
        operator's ``accept_batch`` is recorded as one ``op.<name>``
        span parented to the surrounding stage span; the decision is
        made once per batch, so unsampled traffic pays a single branch.
        """
        trace = obs.active()
        traced = trace is not None and obs.sampled_trace(trace)
        parent = obs.current_parent() if traced else None
        stack: List[Tuple[Operator, TupleBatch]] = [(operator, batch)]
        self._propagation_depth += 1
        try:
            while stack:
                op, current = stack.pop()
                if not len(current):
                    continue
                if self._detached and id(op) in self._detached:
                    continue  # unregistered mid-propagation; drop in-flight batches
                if traced:
                    t0 = obs.trace_clock()
                    outputs = op.accept_batch(current)
                    obs.record_span(
                        f"op.{op.name}",
                        "operator",
                        trace.trace_id,
                        t0,
                        obs.trace_clock(),
                        parent_id=parent,
                    )
                else:
                    outputs = op.accept_batch(current)
                if not len(outputs):
                    continue
                downstream = op.downstream
                if not downstream:
                    continue
                stack.extend(reversed([(nxt, outputs) for nxt in downstream]))
        finally:
            self._propagation_depth -= 1

    # ------------------------------------------------------------------
    # End of stream
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Flush every operator in topological order (end of stream).

        Each operator's flushed tuples propagate downstream as one batch.
        """
        if self._detached and self._propagation_depth == 0:
            self._detached.clear()
        for op in self._topological_order():
            if self._detached and id(op) in self._detached:
                continue  # dropped by a callback while this flush ran
            outputs = op.finish()
            if not outputs:
                continue
            flushed = TupleBatch(outputs)
            for nxt in op.downstream:
                self._propagate_batch(nxt, flushed)

    def _topological_order(self) -> List[Operator]:
        ops = self._discover()
        indegree: Dict[int, int] = {id(op): 0 for op in ops}
        by_id: Dict[int, Operator] = {id(op): op for op in ops}
        for op in ops:
            for nxt in op.downstream:
                indegree[id(nxt)] = indegree.get(id(nxt), 0) + 1
                by_id.setdefault(id(nxt), nxt)
        queue = deque(op for op in ops if indegree[id(op)] == 0)
        order: List[Operator] = []
        while queue:
            op = queue.popleft()
            order.append(op)
            for nxt in op.downstream:
                indegree[id(nxt)] -= 1
                if indegree[id(nxt)] == 0:
                    queue.append(nxt)
        if len(order) != len(by_id):
            raise EngineError("cannot flush a plan containing cycles")
        return order

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def statistics(self) -> List[OperatorStats]:
        """Return one :class:`OperatorStats` record per box.

        Each record carries the tuples in and out, the batches processed,
        the cumulative processing time and the derived throughput.  The
        records are views over :class:`repro.obs.OperatorView`
        instruments (get-or-created in the default registry under this
        engine's ``obs_scope``), so the METRICS verb and this method
        read the same cells.  The per-tuple hot path is untouched: views
        sample the operators' plain counters at call time.
        """
        registry = obs.get_registry()
        return [
            OperatorStats(*registry.operator_view(self.obs_scope, op).stats())
            for op in self._discover()
        ]

    def reset(self) -> None:
        """Reset per-operator counters (does not clear operator state)."""
        for op in self._discover():
            op.reset_counters()


def run_plan(
    source_operator: Operator,
    items: Iterable[StreamTuple],
    sink: Optional[Operator] = None,
    batch_size: Optional[int] = None,
) -> List[StreamTuple]:
    """Convenience helper: run ``items`` through a linear plan and collect results.

    If ``sink`` is None, a :class:`~repro.streams.operators.basic.CollectSink`
    is appended to the last operator reachable from ``source_operator``.
    ``batch_size`` is the rows per pushed batch (one when ``None``).
    """
    from .operators.basic import CollectSink

    engine = StreamEngine(batch_size=batch_size)
    engine.add_source("input", source_operator)
    if sink is None:
        # Find the terminal operator by walking single-output chains.
        tail = source_operator
        seen = {id(tail)}
        while tail.downstream:
            if len(tail.downstream) != 1:
                raise EngineError("run_plan requires a linear plan or an explicit sink")
            tail = tail.downstream[0]
            if id(tail) in seen:
                raise EngineError("cycle detected in plan")
            seen.add(id(tail))
        sink = CollectSink()
        tail.connect(sink)
    engine.push_many("input", items)
    engine.finish()
    if not isinstance(sink, Operator) or not hasattr(sink, "results"):
        raise EngineError("sink must expose a 'results' list")
    return list(sink.results)  # type: ignore[attr-defined]
