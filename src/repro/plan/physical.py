"""Physical operators that only the planner creates.

The generic boxes live in :mod:`repro.streams.operators` and
:mod:`repro.core`; this module holds the *fused* boxes produced by
planner rewrites, which have no stand-alone declarative surface.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.aggregation.operator import GroupByAggregate, UncertainAggregate
from repro.core.selection import UncertainPredicate
from repro.streams.batch import TupleBatch
from repro.streams.operators.base import Operator, OperatorError
from repro.streams.tuples import StreamTuple

__all__ = ["FusedSelectAggregate", "FusedBatchSegment"]


class FusedSelectAggregate(Operator):
    """A probabilistic selection fused into the windowed aggregate below it.

    Produced by the ``fuse_select_into_aggregate`` rewrite.  Compared
    to the two-box plan it

    * skips building annotated survivor tuples (the aggregate discards
      per-input attributes at the window boundary anyway), and
    * evaluates the selection mask and the window moment columns in
      one pass over the batch.

    The wrapped aggregate is a regular :class:`UncertainAggregate` or
    :class:`GroupByAggregate`; this box drives its window buffer and
    emission machinery directly so windowing, HAVING and strategy
    semantics stay identical to the unfused plan.
    """

    supports_batch = True

    def __init__(
        self,
        predicate: UncertainPredicate,
        min_probability: float,
        aggregate: Operator,
        name: Optional[str] = None,
    ):
        if not isinstance(aggregate, (UncertainAggregate, GroupByAggregate)):
            raise TypeError(
                "FusedSelectAggregate wraps an UncertainAggregate or GroupByAggregate, "
                f"got {type(aggregate).__name__}"
            )
        super().__init__(name=name or f"FusedSelect+{type(aggregate).__name__}")
        self.predicate = predicate
        self.min_probability = min_probability
        self.aggregate = aggregate

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        probs = self.predicate.probabilities(batch)
        survivors = batch.select(probs >= self.min_probability)
        agg = self.aggregate
        return TupleBatch(agg._emit_batch(agg._buffer.add_many(survivors)))

    def flush(self) -> Iterable[StreamTuple]:
        yield from self.aggregate.flush()

    def state_snapshot(self) -> dict:
        # The selection is stateless; the fused box's only state lives
        # in the wrapped aggregate's window buffer.
        return {"aggregate": self.aggregate.state_snapshot()}

    def state_restore(self, state: Optional[dict]) -> None:
        if state is None:
            raise OperatorError(f"{self.name!r} expected a fused-aggregate state")
        self.aggregate.state_restore(state["aggregate"])


class FusedBatchSegment(Operator):
    """A linear chain of batch-capable boxes fused into one dispatch.

    Produced by the planner's union fan-in lowering: every arrow in a
    batch plan costs one scheduler round (stack push, counter and
    timing bookkeeping, schema hook) per batch, and the chains feeding
    a Union multiply those arrows.  This box runs its members'
    ``process_batch`` kernels back-to-back inside a single
    ``accept_batch``, so an entire branch pays one dispatch per batch.

    Semantics are exactly those of the unfused chain: members run in
    order, and ``flush`` cascades each member's end-of-stream output
    through the members after it as one batch — the same tuples, in the
    same order, the engine's topological flush would deliver.  The
    members must all advertise ``supports_batch``; the planner never
    fuses a per-tuple fallback box, so the segment's own
    ``supports_batch = True`` stays honest.
    """

    supports_batch = True

    def __init__(self, operators: Sequence[Operator], name: Optional[str] = None):
        if len(operators) < 2:
            raise OperatorError("a fused segment needs at least two member operators")
        for op in operators:
            if not op.supports_batch:
                raise OperatorError(
                    f"cannot fuse {op.name!r}: it runs the per-tuple fallback loop"
                )
        super().__init__(name=name or "Segment[" + " → ".join(op.name for op in operators) + "]")
        self.operators: List[Operator] = list(operators)

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        return _run_chain(self.operators, batch)

    def flush(self) -> Iterable[StreamTuple]:
        for i, op in enumerate(self.operators):
            yield from _run_chain(self.operators[i + 1 :], TupleBatch(op.flush()))

    def state_snapshot(self) -> dict:
        return {
            "members": [
                {"name": op.name, "state": op.state_snapshot()} for op in self.operators
            ]
        }

    def state_restore(self, state: Optional[dict]) -> None:
        if state is None:
            raise OperatorError(f"{self.name!r} expected a segment state")
        members = state["members"]
        if len(members) != len(self.operators):
            raise OperatorError(
                f"{self.name!r}: segment has {len(self.operators)} members, "
                f"checkpoint recorded {len(members)}"
            )
        for op, entry in zip(self.operators, members):
            if entry["name"] != op.name:
                raise OperatorError(
                    f"{self.name!r}: member {op.name!r} does not match "
                    f"checkpointed member {entry['name']!r}"
                )
            op.state_restore(entry["state"])


def _run_chain(operators: Sequence[Operator], batch: TupleBatch) -> TupleBatch:
    """Run ``batch`` through ``operators``' batch kernels in order."""
    for op in operators:
        if not len(batch):
            break
        batch = op.process_batch(batch)
        if not isinstance(batch, TupleBatch):
            batch = TupleBatch(batch)
    return batch
