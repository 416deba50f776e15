"""Physical operators that only the planner creates.

The generic boxes live in :mod:`repro.streams.operators` and
:mod:`repro.core`; this module holds the *fused* boxes produced by
planner rewrites, which have no stand-alone declarative surface.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.aggregation.operator import GroupByAggregate, UncertainAggregate
from repro.core.selection import UncertainPredicate
from repro.streams.batch import TupleBatch
from repro.streams.operators.base import Operator, OperatorError
from repro.streams.tuples import StreamTuple

__all__ = ["FusedSelectAggregate"]


class FusedSelectAggregate(Operator):
    """A probabilistic selection fused into the windowed aggregate below it.

    Produced by the ``fuse_select_into_aggregate`` rewrite.  Compared
    to the two-box plan it

    * skips building annotated survivor tuples (the aggregate discards
      per-input attributes at the window boundary anyway), and
    * evaluates the selection mask and the window moment columns in
      one pass over the batch: the survivors carry the input batch's
      columns into the window.

    The wrapped aggregate is a regular :class:`UncertainAggregate` or
    :class:`GroupByAggregate`; this box drives its window buffer and
    emission machinery directly so windowing, HAVING and strategy
    semantics stay identical to the unfused plan.
    """

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
