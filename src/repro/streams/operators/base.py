"""Operator base classes for the box-arrow stream architecture.

Following the box-arrow paradigm (Aurora-style) described in Section 3,
a query plan is a directed acyclic graph in which every *box* is an
:class:`Operator` and every *arrow* is a connection along which tuples
flow.  Operators are push-based: the engine calls
:meth:`Operator.accept_batch` with each input batch and forwards the
batch the operator emits to its downstream boxes.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterable, List, Optional, Sequence

from ..batch import TupleBatch
from ..schema import Schema
from ..tuples import StreamTuple

__all__ = ["Operator", "FunctionOperator", "PassThroughOperator", "OperatorError"]


class OperatorError(Exception):
    """Raised when an operator is misconfigured or misused."""


class Operator:
    """A query-plan box that transforms an input stream into an output stream.

    Subclasses implement :meth:`process` (per tuple), which the default
    :meth:`process_batch` loops over, or :meth:`process_batch` itself,
    and optionally :meth:`flush` (end of stream).  An operator may declare an
    ``input_schema`` against which incoming tuples are validated.
    """

    #: Honest batch-support advertisement: True only when
    #: :meth:`process_batch` runs a vectorised / bulk kernel rather than
    #: the per-tuple fallback loop.  ``CompiledQuery.explain()`` and the
    #: planner's cost model read this to report (and predict) which
    #: boxes actually benefit from batch execution.  Subclasses with a
    #: real kernel override it (usually as a property that re-checks the
    #: fallback condition, so a subclass overriding ``process`` is
    #: automatically honest again).
    supports_batch: bool = False

    def __init__(self, name: Optional[str] = None, input_schema: Optional[Schema] = None):
        self.name = name or type(self).__name__
        self.input_schema = input_schema
        self._downstream: List["Operator"] = []
        self.tuples_in = 0
        self.tuples_out = 0
        self.batches_in = 0
        self.processing_seconds = 0.0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def connect(self, downstream: Operator) -> Operator:
        """Connect this operator's output to ``downstream`` and return it.

        Returning the downstream operator allows fluent chaining:
        ``source.connect(select).connect(aggregate)``.
        """
        if downstream is self:
            raise OperatorError("an operator cannot be connected to itself")
        self._downstream.append(downstream)
        return downstream

    def disconnect(self, downstream: Operator) -> None:
        """Remove the arrow to ``downstream`` (one arrow per call).

        Used for dynamic plan mutation: a continuous-query session
        detaches a dropped query's exclusive boxes from the operators
        that survive it.  Raises :class:`OperatorError` when no such
        arrow exists, so a detach that misses is never silent.
        """
        for i, op in enumerate(self._downstream):
            if op is downstream:
                del self._downstream[i]
                return
        raise OperatorError(
            f"{self.name!r} has no arrow to {downstream.name!r} to disconnect"
        )

    @property
    def downstream(self) -> Sequence["Operator"]:
        return tuple(self._downstream)

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def _keeps_process_of(self, cls: type) -> bool:
        """True when this instance still runs ``cls``'s ``process``.

        Classes with a vectorised ``process_batch`` pair it with a
        specific ``process`` implementation; a subclass overriding
        ``process`` alone invalidates the kernel.  Such classes express
        both their ``supports_batch`` property and their kernel gate
        through this single check so the two can never disagree.
        """
        return type(self).process is cls.process

    def process(self, item: StreamTuple) -> Iterable[StreamTuple]:
        """Consume one input tuple and yield zero or more output tuples."""
        raise NotImplementedError(f"{type(self).__name__} does not implement process")

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        """Consume a batch and return the output batch.

        The default implementation is a per-tuple fallback loop over
        :meth:`process`, so every existing operator participates in
        batch execution unchanged.  Operators with a vectorisable hot
        path (filtering, probabilistic selection, moment-based
        aggregation) override this with a columnar kernel.
        """
        outputs: List[StreamTuple] = []
        process = self.process
        for item in batch:
            outputs.extend(process(item))
        return TupleBatch(outputs)

    def flush(self) -> Iterable[StreamTuple]:
        """Emit any buffered state at end of stream (default: nothing)."""
        return ()

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def accept_batch(self, batch: TupleBatch) -> TupleBatch:
        """Validate, process and count a whole batch; used by the engine."""
        if self.input_schema is not None:
            for item in batch:
                self.input_schema.validate(item)
        self.tuples_in += len(batch)
        self.batches_in += 1
        started = perf_counter()
        outputs = self.process_batch(batch)
        self.processing_seconds += perf_counter() - started
        if not isinstance(outputs, TupleBatch):
            outputs = TupleBatch(outputs)
        self.tuples_out += len(outputs)
        return outputs

    def finish(self) -> List[StreamTuple]:
        """Flush and count remaining tuples; used by the engine."""
        outputs = list(self.flush())
        self.tuples_out += len(outputs)
        return outputs

    def reset_counters(self) -> None:
        """Reset the tuples-in / tuples-out / timing statistics."""
        self.tuples_in = 0
        self.tuples_out = 0
        self.batches_in = 0
        self.processing_seconds = 0.0

    # ------------------------------------------------------------------
    # Durability hooks
    # ------------------------------------------------------------------
    def state_snapshot(self) -> Optional[dict]:
        """Return this operator's mutable state, or ``None`` if stateless.

        Stateful operators (window buffers, aggregates, join build
        sides, sinks) override this to return a JSON-like dict whose
        leaves are scalars, nested dicts/lists, and lists of
        :class:`StreamTuple` (serialized by the checkpoint codec via the
        wire format).  The returned dict must be a *copy*: the operator
        keeps running after a checkpoint.
        """
        return None

    def state_restore(self, state: Optional[dict]) -> None:
        """Install a state previously returned by :meth:`state_snapshot`.

        The default accepts only ``None`` (stateless); an operator that
        overrides :meth:`state_snapshot` must override this too.
        """
        if state is not None:
            raise OperatorError(
                f"{self.name!r} ({type(self).__name__}) does not support state restore"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(name={self.name!r})"


class FunctionOperator(Operator):
    """An operator defined by a plain function ``tuple -> iterable of tuples``."""

    def __init__(
        self,
        fn: Callable[[StreamTuple], Iterable[StreamTuple]],
        name: Optional[str] = None,
        input_schema: Optional[Schema] = None,
    ):
        super().__init__(name=name or getattr(fn, "__name__", "FunctionOperator"), input_schema=input_schema)
        self._fn = fn

    def process(self, item: StreamTuple) -> Iterable[StreamTuple]:
        return self._fn(item)


class PassThroughOperator(Operator):
    """An operator that forwards every tuple unchanged.

    Useful as a named junction point in a plan and in tests.
    """

    def process(self, item: StreamTuple) -> Iterable[StreamTuple]:
        yield item

    @property
    def supports_batch(self) -> bool:  # type: ignore[override]
        return self._keeps_process_of(PassThroughOperator)

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        # Forward the batch object untouched -- but only when ``process``
        # is the identity above; a subclass overriding ``process`` alone
        # must keep per-tuple semantics on the batch path too.
        if self.supports_batch:
            return batch
        return super().process_batch(batch)
