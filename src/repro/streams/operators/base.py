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

    Subclasses implement :meth:`process_batch` -- the only processing
    method, a pushed tuple being a batch of one -- and optionally
    :meth:`flush` (end of stream).  An operator that applies a per-row
    function loops over the batch itself (:class:`FunctionOperator`
    wraps a plain function that way).  Defining a per-tuple ``process``
    method raises :class:`TypeError` at class creation, so an override
    the engine would never call cannot pass silently.  An operator may
    declare an ``input_schema`` against which incoming tuples are
    validated.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "process" in cls.__dict__:
            raise TypeError(
                f"{cls.__qualname__} defines process(); operators implement "
                "process_batch(batch) -> TupleBatch instead"
            )

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
    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        """Consume a batch and return the output batch."""
        raise NotImplementedError(f"{type(self).__name__} does not implement process_batch")

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

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        fn = self._fn
        return TupleBatch([out for item in batch for out in fn(item)])


class PassThroughOperator(Operator):
    """An operator that forwards every batch unchanged.

    Useful as a named junction point in a plan and in tests.
    """

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        return batch
