"""Basic deterministic operators: filter, map / project, union, sink.

These are the conventional (certainty-unaware) relational boxes; the
uncertainty-aware selection, aggregation and join operators live in
:mod:`repro.core` and build on the same :class:`Operator` interface.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.distributions import Distribution

from ..batch import TupleBatch
from ..schema import Schema
from ..tuples import StreamTuple
from .base import Operator, OperatorError

__all__ = ["Filter", "Map", "AttributeDeriver", "Union", "CollectSink", "CallbackSink"]


class Filter(Operator):
    """Keep tuples for which ``predicate(tuple)`` is truthy.

    This is an ordinary deterministic selection, e.g. the
    ``object_type(tag_id) = 'flammable'`` predicate of Q2 which applies
    to a deterministic attribute.

    Parameters
    ----------
    predicate:
        Per-tuple predicate, called on every row when no
        ``batch_predicate`` is given.
    batch_predicate:
        Optional columnar kernel ``TupleBatch -> boolean mask`` used
        instead of calling ``predicate`` per tuple.  It must be
        semantically equivalent to the per-tuple predicate.
    """

    def __init__(
        self,
        predicate: Callable[[StreamTuple], bool],
        name: Optional[str] = None,
        input_schema: Optional[Schema] = None,
        batch_predicate: Optional[Callable[[TupleBatch], Sequence[bool]]] = None,
    ):
        super().__init__(name=name, input_schema=input_schema)
        self._predicate = predicate
        self._batch_predicate = batch_predicate

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        if self._batch_predicate is not None:
            mask = np.asarray(self._batch_predicate(batch), dtype=bool)
            return batch.select(mask)
        predicate = self._predicate
        return TupleBatch([item for item in batch if predicate(item)])


class Map(Operator):
    """Transform each tuple with an arbitrary function returning a tuple."""

    def __init__(
        self,
        fn: Callable[[StreamTuple], StreamTuple],
        name: Optional[str] = None,
        input_schema: Optional[Schema] = None,
    ):
        super().__init__(name=name, input_schema=input_schema)
        self._fn = fn

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        fn = self._fn
        outputs = []
        for item in batch:
            result = fn(item)
            if not isinstance(result, StreamTuple):
                raise OperatorError("Map function must return a StreamTuple")
            outputs.append(result)
        return TupleBatch(outputs)


class AttributeDeriver(Operator):
    """Add derived attributes computed from existing ones.

    This models the inner Select of Q1, which "simply adds two
    attributes to each tuple": the square-foot ``area`` computed from
    the uncertain location and the ``weight`` looked up from the tag id.

    Parameters
    ----------
    value_functions:
        Mapping from new deterministic attribute name to a function of
        the input tuple.
    uncertain_functions:
        Mapping from new uncertain attribute name to a function of the
        input tuple returning a :class:`Distribution`.
    """

    def __init__(
        self,
        value_functions: Optional[Mapping[str, Callable[[StreamTuple], Any]]] = None,
        uncertain_functions: Optional[Mapping[str, Callable[[StreamTuple], Distribution]]] = None,
        name: Optional[str] = None,
        input_schema: Optional[Schema] = None,
    ):
        super().__init__(name=name, input_schema=input_schema)
        self._value_functions: Dict[str, Callable[[StreamTuple], Any]] = dict(value_functions or {})
        self._uncertain_functions: Dict[str, Callable[[StreamTuple], Distribution]] = dict(
            uncertain_functions or {}
        )
        if not self._value_functions and not self._uncertain_functions:
            raise OperatorError("AttributeDeriver needs at least one derivation function")

    def _derive(self, item: StreamTuple) -> StreamTuple:
        new_values = {name: fn(item) for name, fn in self._value_functions.items()}
        new_uncertain = {}
        for name, fn in self._uncertain_functions.items():
            dist = fn(item)
            if not isinstance(dist, Distribution):
                raise OperatorError(
                    f"uncertain derivation {name!r} must return a Distribution, got {type(dist).__name__}"
                )
            new_uncertain[name] = dist
        return item.derive(values=new_values, uncertain=new_uncertain)

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        return TupleBatch([self._derive(item) for item in batch])


class Union(Operator):
    """Merge several upstream streams into one (identity per batch).

    Because the engine pushes batches from any upstream operator into
    this box, Union simply forwards whatever it receives; it exists to
    give the merge point a name and statistics.
    """

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        return batch


class CollectSink(Operator):
    """Terminal operator collecting every received tuple into a list."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self.results: List[StreamTuple] = []

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        self.results.extend(batch)
        return TupleBatch()

    def clear(self) -> None:
        self.results.clear()

    def state_snapshot(self) -> dict:
        return {"results": list(self.results)}

    def state_restore(self, state) -> None:
        if state is None:
            raise OperatorError(f"{self.name!r} expected a collected-results state")
        self.results = list(state["results"])


class CallbackSink(Operator):
    """Terminal operator invoking a callback for every received tuple."""

    def __init__(self, callback: Callable[[StreamTuple], None], name: Optional[str] = None):
        super().__init__(name=name)
        self._callback = callback

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        callback = self._callback
        for item in batch:
            callback(item)
        return TupleBatch()
