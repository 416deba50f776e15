"""Stream-processing substrate: tuples, windows, operators, engine, lineage.

This package implements the conventional data-stream machinery the
paper builds on (the box-arrow paradigm of Section 3): tuples that flow
along arrows between operator boxes, CQL-style window specifications,
a push-based execution engine, and lineage tracking/archival.  The
uncertainty-aware operators that constitute the paper's contribution
live in :mod:`repro.core` and plug into this substrate.
"""

from .batch import TupleBatch
from .engine import EngineError, OperatorStats, StreamEngine, run_plan
from .lineage import TupleArchive, are_independent, correlation_groups
from .operators import (
    AttributeDeriver,
    CallbackSink,
    CollectSink,
    Filter,
    FunctionOperator,
    Map,
    Operator,
    OperatorError,
    PassThroughOperator,
    Union,
)
from .schema import Attribute, AttributeKind, Schema, SchemaError
from .serialization import decode_batch, encode_batch_wire
from .tuples import (
    StreamTuple,
    TupleId,
    advance_tuple_counter,
    next_tuple_id,
    tuple_counter_mark,
)
from .windows import (
    NowWindow,
    SlidingTimeWindow,
    TumblingCountWindow,
    TumblingTimeWindow,
    WindowBuffer,
    WindowSpec,
    iter_windows,
)

__all__ = [
    "StreamTuple",
    "TupleBatch",
    "TupleId",
    "next_tuple_id",
    "tuple_counter_mark",
    "advance_tuple_counter",
    "Schema",
    "Attribute",
    "AttributeKind",
    "SchemaError",
    "WindowSpec",
    "WindowBuffer",
    "TumblingCountWindow",
    "TumblingTimeWindow",
    "SlidingTimeWindow",
    "NowWindow",
    "iter_windows",
    "Operator",
    "OperatorError",
    "FunctionOperator",
    "PassThroughOperator",
    "Filter",
    "Map",
    "AttributeDeriver",
    "Union",
    "CollectSink",
    "CallbackSink",
    "StreamEngine",
    "EngineError",
    "OperatorStats",
    "run_plan",
    "TupleArchive",
    "are_independent",
    "correlation_groups",
    "encode_batch_wire",
    "decode_batch",
]
