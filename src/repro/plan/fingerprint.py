"""Structural fingerprints for logical plan nodes.

Cross-query subplan sharing (:class:`repro.service.QuerySession`) needs
to recognise that two *independently built* logical plans contain the
same work: two queries that both read ``source("rfid")`` through the
same probabilistic filter and window should compile to **one** physical
operator chain, not two.  Node identity cannot express that — each
query builds its own node objects — so this module assigns every node a
*structural fingerprint*: a hashable value that is equal exactly when
two subtrees would lower to interchangeable physical boxes.

A fingerprint covers the node's type, its parameters, and (recursively)
the fingerprints of its inputs, so equality of fingerprints implies the
*whole subtree* matches — the only condition under which sharing a
stateful physical box (a window buffer, a join) between queries is
sound.

Callables are the subtle part.  Two textually identical lambdas are
distinct objects with unobservable semantics, so by default a callable
fingerprints by **object identity**: sharing happens when two queries
reuse the *same function object* (which the fluent API encourages, and
a UDF registry guarantees).  Code that compiles predicates from a
canonical text form — the CQL front end — can do better by tagging the
compiled closure::

    closure.__plan_fingerprint__ = ("cql-expr", canonical_text, ...)

and two closures compiled from the same text then share.  The tag must
uniquely determine the closure's behaviour; the CQL compiler includes
the identity of every referenced UDF in it.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.streams.windows import WindowSpec

from .nodes import (
    LogicalNode,
    PipeNode,
    SourceNode,
    topological_nodes,
)

__all__ = [
    "callable_fingerprint",
    "value_fingerprint",
    "node_fingerprint",
    "plan_fingerprints",
]

#: Attribute under which a compiler can tag a closure with a canonical,
#: behaviour-determining fingerprint (see module docstring).
FINGERPRINT_ATTR = "__plan_fingerprint__"


def callable_fingerprint(fn: Callable) -> Hashable:
    """Fingerprint a callable: its canonical tag, or its identity."""
    tag = getattr(fn, FINGERPRINT_ATTR, None)
    if tag is not None:
        return ("tagged", tag)
    return ("instance", id(fn))


def value_fingerprint(value) -> Hashable:
    """Fingerprint one node parameter value.

    Handles the kinds of values logical nodes carry: plain hashables,
    callables, window specs, strategy objects, frozen dataclasses
    (``HavingClause``, ``ColumnStat``) and tuples thereof.  Unknown
    unhashable objects fall back to identity, which disables sharing
    for that node — safe, never wrong.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, frozenset):
        return ("fset", tuple(sorted(map(repr, value))))
    if isinstance(value, tuple):
        return tuple(value_fingerprint(v) for v in value)
    if isinstance(value, WindowSpec):
        attrs = tuple(sorted((k, value_fingerprint(v)) for k, v in vars(value).items()))
        return ("window", type(value).__name__, attrs)
    if is_dataclass(value) and not isinstance(value, type):
        attrs = tuple(
            (f.name, value_fingerprint(getattr(value, f.name))) for f in fields(value)
        )
        return ("dc", type(value).__name__, attrs)
    if callable(value):
        return ("fn", callable_fingerprint(value))
    state = getattr(value, "__dict__", None)
    if state is not None:
        # Parameter objects (e.g. SUM strategies) fingerprint by their
        # class and attribute values.
        attrs = tuple(sorted((k, value_fingerprint(v)) for k, v in state.items()))
        return ("obj", type(value).__name__, attrs)
    return ("id", id(value))


def node_fingerprint(
    node: LogicalNode, input_fingerprints: Tuple[Hashable, ...]
) -> Hashable:
    """Fingerprint one node given the fingerprints of its inputs."""
    if isinstance(node, PipeNode):
        # A piped operator is an opaque stateful instance: two PipeNodes
        # are interchangeable only when they wrap the *same* operator
        # object (the Figure 2 shared-T-operator case).
        return ("Pipe", id(node.operator)) + tuple(input_fingerprints)
    params = []
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, LogicalNode):
            continue  # covered by input_fingerprints
        if isinstance(value, tuple) and any(isinstance(v, LogicalNode) for v in value):
            continue  # UnionNode.sources
        params.append((f.name, value_fingerprint(value)))
    return (type(node).__name__, tuple(params)) + tuple(input_fingerprints)


def plan_fingerprints(
    roots: Tuple[LogicalNode, ...],
    source_overrides: Optional[Dict[str, Hashable]] = None,
) -> Dict[int, Hashable]:
    """Fingerprint every node reachable from ``roots``.

    Returns ``id(node) -> fingerprint`` (bottom-up, memoised; shared
    node objects fingerprint once).  ``source_overrides`` optionally
    maps a source *name* to a fixed fingerprint, which a session uses
    to make every reference to a registered stream resolve to the same
    physical entry regardless of how the query re-declared it.
    """
    fingerprints: Dict[int, Hashable] = {}
    for node in topological_nodes(roots):
        if (
            source_overrides is not None
            and isinstance(node, SourceNode)
            and node.name in source_overrides
        ):
            fingerprints[id(node)] = source_overrides[node.name]
            continue
        inputs = tuple(fingerprints[id(child)] for child in node.inputs)
        fingerprints[id(node)] = node_fingerprint(node, inputs)
    return fingerprints
