"""Fan-out plans on the one execution path: batch size never changes results.

``StreamEngine.push`` delivers one-row batches and ``push_many`` cuts
its input into batches of ``batch_size`` rows.  A batch moves through a
box as one unit, so a box with two downstream arrows hands its whole
output batch to the first arrow before the second: where a sink is
reached by two paths from one source, the rows arrive in a different
interleaving at different batch sizes.  This module pins what must not
change with the batch size:

* every sink receives the same multiset of tuples (values and
  distribution moments within 1e-9, timestamps equal), and
* a sink with a single path from its source receives them in the same
  order.

The plan covers a diamond that re-merges through a ``Union``, a
``ProbabilisticJoin`` fed by two branches of one source, and one shared
box feeding two sinks (plus a windowed aggregate, so ``finish()``'s
flush is part of the comparison).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CLTSum,
    Comparison,
    ProbabilisticJoin,
    ProbabilisticSelect,
    UncertainAggregate,
    UncertainPredicate,
    match_probability_band,
)
from repro.distributions import Gaussian
from repro.streams import (
    AttributeDeriver,
    CollectSink,
    Filter,
    Map,
    PassThroughOperator,
    StreamEngine,
    StreamTuple,
    TumblingCountWindow,
    Union,
)

TOLERANCE = 1e-9
BATCH_SIZES = (2, 64)
#: Sinks reached by exactly one path from the source.
SINGLE_PATH_SINKS = ("shared_a", "shared_b", "windows")


def make_stream(n: int = 400, seed: int = 17):
    """Alternating object/reading rows with Gaussian x positions, 0.1 s apart."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        kind = "obj" if rng.random() < 0.5 else "temp"
        rows.append(
            StreamTuple(
                timestamp=0.1 * i,
                values={"kind": kind, "seq": i},
                uncertain={"x": Gaussian(float(rng.uniform(0.0, 20.0)), float(rng.uniform(0.5, 2.0)))},
            )
        )
    return rows


def build_plan():
    """One source, every fan-out shape; returns (engine, sinks by name)."""
    source = PassThroughOperator(name="source")
    sinks = {
        name: CollectSink(name=name)
        for name in ("diamond", "join", "shared_a", "shared_b", "windows")
    }

    # Diamond: one selection fans out into two branches that a Union
    # merges again.
    select = ProbabilisticSelect(
        UncertainPredicate("x", Comparison.GREATER, 5.0), min_probability=0.3
    )
    near = Filter(lambda t: t.distribution("x").mean() < 12.0, name="near")
    tagged = Map(lambda t: t.derive(values={"branch": "tagged"}), name="tagged")
    union = Union()
    source.connect(select)
    select.connect(near).connect(union)
    select.connect(tagged).connect(union)
    union.connect(sinks["diamond"])

    # Join fed by two branches of the same source.
    join = ProbabilisticJoin(
        window_length=1.0,
        match_probability=lambda left, right: match_probability_band(
            left.distribution("x"), right.distribution("x"), 2.0
        ),
        min_probability=0.2,
        prefix_left="obj_",
        prefix_right="temp_",
    )
    objects = Filter(lambda t: t.value("kind") == "obj", name="objects")
    readings = Filter(lambda t: t.value("kind") == "temp", name="readings")
    source.connect(objects).connect(join.left_port())
    source.connect(readings).connect(join.right_port())
    join.connect(sinks["join"])

    # One shared box feeding two sinks, one of them through a window.
    shared = AttributeDeriver(value_functions={"double": lambda t: 2 * t.value("seq")})
    source.connect(shared)
    shared.connect(sinks["shared_a"])
    shared.connect(sinks["shared_b"])
    aggregate = UncertainAggregate(TumblingCountWindow(7), "x", CLTSum())
    shared.connect(aggregate).connect(sinks["windows"])

    engine = StreamEngine()
    engine.add_source("in", source)
    engine.register(*sinks.values())
    engine.validate()
    return engine, sinks


def run(batch_size):
    """Results per sink: one-row ``push`` calls, or ``push_many`` in batches."""
    engine, sinks = build_plan()
    stream = make_stream()
    if batch_size is None:
        for item in stream:
            engine.push("in", item)
    else:
        engine.push_many("in", stream, batch_size=batch_size)
    engine.finish()
    return {name: list(sink.results) for name, sink in sinks.items()}


def signature(item: StreamTuple):
    """An exact, order-independent sort key for a result tuple."""
    return (
        item.timestamp,
        tuple(sorted((k, repr(v)) for k, v in item.values.items() if not isinstance(v, float))),
        tuple(sorted(item.uncertain)),
    )


def assert_same_tuple(a: StreamTuple, b: StreamTuple) -> None:
    assert a.timestamp == b.timestamp
    assert set(a.values) == set(b.values)
    for key, value in a.values.items():
        if isinstance(value, float):
            assert b.values[key] == pytest.approx(value, abs=TOLERANCE), key
        else:
            assert b.values[key] == value, key
    assert set(a.uncertain) == set(b.uncertain)
    for key in a.uncertain:
        da, db = a.distribution(key), b.distribution(key)
        assert float(db.mean()) == pytest.approx(float(da.mean()), abs=TOLERANCE), key
        assert float(db.variance()) == pytest.approx(float(da.variance()), abs=TOLERANCE), key


@pytest.fixture(scope="module")
def reference():
    results = run(None)
    for name, rows in results.items():
        assert rows, f"sink {name!r} received nothing; the comparison would be vacuous"
    return results


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_every_sink_gets_the_same_multiset(reference, batch_size):
    got = run(batch_size)
    for name, expected in reference.items():
        assert len(got[name]) == len(expected), name
        for a, b in zip(sorted(expected, key=signature), sorted(got[name], key=signature)):
            assert_same_tuple(a, b)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_single_path_sinks_keep_their_order(reference, batch_size):
    got = run(batch_size)
    for name in SINGLE_PATH_SINKS:
        assert len(got[name]) == len(reference[name]), name
        for a, b in zip(reference[name], got[name]):
            assert_same_tuple(a, b)


def test_multi_path_sinks_really_interleave_differently(reference):
    """Guard: the diamond and the join sinks do see a batch-size-dependent order."""
    got = run(BATCH_SIZES[-1])
    for name in ("diamond", "join"):
        assert [signature(t) for t in got[name]] != [signature(t) for t in reference[name]], name
