"""Select→aggregate plans: the optimized plan equals the annotated one, bit for bit.

A probabilistic selection feeding a windowed aggregate (the paper's
Section 5 shape, and the benchmark's ``hot_sum``) lowers to two ordinary
boxes.  When the aggregate cannot read the selection's probability
annotation, the ``drop_unread_annotation`` rule stops the selection from
annotating: its survivors are then ``batch.select(keep)`` with the input
batch's columns, instead of freshly built annotated rows.  The results
must not change at all: the same windows, groups, counts, lineage and
HAVING decisions, and the same floats, compared with ``==``.

The rule must not fire for a grouped aggregate (a group key is an opaque
callable, even a ``ColumnKey``), so those cases pin that the plan keeps
its annotation and still agrees.
"""

import numpy as np
import pytest

from repro.core.aggregation import ColumnKey
from repro.distributions import Gaussian, GaussianMixture
from repro.plan import AggregateNode, ProbFilterNode, Stream
from repro.streams import StreamTuple, TumblingTimeWindow

#: One-row batches, a batch that cuts windows, and the planner's choice.
BATCH_SIZES = (1, 64, None)

#: HAVING thresholds (ungrouped, grouped) near the median result, so
#: HAVING keeps some windows and drops others.
HAVING = {"sum": (1490.0, 300.0), "avg": (64.0, 64.0), "count": (23, 4)}


def readings(n=600, seed=3):
    """Tagged readings: Gaussians and two-component mixtures."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        if i % 4 == 3:
            value = GaussianMixture(
                rng.dirichlet(np.ones(2)), rng.uniform(20.0, 80.0, 2), rng.uniform(1.0, 8.0, 2)
            )
        else:
            value = Gaussian(float(rng.uniform(20.0, 80.0)), float(rng.uniform(1.0, 8.0)))
        rows.append(
            StreamTuple(timestamp=0.01 * i, values={"tag": f"T{i % 5}"}, uncertain={"value": value})
        )
    return rows


def build(function, having, key):
    stream = (
        Stream.source("readings", values=("tag",), uncertain=("value",))
        .where_probably("value", ">", 50.0, min_probability=0.5)
        .window(TumblingTimeWindow(0.5))
    )
    if key is not None:
        stream = stream.group_by(key)
    stream = stream.aggregate("value", function=function)
    if having:
        ungrouped, grouped = HAVING[function]
        stream = stream.having(grouped if key is not None else ungrouped, min_probability=0.5)
    return stream


#: One stream for every run, so the lineage ids agree too.
READINGS = readings()


def run(stream, batch_size, optimize):
    query = stream.compile(batch_size=batch_size, optimize=optimize)
    query.push_many("readings", READINGS)
    return query, query.finish()


def assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.timestamp == b.timestamp
        assert a.values == b.values
        assert [type(v) for v in a.values.values()] == [type(v) for v in b.values.values()]
        assert a.lineage == b.lineage
        assert a.uncertain.keys() == b.uncertain.keys()
        for name, dist in a.uncertain.items():
            other = b.uncertain[name]
            assert type(dist) is type(other)
            assert (dist.mean(), dist.variance()) == (other.mean(), other.variance())


@pytest.mark.parametrize("batch_size", BATCH_SIZES, ids=["rows", "b64", "planner"])
@pytest.mark.parametrize("key", [None, ColumnKey("tag")], ids=["no-key", "column-key"])
@pytest.mark.parametrize("having", [False, True], ids=["no-having", "having"])
@pytest.mark.parametrize("function", ["sum", "avg", "count"])
def test_optimized_equals_annotated_plan(function, having, key, batch_size):
    annotated_query, annotated = run(build(function, having, key), batch_size, optimize=False)
    optimized_query, optimized = run(build(function, having, key), batch_size, optimize=True)
    assert annotated, "the workload produced no results; the comparison is vacuous"

    rules = [trace.rule for trace in optimized_query.rewrites]
    root = optimized_query.optimized_plan.outputs[0]
    assert isinstance(root, AggregateNode) and isinstance(root.input, ProbFilterNode)
    assert annotated_query.optimized_plan.outputs[0].input.annotate == "selection_probability"
    if key is None:
        assert rules == ["drop_unread_annotation"]
        assert root.input.annotate is None
    else:
        assert rules == []
        assert root.input.annotate == "selection_probability"
    if having:
        # HAVING decided something: it dropped some windows.
        assert len(annotated) < len(run(build(function, False, key), batch_size, False)[1])
    assert_identical(optimized, annotated)
