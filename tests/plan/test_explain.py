"""Golden-output tests for logical and end-to-end ``explain()``.

These pin the exact explain rendering for small deterministic plans so
formatting regressions (and accidental semantic changes to the rewrite
trace or cost-model reporting) show up as diffs.
"""

import textwrap

from repro.core import CLTSum
from repro.plan import Stream, compile_streams
from repro.runtime.worker import plan_signature
from repro.streams import TumblingCountWindow


def small_plan():
    return (
        Stream.source("sensors", uncertain=("value",), family="gmm")
        .where(lambda t: True, uses=("value",), description="nonnull")
        .where_probably("value", ">", 10.0)
        .window(TumblingCountWindow(4))
        .aggregate("value")
    )


LOGICAL_GOLDEN = textwrap.dedent(
    """\
    Aggregate[sum(value) @ TumblingCountWindow(size=4), strategy=auto]
      ProbFilter[value > 10.0, p>=0.5, annotate=selection_probability]
        Filter[nonnull, uses={value}]
          Source[sensors, family=gmm]"""
)

FULL_GOLDEN = textwrap.dedent(
    """\
    Logical plan
    ============
    Aggregate[sum(value) @ TumblingCountWindow(size=4), strategy=auto]
      ProbFilter[value > 10.0, p>=0.5, annotate=selection_probability]
        Filter[nonnull, uses={value}]
          Source[sensors, family=gmm]

    Rewrites
    ========
    - drop_unread_annotation: annotation 'selection_probability' of the probabilistic filter on 'value' dropped: sum(value) never reads it

    Cost model
    ==========
    - strategy for Aggregate[sum(value) @ TumblingCountWindow(size=4), strategy=auto]: cf_inversion (small window of ~4 non-Gaussian summands: exact CF inversion is affordable)
    - execution: batch(batch_size=256) (default)

    Physical plan
    =============
    - source:sensors <- Source[sensors, family=gmm]
    - Filter[nonnull] <- Filter[nonnull, uses={value}]
    - ProbabilisticSelect <- ProbFilter[value > 10.0, p>=0.5]
    - UncertainAggregate <- Aggregate[sum(value) @ TumblingCountWindow(size=4), strategy=auto]"""
)


def test_logical_explain_golden():
    assert small_plan().explain() == LOGICAL_GOLDEN


def test_full_explain_golden():
    assert small_plan().compile().explain() == FULL_GOLDEN


def test_plan_signature_tells_annotating_filters_apart():
    source = Stream.source("sensors", uncertain=("value",))
    annotating = source.where_probably("value", ">", 10.0).plan()
    plain = source.where_probably("value", ">", 10.0, annotate=None).plan()
    assert plan_signature(annotating) != plan_signature(plain)
    assert plan_signature(plain)[-1] == "ProbFilter[value > 10.0, p>=0.5]"


def test_explain_marks_shared_subplans():
    shared = Stream.source("in", uncertain=("v",)).where(lambda t: True, description="shared")
    a = shared.window(TumblingCountWindow(2)).aggregate("v", strategy=CLTSum())
    b = shared.summarize("v")
    query = compile_streams({"agg": a, "summary": b}, batch_size=1)
    text = query.explain()
    assert "#1" in text
    assert "(see #1)" in text
    assert "output agg:" in text and "output summary:" in text


def test_explain_without_rewrites_says_so():
    text = (
        Stream.source("in", uncertain=("v",))
        .summarize("v")
        .compile(batch_size=1, optimize=False)
        .explain()
    )
    assert "(none applied)" in text
