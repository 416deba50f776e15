"""Quickstart: uncertain tuples, probabilistic selection, uncertain aggregation.

This walks through the core ideas of the paper on a tiny synthetic
stream, using the declarative query API (:mod:`repro.plan`):

1. build a stream of tuples whose ``value`` attribute is a continuous
   random variable (a Gaussian mixture per tuple),
2. declare a query: probabilistic filter -> windowed SUM -> summary,
3. let the planner rewrite it (the filter drops the probability
   annotation the aggregate never reads, so its survivors reach the
   window kernel as columns) and size the batches the query runs on, and
4. report the result as a full distribution, a confidence region, and
   error bounds.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import CFApproximationSum, CFInversionSum, summarize
from repro.distributions import variance_distance
from repro.plan import Stream
from repro.streams import TumblingCountWindow
from repro.workloads import gmm_tuple_stream


def main() -> None:
    # 1. A stream of 300 tuples; every tuple carries its own Gaussian-mixture
    #    distribution for the uncertain attribute "value".
    stream = gmm_tuple_stream(300, mean_range=(0.0, 100.0), rng=7)
    print(f"generated {len(stream)} uncertain tuples")
    example = stream[0].distribution("value")
    print(
        f"first tuple:  mean={example.mean():.2f}  std={example.std():.2f}  "
        f"components={example.n_components}"
    )

    # 2. Declare the query.  The source declares its uncertain attribute
    #    and distribution family, which feeds the planner's cost model;
    #    the SUM strategy is pinned to the CF approximation here (the
    #    paper's fastest accurate algorithm) -- drop the strategy
    #    argument to let the cost model choose it from the window size.
    query = (
        Stream.source("in", uncertain=("value",), family="gmm")
        .where_probably("value", ">", 20.0, min_probability=0.5)
        .window(TumblingCountWindow(50))
        .aggregate("value", function="sum", strategy=CFApproximationSum())
        .summarize("sum_value", confidence=0.95, keep_distribution=True)
        .compile()
    )

    # 3. What did the planner do?  The probabilistic filter stops
    #    annotating (the aggregate never reads the annotation), and the
    #    batch size is stretched to cover a whole window.
    print("\n" + query.explain())

    query.push_many("in", stream)
    results = query.finish()

    print("\nper-box statistics:")
    for stats in query.statistics():
        print(
            f"  {stats.name:<32} in={stats.tuples_in:<5} out={stats.tuples_out:<4} "
            f"batches={stats.batches_in}"
        )

    # 4. Inspect the results.
    print(f"\n{len(results)} window results "
          f"(each summarising 50 tuples that passed the probabilistic filter)")
    print(f"{'window end':>10} {'mean':>10} {'std':>8} {'95% confidence region':>28}")
    for result in results:
        dist = result.distribution("sum_value")
        summary = summarize(dist, 0.95)
        print(
            f"{result.value('window_end'):>10.2f} {summary.mean:>10.1f} {summary.std:>8.2f} "
            f"[{summary.region[0]:>10.1f}, {summary.region[1]:>10.1f}]"
        )

    # How good is the fast approximation?  Compare the last window against the
    # exact CF-inversion result.
    last_window = [t.distribution("value") for t in stream[-50:]]
    exact = CFInversionSum().result_distribution(last_window)
    approx = CFApproximationSum().result_distribution(last_window)
    print(
        "\nvariance distance between CF approximation and exact CF inversion "
        f"for the final window: {variance_distance(exact, approx):.5f}"
    )


if __name__ == "__main__":
    main()
