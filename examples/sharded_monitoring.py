"""Sharded warehouse monitoring: one query, N worker processes.

The paper targets RFID/radar rates a single Python process cannot
sustain.  This example runs a Q1-style monitoring query — per-shelf
weight totals with a probabilistic HAVING — through the sharded
parallel runtime twice:

* directly on a :class:`repro.runtime.ShardedEngine`, to show the
  partition-aware plan split (``explain()``: the shard-local partial
  aggregate, the coordinator's moment merge, HAVING on the merged
  result) and the per-shard statistics;
* through :class:`repro.QuerySession` with ``workers=2``, where a
  registered CQL query transparently runs sharded while an unshardable
  one (a count-window query) stays in the shared engine.

Both produce results identical to a single engine: tumbling *time*
windows assign tuples to windows by timestamp alone, so every shard
closes the same windows and the moment-closed SUM strategies make the
partial aggregates merge exactly.

Run with:  python examples/sharded_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import QuerySession
from repro.distributions import Gaussian
from repro.plan import Stream
from repro.runtime import ShardedEngine
from repro.streams import StreamTuple, TumblingTimeWindow


def warehouse_stream(n_tuples: int, seed: int = 7):
    """Object sightings: a tag, a shelf, and an uncertain weight."""
    rng = np.random.default_rng(seed)
    shelf_weight = {shelf: float(rng.uniform(35.0, 65.0)) for shelf in range(4)}
    tuples = []
    for i in range(n_tuples):
        shelf = int(rng.integers(0, 4))
        tuples.append(
            StreamTuple(
                timestamp=i * 0.05,  # 20 sightings per second
                values={"tag_id": f"O{i % 60:03d}", "shelf": shelf},
                uncertain={
                    "weight": Gaussian(
                        shelf_weight[shelf] + float(rng.normal(0.0, 5.0)), 2.0
                    )
                },
            )
        )
    return tuples


def monitoring_query() -> Stream:
    """Per-shelf weight totals over 5 s windows, alert above 900 pounds."""
    return (
        Stream.source(
            "sightings",
            values=("tag_id", "shelf"),
            uncertain=("weight",),
            family="gaussian",
            rate_hint=20.0,
        )
        .window(TumblingTimeWindow(5.0))
        .group_by(lambda t: t.value("shelf"))
        .aggregate("weight")
        .having(900.0, min_probability=0.5)
    )


def main() -> None:
    tuples = warehouse_stream(4000)

    # --- the sharded engine, directly -----------------------------------
    with ShardedEngine(monitoring_query(), workers=4, chunk_size=512) as engine:
        print(engine.explain())
        engine.push_many("sightings", tuples)
        alerts = engine.finish()

        print(f"\n{len(alerts)} overloaded-shelf windows from 4 shards:")
        for alert in alerts[:5]:
            total = alert.distribution("sum_weight")
            print(
                f"  t=[{alert.value('window_start'):6.1f}, {alert.value('window_end'):6.1f}) "
                f"shelf {alert.value('group')}: total ~ N({total.mean():7.1f}, {total.std():5.1f}) "
                f"P[>900] = {alert.value('having_probability'):.2f}"
            )

        stats = engine.statistics()
        print("\nper-shard input (round-robin chunks):")
        for shard in sorted(stats.shards):
            source = next(s for s in stats.shards[shard] if s.name.startswith("source:"))
            print(f"  shard {shard}: {source.tuples_in} tuples in")

    # --- the same capability through the service layer ------------------
    single = monitoring_query().compile()
    single.push_many("sightings", tuples)
    expected = single.finish()

    with QuerySession(workers=2) as session:
        session.create_stream(
            "sightings",
            values=("tag_id", "shelf"),
            uncertain=("weight",),
            family="gaussian",
            rate_hint=20.0,
        )
        session.create_function("shelf_of", lambda t: t)
        # CQL text registers exactly as in a one-process session; the
        # sharding decision is per query.
        session.register(
            "overloaded",
            """
            SELECT SUM(weight) FROM sightings [RANGE 5 SECONDS SLIDE 5 SECONDS]
            GROUP BY shelf
            HAVING SUM(weight) > 900 WITH CONFIDENCE 0.5
            """,
        )
        session.register("recent", "SELECT COUNT(*) AS n FROM sightings [ROWS 500]")
        session.push_many("sightings", tuples)
        session.flush()

        print("\n" + session.explain())
        sharded_results = session.results("overloaded")
        print(
            f"\nservice results: {len(sharded_results)} alerts "
            f"(single engine produced {len(expected)}), "
            f"{len(session.results('recent'))} count windows"
        )
        drift = max(
            (
                abs(
                    a.distribution("sum_weight").mean()
                    - b.distribution("sum_weight").mean()
                )
                for a, b in zip(expected, sharded_results)
            ),
            default=0.0,
        )
        print(f"max |mean drift| vs single engine: {drift:.2e}")


if __name__ == "__main__":
    main()
