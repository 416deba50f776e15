"""Acceptance: sharded Q1/Q2 match single-engine results to 1e-9.

The paper's monitoring queries run twice — once on a single
``CompiledQuery`` engine, once through :class:`ShardedEngine` — over
identical input, for every shard count in {1, 2, 4} (each worker runs a
shipped chunk as one batch).  Results must agree to 1e-9 in every
deterministic value and in the first two moments of every uncertain
attribute, in the same order.

Q1 exercises the aggregate-split path (derive -> filter -> grouped
time-window SUM with HAVING -> moment merge in the coordinator).  Q2's
probabilistic join is not shardable: ``ShardedEngine`` refuses it, and
``QuerySession(workers=2)`` runs it in its in-process engine, which must
be exact too.
"""

import numpy as np
import pytest

from repro.core import match_probability_band
from repro.distributions import Gaussian
from repro import QuerySession
from repro.plan import PlanError, Stream
from repro.runtime import ShardedEngine
from repro.streams import TumblingTimeWindow, StreamTuple

SHARD_COUNTS = (1, 2, 4)
#: One-row batches, and the batch size the cost model picks (in-process Q2).
BATCH_SIZES = (1, None)
TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def warehouse():
    """Catalog plus object/sensor streams (the CQL acceptance shapes)."""
    rng = np.random.default_rng(42)
    catalog = {}
    for i in range(40):
        catalog[f"O{i:03d}"] = {
            "weight": float(rng.uniform(30.0, 80.0)),
            "type": "flammable" if rng.random() < 0.4 else "general",
        }
    objects = []
    for i in range(400):
        tag = f"O{i % 50:03d}"  # some tags are ghost reads (not in catalog)
        shelf = int(rng.integers(0, 3))
        objects.append(
            StreamTuple(
                timestamp=float(i) * 0.2,
                values={"tag_id": tag},
                uncertain={
                    "x": Gaussian(10.0 + 20.0 * shelf + float(rng.normal(0, 0.5)), 0.8),
                    "y": Gaussian(10.0 + float(rng.normal(0, 0.5)), 0.8),
                },
            )
        )
    sensors = []
    for i in range(60):
        sensors.append(
            StreamTuple(
                timestamp=float(i) * 0.4,
                values={"sensor_id": i},
                uncertain={
                    "x": Gaussian(float(rng.uniform(0.0, 70.0)), 1.0),
                    "y": Gaussian(float(rng.uniform(0.0, 20.0)), 1.0),
                    "temp": Gaussian(float(rng.uniform(30.0, 95.0)), 4.0),
                },
            )
        )
    return catalog, objects, sensors


def q1_stream(catalog):
    def weight_of(tag):
        return catalog.get(tag, {}).get("weight", 0.0)

    def zone(dist):
        return int(dist.mean() // 20.0)

    return (
        Stream.source("rfid", values=("tag_id",), uncertain=("x", "y"), rate_hint=5.0)
        .derive(
            values={
                "weight": lambda t: weight_of(t.value("tag_id")),
                "area": lambda t: zone(t.distribution("x")),
            }
        )
        .where(
            lambda t: t.value("tag_id") in catalog,
            uses=("tag_id",),
            description="in catalog",
        )
        .window(TumblingTimeWindow(5.0))
        .group_by(lambda t: t.value("area"))
        .aggregate("weight")
        .having(200.0, min_probability=0.5)
    )


def q2_streams(catalog):
    def location_match(left, right):
        px = match_probability_band(left.distribution("x"), right.distribution("x"), 4.0)
        py = match_probability_band(left.distribution("y"), right.distribution("y"), 4.0)
        return px * py

    objects = Stream.source("objects", values=("tag_id",), uncertain=("x", "y"))
    sensors = Stream.source(
        "temperature", values=("sensor_id",), uncertain=("x", "y", "temp")
    )
    return (
        objects.join(
            sensors,
            on=location_match,
            window_length=30.0,
            min_probability=0.05,
            prefix_left="obj_",
            prefix_right="temp_",
        )
        .where(
            lambda t: catalog.get(t.value("obj_tag_id"), {}).get("type") == "flammable",
            uses=("obj_tag_id",),
            description="flammable",
        )
        .where_probably("temp_temp", ">", 60.0, min_probability=0.5, annotate=None)
    )


def assert_equivalent(expected, got):
    assert len(expected) == len(got), f"{len(expected)} results vs {len(got)}"
    for a, b in zip(expected, got):
        assert set(a.values) == set(b.values), (sorted(a.values), sorted(b.values))
        for key, value in a.values.items():
            other = b.values[key]
            if isinstance(value, float):
                assert other == pytest.approx(value, abs=TOLERANCE), key
            else:
                assert other == value, key
        assert set(a.uncertain) == set(b.uncertain)
        for key in a.uncertain:
            da, db = a.distribution(key), b.distribution(key)
            assert float(db.mean()) == pytest.approx(float(da.mean()), abs=TOLERANCE)
            assert float(db.variance()) == pytest.approx(
                float(da.variance()), abs=TOLERANCE
            )
        assert a.lineage == b.lineage


@pytest.fixture(scope="module")
def q1_reference(warehouse):
    catalog, objects, _ = warehouse
    query = q1_stream(catalog).compile(batch_size=1)
    query.push_many("rfid", objects)
    results = query.finish()
    assert results, "Q1 must produce overloaded-area windows"
    return results


@pytest.fixture(scope="module")
def q2_reference(warehouse):
    catalog, objects, sensors = warehouse
    query = q2_streams(catalog).compile(batch_size=1)
    query.push_many("temperature", sensors)
    query.push_many("objects", objects)
    results = query.finish()
    assert results, "Q2 must produce flammable-object alerts"
    return results


class TestQ1ShardedEquivalence:
    @pytest.mark.parametrize("workers", SHARD_COUNTS)
    def test_matches_single_engine(self, warehouse, q1_reference, workers):
        catalog, objects, _ = warehouse
        with ShardedEngine(
            q1_stream(catalog),
            workers=workers,
            backend="process",
            chunk_size=64,
        ) as engine:
            engine.push_many("rfid", objects)
            got = engine.finish()
        assert_equivalent(q1_reference, got)


class TestQ2InProcess:
    """Q2 does not shard (probabilistic join): the engine refuses it, and a
    sharded session runs it in-process, exactly."""

    def test_sharded_engine_refuses_the_join(self, warehouse):
        catalog, _, _ = warehouse
        with pytest.raises(PlanError, match="plan does not shard: .*joins"):
            ShardedEngine(q2_streams(catalog), workers=2, backend="inline")

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_sharded_session_matches_single_engine(self, warehouse, q2_reference, batch_size):
        catalog, objects, sensors = warehouse
        with QuerySession(workers=2, batch_size=batch_size) as session:
            session.register("q2", q2_streams(catalog))
            assert not session.is_sharded("q2")
            session.push_many("temperature", sensors)
            session.push_many("objects", objects)
            session.flush()
            got = session.results("q2")
        assert_equivalent(q2_reference, got)


class TestInlineBackendEquivalence:
    """The inline backend runs the same protocol without processes."""

    @pytest.mark.parametrize("workers", SHARD_COUNTS)
    def test_q1_inline_matches(self, warehouse, q1_reference, workers):
        catalog, objects, _ = warehouse
        with ShardedEngine(
            q1_stream(catalog),
            workers=workers,
            backend="inline",
            chunk_size=64,
        ) as engine:
            engine.push_many("rfid", objects)
            got = engine.finish()
        assert_equivalent(q1_reference, got)
