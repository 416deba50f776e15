"""Checkpoint and recovery latency for the paper's Q1.

How long does durability cost?  Q1 (windowed per-area weight totals
with a probabilistic HAVING) runs over a warehouse workload until it
holds real state — open windows, per-group accumulators, a replay log
of emitted alerts — then:

* a **full** checkpoint is committed, timed, and sized;
* after a little more ingest, a **delta** checkpoint (unchanged blobs
  become refs into the full file) is committed, timed, and sized;
* the session is torn down and :meth:`QuerySession.recover` rebuilds
  it from the delta, timed end-to-end (load + re-register + operator
  state restore + worker respawn for the sharded config).

Reported for the single-process engine and for workers=4 over forked
shards on socketpairs.  Asserted: recovery is lossless (the recovered
session continues to the same results) and completes within a loose
wall-clock bound.
"""

from __future__ import annotations

import time

import numpy as np

from repro import QuerySession
from repro.distributions import Gaussian
from repro.streams import StreamTuple

N_TUPLES = 8_000
N_EXTRA = 1_000  # ingested between the full and the delta checkpoint
MAX_RECOVER_SECONDS = 30.0

Q1 = """
    SELECT weight_of(tag_id) AS weight, zone(x) AS area, SUM(weight)
    FROM rfid [RANGE 5 SECONDS SLIDE 5 SECONDS]
    WHERE in_catalog(tag_id)
    GROUP BY area
    HAVING SUM(weight) > 200 WITH CONFIDENCE 0.5
"""

CONFIGS = (
    ("single", {}),
    ("workers=4", {"workers": 4, "shard_backend": "process"}),
)


def make_catalog():
    rng = np.random.default_rng(7)
    return {
        f"O{i:03d}": {"weight": float(rng.uniform(30.0, 80.0))} for i in range(40)
    }


def make_tuples(n):
    rng = np.random.default_rng(11)
    tuples = []
    for i in range(n):
        shelf = int(rng.integers(0, 3))
        tuples.append(
            StreamTuple(
                timestamp=float(i) * 0.05,
                values={"tag_id": f"O{i % 50:03d}"},
                uncertain={
                    "x": Gaussian(10.0 + 20.0 * shelf + float(rng.normal(0, 0.5)), 0.8),
                    "y": Gaussian(10.0 + float(rng.normal(0, 0.5)), 0.8),
                },
            )
        )
    return tuples


def q1_functions(catalog):
    return {
        "weight_of": lambda tag: catalog.get(tag, {}).get("weight", 0.0),
        "in_catalog": lambda tag: tag in catalog,
        "zone": lambda x: int(x.mean() // 20.0),
    }


def build_session(functions, **kwargs):
    session = QuerySession(functions=functions, **kwargs)
    session.create_stream(
        "rfid", values=("tag_id",), uncertain=("x", "y"), family="gaussian",
        rate_hint=20.0,
    )
    session.register("q1", Q1)
    # A second query on an idle stream: its blob is byte-identical
    # between checkpoints, so the delta stores a ref, not a rewrite.
    session.create_stream("aux", uncertain=("v",), family="gaussian")
    session.register(
        "aux_totals", "SELECT SUM(v) AS total FROM aux [RANGE 5 SECONDS SLIDE 5 SECONDS]"
    )
    return session


def run_config(functions, directory, **kwargs):
    tuples = make_tuples(N_TUPLES + N_EXTRA)
    session = build_session(functions, **kwargs)
    try:
        session.push_many("rfid", tuples[:N_TUPLES])

        started = time.perf_counter()
        full = session.checkpoint(directory, mode="full")
        full_seconds = time.perf_counter() - started

        session.push_many("rfid", tuples[N_TUPLES:])
        started = time.perf_counter()
        delta = session.checkpoint(directory, mode="delta")
        delta_seconds = time.perf_counter() - started

        session.flush()
        expected = len(session.results("q1"))
    finally:
        session.close()

    started = time.perf_counter()
    recovered = QuerySession.recover(directory, functions=functions, **kwargs)
    recover_seconds = time.perf_counter() - started
    try:
        recovered.flush()
        got = len(recovered.results("q1"))
    finally:
        recovered.close()
    assert got == expected, f"recovered run found {got} alerts, expected {expected}"
    assert recover_seconds < MAX_RECOVER_SECONDS
    return full, full_seconds, delta, delta_seconds, recover_seconds


def test_q1_checkpoint_and_recover_latency(result_table_factory, tmp_path):
    catalog = make_catalog()
    functions = q1_functions(catalog)
    table = result_table_factory(
        "recovery_latency",
        f"# Q1 checkpoint+recover latency, {N_TUPLES} tuples of state "
        f"(+{N_EXTRA} before the delta)\n"
        f"{'config':>12} {'full ms':>9} {'full KiB':>9} {'delta ms':>9} "
        f"{'delta KiB':>10} {'recover ms':>11}",
    )
    for name, kwargs in CONFIGS:
        directory = str(tmp_path / name)
        full, full_s, delta, delta_s, recover_s = run_config(
            functions, directory, **kwargs
        )
        table.add_row(
            f"{name:>12} {full_s * 1e3:>9.1f} {full.bytes_written / 1024:>9.1f} "
            f"{delta_s * 1e3:>9.1f} {delta.bytes_written / 1024:>10.1f} "
            f"{recover_s * 1e3:>11.1f}"
        )
        # The delta's unchanged blobs became refs, not rewrites.
        assert delta.mode == "delta"
        assert delta.blobs_referenced >= 1
        assert delta.blobs_written < full.blobs_written
