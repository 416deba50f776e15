"""Shard scaling: ShardedEngine throughput on the select->aggregate workload.

The paper's motivating claim is stream rates a single process cannot
sustain.  This benchmark runs the canonical monitoring shape — a chain
of probabilistic selections feeding a tumbling time-window SUM — through

* the single-process engine fed one-row batches (the repo's
  correctness baseline and the reference for every speedup figure),
* the single-process engine fed batches of ``CHUNK_SIZE`` (the fastest one-process configuration,
  reported for honesty: on a single core it beats sharding, which pays
  serialization per tuple), and
* :class:`~repro.runtime.ShardedEngine` with 1, 2 and 4 forked workers
  (batch kernels inside each worker, columnar wire format, round-robin
  chunks).

Each configuration's rate is its best of ``REPEATS`` runs.  The sharded
runs are interleaved: every round runs x1, x2 and x4 once, rotating
which goes first, so a slow stretch of a shared host lands on every
shard count alike instead of on whichever block of repeats it overlaps.

Two properties are asserted:

* the 4-shard engine produces results identical (1e-9) to the single
  engine, and
* it sustains at least ``MIN_SPEEDUP`` times the one-row-batch baseline.
  The speedup has two independent sources — each worker runs the
  vectorised batch kernels, and workers run on separate cores — so a
  reduced floor applies on single-core machines, where only the first
  source exists.  The result table records the core count next to the
  rates so the numbers are interpretable.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.plan import Stream
from repro.runtime import ShardedEngine
from repro.streams import TumblingTimeWindow
from repro.workloads import gaussian_tuple_stream

N_TUPLES = 30_000
CHUNK_SIZE = 4096
REPEATS = 3
SHARD_COUNTS = (1, 2, 4)
MIN_SPEEDUP = 2.0  # 4 shards vs the single process fed one-row batches
MIN_SPEEDUP_SINGLE_CORE = 1.4  # no parallel term, kernel term only (margin)
EQUIVALENCE_TOLERANCE = 1e-9
SCALING_NOISE_TOLERANCE = 0.9  # >= 2 cores: a doubling must not cost throughput
SCALING_NOISE_TOLERANCE_SINGLE_CORE = 0.7  # one core: only bound the contention loss


def effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_query():
    """Select (3 probabilistic predicates) -> tumbling-window SUM."""
    stream = Stream.source(
        "s", uncertain=("value",), family="gaussian", rate_hint=100.0
    )
    stream = stream.where_probably("value", ">", 20.0, min_probability=0.2, annotate=None)
    stream = stream.where_probably(
        "value", "between", 10.0, upper=95.0, min_probability=0.3, annotate=None
    )
    stream = stream.where_probably("value", ">", 45.0, min_probability=0.5, annotate=None)
    return stream.window(TumblingTimeWindow(2.0)).aggregate("value")


def run_single(stream, batch_size):
    query = build_query().compile(batch_size=batch_size)
    started = time.perf_counter()
    query.push_many("s", stream)
    results = query.finish()
    return len(stream) / (time.perf_counter() - started), results, {}


def run_sharded(stream, workers):
    with ShardedEngine(
        build_query(),
        workers=workers,
        backend="process",
        chunk_size=CHUNK_SIZE,
    ) as engine:
        started = time.perf_counter()
        engine.push_many("s", stream)
        results = engine.finish()
        elapsed = time.perf_counter() - started
        stages = engine.stage_timings()
        return len(stream) / elapsed, results, stages


def best_sharded_runs(stream):
    """Best of ``REPEATS`` runs per shard count, one run of each per round."""
    best = {}
    for round_ in range(REPEATS):
        first = round_ % len(SHARD_COUNTS)
        for workers in SHARD_COUNTS[first:] + SHARD_COUNTS[:first]:
            run = run_sharded(stream, workers)
            if workers not in best or run[0] > best[workers][0]:
                best[workers] = run
    return best


def best_of(fn, *args):
    best = None
    for _ in range(REPEATS):
        run = fn(*args)
        if best is None or run[0] > best[0]:
            best = run
    return best


def assert_equivalent(expected, got):
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert a.value("window_start") == b.value("window_start")
        assert a.value("window_count") == b.value("window_count")
        da, db = a.distribution("sum_value"), b.distribution("sum_value")
        assert abs(float(da.mean()) - float(db.mean())) <= EQUIVALENCE_TOLERANCE
        assert abs(float(da.variance()) - float(db.variance())) <= EQUIVALENCE_TOLERANCE


@pytest.fixture(scope="module")
def table(result_table_factory):
    return result_table_factory(
        "shard_scaling",
        f"# select->aggregate, {N_TUPLES} tuples, chunk={CHUNK_SIZE}, "
        f"cores={os.cpu_count()}, affinity={effective_cores()}\n"
        f"{'configuration':>22} {'tuples/s':>12} {'vs 1-row':>14}",
    )


def test_shard_scaling_and_equivalence(table):
    stream = gaussian_tuple_stream(N_TUPLES, rng=9)

    base_rate, reference, _ = best_of(run_single, stream, 1)
    batch_rate, batch_results, _ = best_of(run_single, stream, CHUNK_SIZE)
    assert_equivalent(reference, batch_results)
    table.add_row(f"{'single (1-row batches)':>22} {base_rate:>12.0f} {1.0:>13.2f}x")
    table.add_row(
        f"{'single (batches)':>22} {batch_rate:>12.0f} {batch_rate / base_rate:>13.2f}x"
    )

    sharded_rates = {}
    stage_rows = []
    sharded_runs = best_sharded_runs(stream)
    for workers in SHARD_COUNTS:
        rate, results, stages = sharded_runs[workers]
        assert_equivalent(reference, results)
        sharded_rates[workers] = rate
        table.add_row(
            f"{f'sharded x{workers} (process)':>22} {rate:>12.0f} "
            f"{rate / base_rate:>13.2f}x"
        )
        stage_rows.append(
            f"# stages x{workers}: " + " ".join(
                f"{name}={stages.get(name, 0.0):.3f}s"
                for name in ("encode", "transport", "decode", "merge")
            )
        )
    for row in stage_rows:
        table.add_row(row)

    # Adding shards must not cost throughput.  On a single shared core the
    # workers and coordinator contend for cycles, so only the overhead is
    # bounded; with real parallelism available the bound is near-monotonic.
    cores = effective_cores()
    tolerance = (
        SCALING_NOISE_TOLERANCE if cores >= 2 else SCALING_NOISE_TOLERANCE_SINGLE_CORE
    )
    assert sharded_rates[2] >= tolerance * sharded_rates[1], (
        f"sharded x2 ({sharded_rates[2]:.0f} tuples/s) fell more than "
        f"{1 - tolerance:.0%} below x1 ({sharded_rates[1]:.0f}) on {cores} core(s)"
    )
    assert sharded_rates[4] >= tolerance * sharded_rates[2], (
        f"sharded x4 ({sharded_rates[4]:.0f} tuples/s) fell more than "
        f"{1 - tolerance:.0%} below x2 ({sharded_rates[2]:.0f}) on {cores} core(s)"
    )

    speedup = sharded_rates[4] / base_rate
    floor = MIN_SPEEDUP if cores >= 2 else MIN_SPEEDUP_SINGLE_CORE
    assert speedup >= floor, (
        f"4-shard engine reached only {speedup:.2f}x the single-process "
        f"one-row-batch throughput ({sharded_rates[4]:.0f} vs {base_rate:.0f} "
        f"tuples/s) on {cores} core(s); expected >= {floor}x"
    )
