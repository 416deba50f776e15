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

Each single-process configuration's rate is its best of ``REPEATS``
runs.  The sharded runs are interleaved probes: each of ``ROUNDS``
rounds runs x1, x2 and x4 once, rotating which goes first, so a slow
stretch of a shared host lands on every shard count alike.  A scaling
claim is then a *paired* statistic: the median over rounds of the
within-round ratio (x2/x1, x4/x2).  Pairing cancels the host's speed in
that round, and the median drops the rounds a stall hit; the best of a
few unpaired runs does neither (one run of a best-of-3 swung from 170k
to 290k tuples/s on a 2-vCPU VM).

Three properties are asserted:

* every sharded run produces results identical (1e-9) to the single
  engine,
* a doubling of shards does not cost throughput: the median paired
  ratios x2/x1 and x4/x2 stay at or above ``SCALING_NOISE_TOLERANCE``,
  and
* the 4-shard engine's median rate is at least ``MIN_SPEEDUP`` times the
  one-row-batch baseline.
  The speedup has two independent sources — each worker runs the
  vectorised batch kernels, and workers run on separate cores — so a
  reduced floor applies on single-core machines, where only the first
  source exists.  The result table records the core count next to the
  rates so the numbers are interpretable.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.plan import Stream
from repro.runtime import ShardedEngine
from repro.streams import TumblingTimeWindow
from repro.workloads import gaussian_tuple_stream

N_TUPLES = 30_000
CHUNK_SIZE = 4096
REPEATS = 3
ROUNDS = 15  # interleaved sharded rounds; a multiple of len(SHARD_COUNTS)
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


def sharded_rounds(stream):
    """``ROUNDS`` rounds of one run per shard count, rotating which goes first."""
    rounds = []
    for round_ in range(ROUNDS):
        first = round_ % len(SHARD_COUNTS)
        order = SHARD_COUNTS[first:] + SHARD_COUNTS[:first]
        rounds.append({workers: run_sharded(stream, workers) for workers in order})
    return rounds


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


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

    rounds = sharded_rounds(stream)
    stage_rows = []
    median_rates = {}
    for workers in SHARD_COUNTS:
        rates = [round_[workers][0] for round_ in rounds]
        for _, results, _ in (round_[workers] for round_ in rounds):
            assert_equivalent(reference, results)
        median_rates[workers] = statistics.median(rates)
        table.add_row(
            f"{f'sharded x{workers} (process)':>22} {median_rates[workers]:>12.0f} "
            f"{median_rates[workers] / base_rate:>13.2f}x"
            f"   (median of {ROUNDS}, range {min(rates):.0f}-{max(rates):.0f})"
        )
        # The stage split of the median run.
        stages = rounds[rates.index(sorted(rates)[ROUNDS // 2])][workers][2]
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
    for more, fewer in ((2, 1), (4, 2)):
        ratios = [round_[more][0] / round_[fewer][0] for round_ in rounds]
        q1, median, q3 = quartiles(ratios)
        table.add_row(
            f"# paired x{more}/x{fewer}: median {median:.3f}, IQR {q1:.3f}-{q3:.3f} "
            f"over {ROUNDS} rounds"
        )
        assert median >= tolerance, (
            f"sharded x{more} fell more than {1 - tolerance:.0%} below x{fewer} on "
            f"{cores} core(s): median paired ratio {median:.3f} (IQR {q1:.3f}-{q3:.3f}) "
            f"over {ROUNDS} interleaved rounds"
        )

    speedup = median_rates[4] / base_rate
    floor = MIN_SPEEDUP if cores >= 2 else MIN_SPEEDUP_SINGLE_CORE
    assert speedup >= floor, (
        f"4-shard engine reached only {speedup:.2f}x the single-process "
        f"one-row-batch throughput ({median_rates[4]:.0f} vs {base_rate:.0f} "
        f"tuples/s) on {cores} core(s); expected >= {floor}x"
    )
