"""The sharded runtime and checkpoints, probed in ``local_batch``'s traced run.

``QuerySession(workers=1)`` on the shm-ring process backend (this process
as coordinator plus one forked worker) runs ``hot_sum`` over the same
readings as ``local_batch``, so the operator work is identical and shard
encode/ship/exec/merge and checkpoint quiesce/snapshot are the extra
work.  ``checkpoint()`` runs in auto mode (full, then deltas) into a
fresh directory under ``.bench_run/`` every 10 chunks.  Results are
consumed through ``on_result`` and never drained with ``take()``, as a
long-running client does, so every checkpoint re-serialises every
retained result and checkpoints grow through each pass
(``recovery.checkpoint_kib_last`` against ``_first``).

Each pass's results are compared with an in-process session run of the
same chunks (itself checked against numpy), and one ``recover()`` from
the newest checkpoint must restore every result delivered up to it.
"""

from __future__ import annotations

import os
import shutil

import checks
import layers
import queries as Q
from common import RUN_DIR, clock, median, percentile
from repro import QuerySession

CHUNK = 1_000
CKPT_EVERY = 10  # chunks
PASSES = 3  # recorded, after one discarded warm-up pass
BATCH_SIZE = 1024


def new_session(on_result=None) -> QuerySession:
    session = QuerySession(batch_size=BATCH_SIZE, workers=1, shard_chunk_size=CHUNK)
    Q.declare_readings(session)
    session.register("hot_sum", Q.HOT_SUM, on_result=on_result)
    return session


def measure(readings, tracer, tally) -> dict:
    """``runtime.*`` and ``recovery.*`` over the readings (spans named ``shard.*``)."""
    n = len(readings.tuples)
    expected = checks.session_reference(readings.tuples, CHUNK)
    checks.check_windows(expected, checks.hot_sum(readings, n), tally, "shard/reference")
    chunks = [readings.tuples[i : i + CHUNK] for i in range(0, n, CHUNK)]
    start_ms, ckpt_ms, ckpt_kib, stage_rows, stalls = [], [], [], [], []
    base = os.path.join(RUN_DIR, str(os.getpid()))
    # Directory of the newest checkpoints, and the results delivered
    # when its last checkpoint was taken.
    last_dir, at_checkpoint = None, 0

    def one_pass(k: int, record: bool) -> None:
        nonlocal last_dir, at_checkpoint
        results = []
        t0 = clock()
        session = new_session(results.append)
        if record:
            start_ms.append((clock() - t0) * 1e3)
        directory = os.path.join(base, f"shard-{k}")
        delivered = 0
        try:
            for j, chunk in enumerate(chunks):
                tracer.chunk = j
                tracer.span("shard.push", session.push_many, "readings", chunk)
                if (j + 1) % CKPT_EVERY == 0:
                    c0 = clock()
                    info = tracer.span("recovery.checkpoint", session.checkpoint, directory)
                    delivered = len(results)
                    if record:
                        ckpt_ms.append((clock() - c0) * 1e3)
                        ckpt_kib.append(info.bytes_written / 1024.0)
            tracer.span("shard.flush", session.flush)
            if record:
                timings = session.stage_timings("hot_sum")
                stage_rows.append({s: v / (n / 1000.0) for s, v in timings.items()})
                backpressure = session.shard_statistics("hot_sum").backpressure
                stalls.append(sum(b.stalls for b in backpressure.values()))
        finally:
            session.close()
        tally.ok(len(chunks) + 1)
        checks.check_same(results, expected, tally, "shard/hot_sum")
        if last_dir is not None:
            shutil.rmtree(last_dir, ignore_errors=True)
        last_dir, at_checkpoint = directory, delivered

    try:
        for k in range(PASSES + 1):
            one_pass(k, record=k > 0)
        t0 = clock()
        recovered = QuerySession.recover(last_dir)
        recover_ms = (clock() - t0) * 1e3
        try:
            restored = len(recovered.results("hot_sum"))
        finally:
            recovered.close()
        tally.check(restored == at_checkpoint, f"recover: {restored} results, expected {at_checkpoint}")
    finally:
        shutil.rmtree(base, ignore_errors=True)

    per_pass = len(chunks) // CKPT_EVERY
    stages = layers.median_of_dicts(stage_rows)
    out = {
        "runtime.encode_s": stages.get("encode", 0.0),
        "runtime.transport_s": stages.get("transport", 0.0),
        "runtime.decode_s": stages.get("decode", 0.0),
        "runtime.merge_s": stages.get("merge", 0.0),
        "runtime.stalls": median(stalls),
        "runtime.worker_start_ms": median(start_ms),
        "recovery.checkpoint_ms_p50": percentile(ckpt_ms, 50),
        "recovery.checkpoint_ms_max": max(ckpt_ms, default=0.0),
        "recovery.checkpoint_kib_first": median(ckpt_kib[0::per_pass]),
        "recovery.checkpoint_kib_last": median(ckpt_kib[per_pass - 1 :: per_pass]),
        "recovery.recover_ms": recover_ms,
    }
    return out
