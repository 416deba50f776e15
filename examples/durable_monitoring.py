"""Durable monitoring: checkpoint every N batches, crash, resume losslessly.

The monitoring session of the other examples, made restartable.  A
child process serves the query session (two forked shard workers, each
on its end of a socketpair); the parent drives it over the wire
protocol:

* ingest arrives in batches, and every second batch the client issues
  a ``CHECKPOINT`` — the server quiesces its shards and commits a
  versioned checkpoint file (full first, deltas after) atomically;
* a subscriber consumes results, remembering ``last_seq``;
* the server alone is then killed with ``SIGKILL`` — no cleanup; its
  shard workers read EOF on their sockets and exit with it;
* ``QuerySession.recover`` rebuilds the session from the newest
  checkpoint in a fresh process, the client re-pushes everything after the checkpoint cut, and the
  subscriber reconnects with ``resume_from=last_seq`` — receiving
  every result it missed exactly once.

The combined result stream is compared against an uninterrupted run:
identical to 1e-9.

Run with:  python examples/durable_monitoring.py
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro import QuerySession
from repro.distributions import Gaussian
from repro.net import StreamClient, serve_in_thread
from repro.streams import StreamTuple

MONITOR = "SELECT SUM(weight) AS total FROM sightings [RANGE 5 SECONDS SLIDE 5 SECONDS]"
BATCH = 250          # tuples per ingest batch
BATCHES = 8          # 2000 tuples at 0.05 s spacing = 100 s = 20 windows
CRASH_AFTER = 6      # batches ingested before the SIGKILL
CHECKPOINT_EVERY = 2


def sightings(n: int = BATCH * BATCHES, seed: int = 7):
    rng = np.random.default_rng(seed)
    return [
        StreamTuple(
            timestamp=i * 0.05,
            values={"tag_id": f"O{i % 60:03d}"},
            uncertain={"weight": Gaussian(float(rng.uniform(35.0, 65.0)), 2.0)},
        )
        for i in range(n)
    ]


def build_session() -> QuerySession:
    # Small shard chunks keep both shards fed every batch, so the
    # min-watermark merge horizon (and with it result delivery) tracks
    # ingest closely instead of lagging a whole batch behind.
    session = QuerySession(workers=2, shard_backend="process",
                           shard_chunk_size=128)
    session.create_stream(
        "sightings", values=("tag_id",), uncertain=("weight",),
        family="gaussian", rate_hint=20.0,
    )
    session.register("overloaded", MONITOR)
    return session


def serve_child() -> None:
    """Child mode: host the session until the parent kills us."""
    handle = serve_in_thread(build_session())
    workers = " ".join(str(p.pid) for p in multiprocessing.active_children())
    print(f"ADDRESS {handle.address} WORKERS {workers}", flush=True)
    time.sleep(300)  # the parent's SIGKILL arrives long before this


def running(pid: int) -> bool:
    """True while ``pid`` runs (a zombie nobody reaped has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: ask the kernel
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def main() -> None:
    tuples = sightings()
    checkpoint_dir = tempfile.mkdtemp(prefix="repro-ckpt-")

    # The reference: the same workload, never interrupted.
    with build_session() as reference:
        reference.push_many("sightings", tuples)
        reference.flush()
        expected = reference.results("overloaded")
    print(f"uninterrupted run: {len(expected)} windows\n")

    # --- serve in a child process, checkpoint while ingesting -----------
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--serve"],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    _, address, _, *workers = child.stdout.readline().split()
    workers = [int(pid) for pid in workers]
    print(f"serving from pid {child.pid} at {address}, shard workers {workers}")

    client = StreamClient(address, timeout=15.0)
    sub = client.subscribe("overloaded")
    ingested = 0
    for batch in range(CRASH_AFTER):
        client.ingest("sightings", tuples[ingested : ingested + BATCH])
        ingested += BATCH
        if (batch + 1) % CHECKPOINT_EVERY == 0:
            info = client.checkpoint(checkpoint_dir)
            print(f"  batch {batch + 1}: checkpoint {info} committed")
    received = sub.take(10)  # consume part of the stream, then 'crash'
    seen = sub.last_seq
    print(f"subscriber has {len(received)} results, last_seq={seen}")

    # --- SIGKILL the coordinator alone: no cleanup ---------------------
    os.kill(child.pid, signal.SIGKILL)
    child.wait()
    child.stdout.close()
    sub.close()
    client.close()
    deadline = time.monotonic() + 2.0
    while any(running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.02)
    survivors = [pid for pid in workers if running(pid)]
    print(f"\nSIGKILL'd the server; {len(workers) - len(survivors)} of "
          f"{len(workers)} shard workers died with it")
    assert not survivors, f"shard workers {survivors} outlived their coordinator"

    # --- recover, re-push past the checkpoint cut, resume ---------------
    recovered = QuerySession.recover(checkpoint_dir)
    print("recovered from checkpoint")
    handle = serve_in_thread(recovered)
    with StreamClient(handle.address, timeout=15.0) as client:
        with client.subscribe("overloaded", resume_from=seen) as sub:
            # The checkpoint covers every ingested batch; push the rest.
            client.ingest("sightings", tuples[ingested:])
            client.flush()
            while sub.last_seq < len(expected):
                received.extend(sub.recv(timeout=15.0))
    handle.stop()

    drift = max(
        abs(a.distribution("total").mean() - b.distribution("total").mean())
        for a, b in zip(expected, received)
    )
    print(f"\nresumed subscriber: {len(received)} results total "
          f"({len(expected)} expected, none duplicated)")
    print(f"max |mean drift| vs uninterrupted run: {drift:.2e}")
    assert len(received) == len(expected)
    assert drift < 1e-9


if __name__ == "__main__":
    if "--serve" in sys.argv:
        serve_child()
    else:
        main()
