"""SIGKILL a serving process mid-ingest; recover from its checkpoint.

The child process runs a sharded session (forked workers, each on its
end of a socketpair), checkpoints, keeps ingesting, then is killed —
process group and all — without any chance to clean up.  No worker may
outlive the killed group.  The parent recovers from the checkpoint into
a fresh process, re-pushes everything after the checkpoint cut, and
must match an uninterrupted run to 1e-9.
"""

import os
import pathlib
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import QuerySession
from repro.distributions import Gaussian
from repro.streams import StreamTuple

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

TOTALS = "SELECT SUM(w) AS total FROM rfid [RANGE 5 SECONDS SLIDE 5 SECONDS]"

CHILD_SCRIPT = textwrap.dedent(
    """
    import multiprocessing, sys, time
    import numpy as np
    from repro import QuerySession
    from repro.distributions import Gaussian
    from repro.streams import StreamTuple

    directory, workers = sys.argv[1], int(sys.argv[2])
    rng = np.random.default_rng(41)
    tuples = [
        StreamTuple(
            timestamp=i * 0.2,
            values={"tag_id": f"T{i % 5}"},
            uncertain={"w": Gaussian(float(rng.uniform(20.0, 60.0)), 2.0)},
        )
        for i in range(400)
    ]
    session = QuerySession(workers=workers, shard_backend="process")
    session.create_stream(
        "rfid", values=("tag_id",), uncertain=("w",), family="gaussian",
        rate_hint=5.0,
    )
    session.register("totals", @TOTALS@)
    session.push_many("rfid", tuples[:150])
    session.checkpoint(directory)
    # Ingest past the checkpoint: everything from here dies with us.
    session.push_many("rfid", tuples[150:250])
    pids = [child.pid for child in multiprocessing.active_children()]
    print("CHECKPOINTED", *pids, flush=True)
    time.sleep(120)  # killed long before this expires
    """
).replace("@TOTALS@", repr(TOTALS))


def make_tuples():
    rng = np.random.default_rng(41)
    return [
        StreamTuple(
            timestamp=i * 0.2,
            values={"tag_id": f"T{i % 5}"},
            uncertain={"w": Gaussian(float(rng.uniform(20.0, 60.0)), 2.0)},
        )
        for i in range(400)
    ]


class TestCrashRecovery:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_sigkill_recover_matches_uninterrupted(
        self, tmp_path, assert_tuples_equivalent, still_running_after, workers
    ):
        directory = str(tmp_path / "ckpts")
        tuples = make_tuples()

        # The reference: the same workload, never interrupted.
        with QuerySession(workers=workers, shard_backend="process") as reference:
            reference.create_stream(
                "rfid", values=("tag_id",), uncertain=("w",), family="gaussian",
                rate_hint=5.0,
            )
            reference.register("totals", TOTALS)
            reference.push_many("rfid", tuples)
            reference.flush()
            expected = reference.results("totals")
        assert expected, "the reference run must emit results"

        # Serve in a child process (own process group, so the SIGKILL
        # takes the forked shard workers down with the coordinator).
        env = dict(os.environ, PYTHONPATH=SRC)
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT, directory, str(workers)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,
            text=True,
        )
        try:
            marker, *pids = child.stdout.readline().split()
            assert marker == "CHECKPOINTED", child.stderr.read()
            worker_pids = [int(pid) for pid in pids]
            assert len(worker_pids) == workers
            os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
            child.stdout.close()
            child.stderr.close()
        assert still_running_after(worker_pids, 5.0) == []

        recovered = QuerySession.recover(directory, workers=workers,
                                         shard_backend="process")
        try:
            # The post-checkpoint ingest died with the child; re-push
            # everything after the checkpoint cut, then the rest.
            recovered.push_many("rfid", tuples[150:])
            recovered.flush()
            got = recovered.results("totals")
        finally:
            recovered.close()
        assert_tuples_equivalent(expected, got)
