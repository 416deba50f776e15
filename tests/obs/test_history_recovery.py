"""History-ring persistence: checkpoint → SIGKILL → recover → monotonic.

The ring rides in a ``history-*.json`` checkpoint sidecar.  Timestamps
are ``CLOCK_MONOTONIC`` (boot-relative, process-independent on Linux),
so ticks recorded *after* recovery in a fresh process land strictly
later than the restored ones — the "history continues monotonically"
claim, proven here across a hard kill.
"""

import os
import pathlib
import signal
import subprocess
import sys
import textwrap

import numpy as np

from repro import QuerySession, obs
from repro.recovery.checkpoint import CheckpointStore

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

TOTALS = "SELECT SUM(w) AS total FROM rfid [RANGE 5 SECONDS SLIDE 5 SECONDS]"

CHILD_SCRIPT = textwrap.dedent(
    """
    import sys, time
    import numpy as np
    from repro import QuerySession
    from repro.distributions import Gaussian
    from repro.streams import StreamTuple

    directory = sys.argv[1]
    rng = np.random.default_rng(17)
    tuples = [
        StreamTuple(
            timestamp=i * 0.2,
            values={"tag_id": f"T{i % 5}"},
            uncertain={"w": Gaussian(float(rng.uniform(20.0, 60.0)), 2.0)},
        )
        for i in range(200)
    ]
    session = QuerySession()
    session.create_stream(
        "rfid", values=("tag_id",), uncertain=("w",), family="gaussian",
        rate_hint=5.0,
    )
    session.register("totals", @TOTALS@)
    for start in (0, 50, 100):
        session.push_many("rfid", tuples[start : start + 50])
        session.record_tick()
        time.sleep(0.01)  # distinct tick timestamps
    session.checkpoint(directory)
    print("CHECKPOINTED", flush=True)
    time.sleep(120)  # killed long before this expires
    """
).replace("@TOTALS@", repr(TOTALS))


def declare(session):
    session.create_stream(
        "rfid", values=("tag_id",), uncertain=("w",), family="gaussian",
        rate_hint=5.0,
    )


class TestHistorySidecar:
    def test_checkpoint_writes_history_sidecar(self, tmp_path, rfid_tuples):
        session = QuerySession()
        declare(session)
        session.register("totals", TOTALS)
        session.push_many("rfid", rfid_tuples[:100])
        session.record_tick()
        session.record_tick()
        info = session.checkpoint(str(tmp_path))
        blob = CheckpointStore(str(tmp_path)).load_history(info.checkpoint_id)
        session.close()
        assert blob is not None
        restored = obs.HistoryRing.from_blob(blob)
        assert len(restored) == 2

    def test_tickless_session_writes_no_history_sidecar(self, tmp_path):
        session = QuerySession()
        declare(session)
        info = session.checkpoint(str(tmp_path))
        session.close()
        assert CheckpointStore(str(tmp_path)).load_history(
            info.checkpoint_id
        ) is None

    def test_in_process_recover_restores_the_ring(self, tmp_path, rfid_tuples):
        session = QuerySession()
        declare(session)
        session.register("totals", TOTALS)
        session.push_many("rfid", rfid_tuples[:100])
        session.record_tick()
        session.record_tick()
        session.checkpoint(str(tmp_path))
        session.close()

        recovered = QuerySession.recover(str(tmp_path))
        try:
            assert recovered.recovered_history is not None
            assert len(recovered.recovered_history.get("series", {})) > 0
            assert len(recovered.history) == 2
            # The health engine evaluates off the restored ring.
            assert recovered.health.history is recovered.history
        finally:
            recovered.close()


class TestCrashRecovery:
    def test_history_survives_sigkill_and_continues_monotonically(
        self, tmp_path
    ):
        directory = str(tmp_path / "ckpts")
        env = dict(os.environ, PYTHONPATH=SRC)
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT, directory],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,
            text=True,
        )
        try:
            marker = child.stdout.readline().strip()
            assert marker == "CHECKPOINTED", child.stderr.read()
            os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
            child.stdout.close()
            child.stderr.close()

        recovered = QuerySession.recover(directory)
        try:
            assert len(recovered.history) == 3  # the child's ticks survived
            restored_keys = recovered.history.keys()
            assert restored_keys, "the restored ring must hold series"

            # New ticks in the recovered process extend the same ring,
            # and the shared monotonic clock keeps time going forward.
            recovered.record_tick()
            recovered.record_tick()
            assert len(recovered.history) == 5

            # Tick times are delta-encoded in the blob: after the
            # absolute first entry, every step must be a positive delta
            # — including the one that spans the crash.
            steps = recovered.history.to_blob()["times"]
            assert len(steps) == 5
            assert all(
                step is not None and step > 0 for step in steps[1:]
            ), f"history time went backwards across recovery: {steps}"

            # A series recorded on both sides of the crash still
            # supports burn-rate queries over the whole ring.  (Pin the
            # child's query: the process-global registry may hold
            # reset-to-zero series left behind by earlier tests, which
            # appear only on the parent's ticks.)
            latencies = [
                key for key in recovered.history.keys()
                if key.startswith('repro_query_latency_seconds{query="totals"}')
            ]
            assert latencies, "the child's latency series must be restored"
            times, _ = recovered.history.series(latencies[0])
            assert times.size >= 3
            assert np.all(np.diff(times) > 0)
        finally:
            recovered.close()
