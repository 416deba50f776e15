"""Cold-start guard: a query session never loads ``scipy.stats``.

``scipy.stats`` costs about 0.7 s and 40 MB of every fresh interpreter
(each user, forked shard server and TCP server process).  The
distribution substrate runs on ``scipy.special`` alone, so each check
runs its code in a fresh interpreter and then asserts the module was
never imported along the way.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

SESSION_SCRIPT = """
from repro import QuerySession
from repro.distributions import Gaussian
from repro.streams import StreamTuple

session = QuerySession(batch_size=64)
session.create_stream("readings", uncertain=("value",), family="gaussian")
session.register(
    "hot",
    "SELECT SUM(value) FROM readings [ROWS 10] WHERE value > 50.0 WITH PROBABILITY 0.5",
)
session.push_many(
    "readings",
    [
        StreamTuple(timestamp=float(i), uncertain={"value": Gaussian(45.0 + i, 3.0)})
        for i in range(40)
    ],
)
session.flush()
results = session.results("hot")
assert results, "the query must emit a result"
assert results[-1].value("sum_value_mean") > 0.0
"""

GUARD = """
import sys
assert "scipy.stats" not in sys.modules, "scipy.stats was imported"
print("OK")
"""


def run_fresh(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    result = subprocess.run(
        [sys.executable, "-c", code + GUARD],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip().endswith("OK")


def test_query_session_round_trip_leaves_scipy_stats_unloaded():
    run_fresh(SESSION_SCRIPT)


def test_import_repro_radar_leaves_scipy_stats_unloaded():
    run_fresh("import repro.radar\n")
