"""Set-up probe: one fresh interpreter, timed by its parent until ``ready``.

    python3 streambench/setup_probe.py <workload> <seed>

Imports ``repro`` and runs the workload's ``setup()`` (session start,
stream declaration, CQL registration), prints ``ready``, then tears
everything down once stdin closes.  No inputs are generated here.
"""

from __future__ import annotations

import importlib
import os
import sys

if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from common import wait_for_stdin_close
    from run import WORKLOADS

    workload = importlib.import_module(WORKLOADS[sys.argv[1]])
    handle = workload.setup(int(sys.argv[2]))
    print("ready", flush=True)
    wait_for_stdin_close()
    handle.close()
