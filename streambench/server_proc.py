"""A StreamServer in its own process, for the network probe (``probe_tcp.py``).

    python3 streambench/server_proc.py

Prints the listening address, serves until stdin closes, then stops the
server and prints its peak resident memory as one JSON line.

The process is prepared the way the generator prepares its own: the
start-up heap (mostly numpy and scipy module objects) is frozen out of
the garbage collector's scans, and the main thread spins while it waits,
so the server's vCPU does not idle between open-loop ticks.  Unfrozen,
every full collection rescanned that heap: 50-120 ms pauses, about one
per open-loop segment, on the development VM.  The server's only other
thread is its event loop, and a long switch interval keeps the spinning
main thread from making the loop hand over the interpreter lock in the
middle of a batch.
"""

from __future__ import annotations

import gc
import json
import os
import sys

if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from common import own_peak_rss_mb, wait_for_stdin_close
    from repro import QuerySession
    from repro.net import serve_in_thread

    gc.freeze()
    sys.setswitchinterval(1.0)
    session = QuerySession(batch_size=1024)
    handle = serve_in_thread(session)
    print(handle.address, flush=True)
    wait_for_stdin_close(spin=True)
    handle.stop()
    session.close()
    print(json.dumps({"peak_rss_mb": own_peak_rss_mb()}), flush=True)
