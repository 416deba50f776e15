"""Stream benchmark entry point.

    python3 streambench/run.py --workload local_batch --seed 1 --seconds 40 --trace 0

Runs one workload from a seed, checks every output against a reference,
and prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics — the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a traced run) with ``--trace 1``.  The end-to-end times
are scaled to a reference host speed, measured all through the run with
a fixed job that uses nothing from ``repro``; the times as taken are
printed on standard error.  Exits non-zero when any output fails its
check or any process or shared-memory segment leaks.  See README.md
beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import sys
import traceback

from common import (
    RUN_DIR,
    ROOT,
    HostMeter,
    Tally,
    Tracer,
    clock,
    latency_summary,
    live_children,
    median,
    percentile,
    probe_setup,
    repro_segments,
    stop_resource_tracker,
)

WORKLOADS = {
    "local_batch": "wl_local",
    "rfid_pf": "wl_rfid",
}

END_TO_END = {
    "tuples_per_s": "1/s",
    "result_latency_p50_ms": "ms",
    "result_latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric, with its unit.  A workload that does not run
#: a layer reports 0 for it (no work was done there).
PER_LAYER = {
    "cql.import_s": "s",
    "cql.register_ms": "ms",
    "service.push_us_per_tuple": "us",
    "service.flush_ms": "ms",
    "service.results": "count",
    "op.hot_sum.busy_us_per_tuple": "us",
    "op.hot_sum.out_ratio": "ratio",
    "op.tag_having.busy_us_per_tuple": "us",
    "op.tag_having.out_ratio": "ratio",
    "op.mix_sum.busy_us_per_tuple": "us",
    "op.mix_sum.out_ratio": "ratio",
    "codec.encode_us_per_tuple": "us",
    "codec.decode_us_per_tuple": "us",
    "codec.wire_bytes_per_tuple": "B",
    "codec.columnar_share": "ratio",
    "net.ingest_ack_p50_ms": "ms",
    "net.ingest_ack_p90_ms": "ms",
    "net.ingest_frames": "count",
    "net.results_per_frame": "count",
    "net.subscriber_dropped": "count",
    "runtime.encode_s": "s/1k",
    "runtime.transport_s": "s/1k",
    "runtime.decode_s": "s/1k",
    "runtime.merge_s": "s/1k",
    "runtime.stalls": "count",
    "runtime.worker_start_ms": "ms",
    "recovery.checkpoint_ms_p50": "ms",
    "recovery.checkpoint_ms_max": "ms",
    "recovery.checkpoint_kib_first": "KiB",
    "recovery.checkpoint_kib_last": "KiB",
    "recovery.recover_ms": "ms",
    "rfid.transform_ms_per_scan": "ms",
    "rfid.detections_per_scan": "count",
    "rfid.tuples_per_scan": "count",
    "rfid.mixture_share": "ratio",
    "rfid.q1_us_per_tuple": "us",
    "rfid.q2_us_per_tuple": "us",
    "rfid.location_error_ft": "ft",
    "loadgen.lag_p50_ms": "ms",
    "loadgen.lag_max_ms": "ms",
    "latency.p99_ms": "ms",
    "latency.samples": "count",
    "host.spin_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}

SETUP_PROBES = 5

#: Time of the reference job (``common.host_calibration_s``) on the
#: 2-vCPU development VM, median over its calm stretches.  Every time a
#: run reports is scaled to this host speed: see README.md, "Host speed".
REFERENCE_CALIBRATION_S = 0.024


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"streambench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = clock()
    import repro.cql  # noqa: F401  (imports the whole package)

    import_s = clock() - t0
    tally = Tally()
    tracer = Tracer()
    workload = importlib.import_module(WORKLOADS[args.workload])
    result = None
    try:
        result = workload.measure(args.seed, args.seconds, bool(args.trace), tracer, tally)
    except Exception:
        traceback.print_exc()
        tally.fail("the workload raised")
    finally:
        gc.unfreeze()
        for name in repro_segments():
            tally.fail(f"leaked shared-memory segment {name}")
        stop_resource_tracker()
        for pid in live_children():
            tally.fail(f"child process {pid} still running")
        if args.trace and tracer.spans:
            tracer.write(os.path.join(RUN_DIR, f"trace-{args.workload}-{args.seed}.json"))
        shutil.rmtree(os.path.join(RUN_DIR, str(os.getpid())), ignore_errors=True)

    setup, setup_meter = [], HostMeter()
    if result is not None and not args.trace:
        try:
            setup = probe_setup(args.workload, args.seed, SETUP_PROBES, setup_meter)
        except Exception:
            traceback.print_exc()
            tally.fail("set-up probe failed")

    correct = tally.failed == 0 and result is not None
    for reason in tally.reasons:
        print(f"streambench: {reason}", file=sys.stderr)
    metrics = {}
    if result is not None:
        groups = result.get("segment_groups")
        lat = latency_summary(result["segments"], groups)
        if args.trace:
            values = dict.fromkeys(PER_LAYER, 0.0)
            values.update(result["layers"])
            traced = median(result["traced_tps"])
            values.update(
                {
                    "cql.import_s": import_s,
                    "loadgen.lag_p50_ms": percentile(result["lags"], 50) * 1e3,
                    "loadgen.lag_max_ms": max(result["lags"], default=0.0) * 1e3,
                    "latency.p99_ms": lat["p99"],
                    "latency.samples": lat["n"],
                    "host.spin_ms": result["meter"].overall() * 1e3,
                    "trace.overhead_ratio": median(result["tps"]) / traced if traced else 0.0,
                    "failed_ratio": tally.failed / max(tally.attempted, 1),
                }
            )
            units = PER_LAYER
        else:
            # Each pass, segment and set-up probe is scaled by how much
            # slower than the reference the host ran while it was taken.
            meter = result["meter"]

            def slowdown(span, of=meter) -> float:
                return of.around(*span) / REFERENCE_CALIBRATION_S

            segments = [
                [x / slowdown(span) for x in seg]
                for seg, span in zip(result["segments"], result["segment_spans"])
            ]
            scaled = latency_summary(segments, groups)
            measured = {
                "tuples_per_s": median(result["tps"]),
                "result_latency_p50_ms": lat["p50"],
                "result_latency_p90_ms": lat["p90"],
                "setup_s": median([s for _, _, s in setup]),
                "host_slowdown": meter.overall() / REFERENCE_CALIBRATION_S,
            }
            print(f"streambench: as timed on this host: {json.dumps(measured)}", file=sys.stderr)
            values = {
                "tuples_per_s": median(
                    [x * slowdown(span) for x, span in zip(result["tps"], result["tps_spans"])]
                ),
                "result_latency_p50_ms": scaled["p50"],
                "result_latency_p90_ms": scaled["p90"],
                "setup_s": median([s / slowdown((a, b), setup_meter) for a, b, s in setup]),
                "peak_rss_mb": result["rss_mb"],
            }
            units = END_TO_END
        metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(tally.attempted, 1),
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
