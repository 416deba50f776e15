"""Hazardous weather monitoring: the Figure 1 data path at laptop scale.

Follows the CASA data path of Section 2.2 with the synthetic radar
substrate:

raw pulses -> averaged moment data (+ per-voxel velocity pdfs from the
radar T operator) -> a declarative monitoring query over the uncertain
voxel stream (:mod:`repro.plan`) -> merge onto a Cartesian grid ->
tornado detection,

and then repeats the Table 1 experiment in miniature: sweep the pulse
averaging size and watch data volume, runtime and detection quality
trade off against each other.

Run with:  python examples/radar_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro.plan import Stream
from repro.radar import (
    CartesianGrid,
    RadarTransformOperator,
    compute_moments,
    merge_moment_fields,
    run_detection,
)
from repro.streams import TumblingCountWindow
from repro.workloads import TABLE1_AVERAGING_SIZES, build_table1_workload


def main() -> None:
    print("generating a synthetic tornadic sector scan (scaled-down CASA trace) ...")
    workload = build_table1_workload(
        duration_seconds=19.0, n_scans=2, pulse_rate=300.0, n_gates=140
    )
    site, scans = workload.site, workload.scans
    print(
        f"radar {site.site_id}: {scans[0].n_pulses} pulses/scan, {site.n_gates} gates, "
        f"raw volume {workload.raw_size_bytes / 1e6:.1f} MB, "
        f"{len(workload.scene.vortices)} embedded vortices"
    )

    # --- T operator: moment data with per-voxel velocity distributions.
    t_operator = RadarTransformOperator(site, averaging_size=40, min_reflectivity_dbz=25.0)
    voxel_tuples = list(t_operator.ingest(scans[0], timestamp=0.0))
    sigmas = [t.distribution("velocity").sigma for t in voxel_tuples]
    print(
        f"\nT operator emitted {len(voxel_tuples)} voxel tuples; "
        f"median velocity std = {np.median(sigmas):.2f} m/s"
    )
    sample = voxel_tuples[len(voxel_tuples) // 2]
    lo, hi = sample.distribution("velocity").confidence_region(0.9)
    print(
        "example voxel: "
        f"az={sample.value('azimuth_deg'):.1f} deg, range={sample.value('range_m'):.0f} m, "
        f"velocity in [{lo:.1f}, {hi:.1f}] m/s with 90% confidence"
    )

    # --- Declarative monitoring query over the uncertain voxel stream.
    # Keep voxels that are *probably* fast outbound (velocity > 25 m/s
    # given each voxel's pdf) and track the mean velocity per 32-voxel
    # window.  The T operator emits Gaussian velocity pdfs, so the
    # declared family lets the cost model pick the closed-form CF
    # approximation, and the planner drops the probabilistic filter's
    # unread annotation so its survivors reach the window kernel as
    # columns.
    monitor = (
        Stream.source(
            "voxels",
            values=("azimuth_deg", "range_m"),
            uncertain=("velocity",),
            family="gaussian",
        )
        .where_probably("velocity", ">", 25.0, min_probability=0.5, annotate=None)
        .window(TumblingCountWindow(32))
        .aggregate("velocity", function="avg")
        .summarize("avg_velocity", confidence=0.9)
        .compile()
    )
    print("\n=== declarative voxel monitor ===")
    print(monitor.explain())
    monitor.push_many("voxels", voxel_tuples)
    windows = monitor.finish()
    print(f"\n{len(windows)} fast-outbound voxel windows")
    for w in windows[:5]:
        print(
            f"  {w.value('window_count'):>3} voxels: mean velocity "
            f"{w.value('avg_velocity_mean'):>6.1f} m/s "
            f"(90% region [{w.value('avg_velocity_lo'):.1f}, {w.value('avg_velocity_hi'):.1f}])"
        )

    # --- Merge step: polar voxels onto a Cartesian grid.
    moments = compute_moments(scans[0], site, averaging_size=40)
    grid = CartesianGrid(-1000.0, 0.0, 16000.0, 16000.0, resolution=500.0)
    merged = merge_moment_fields([(moments, site)], grid, min_reflectivity_dbz=20.0)
    print(
        f"\nmerge: {merged.n_cells} Cartesian cells covered "
        f"({100 * merged.coverage_fraction():.1f}% of the grid), "
        f"sample-density imbalance {merged.density_imbalance():.1f}x"
    )

    # --- Table 1 in miniature: averaging size vs. quality.
    print("\naveraging-size sweep (Table 1 shape):")
    print(f"{'avg size':>9} {'moment MB':>11} {'detect time (s)':>16} {'tornados/scan':>14}")
    for averaging_size in TABLE1_AVERAGING_SIZES:
        counts, runtimes, megabytes = [], [], []
        for scan in scans:
            field = compute_moments(scan, site, averaging_size)
            result = run_detection(
                field, site, delta_v_threshold=workload.detection_threshold
            )
            counts.append(result.count)
            runtimes.append(result.runtime_seconds)
            megabytes.append(field.size_megabytes)
        print(
            f"{averaging_size:>9d} {np.mean(megabytes):>11.3f} {np.sum(runtimes):>16.4f} "
            f"{np.mean(counts):>14.2f}"
        )
    print(
        "\nheavier averaging shrinks the data and the runtime but erases the "
        "vortex signatures -- the uncertainty the paper wants the system to expose."
    )


if __name__ == "__main__":
    main()
