#!/usr/bin/env python3
"""twinfuse benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {capture,room,twin} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run it from the repository root; it imports twinfuse from ``src/``. Inputs
are generated from ``--seed`` (sizes in perfbench/workloads.json) and every
output is checked against the synthetic ground truth.

``--trace 0`` measures the end-to-end metrics with nothing wrapped: set-up
time (median of set-ups repeated before and after the timed loop), work per
second, median time of one operation, peak memory and the share of
operations that passed.
``--trace 1`` repeats a fixed unit of work, alternately plain and with every
twinfuse layer boundary wrapped (perfbench/spans.py), and reports per-layer
times and counts per unit plus the tracing overhead. Spans are written to
``.perfbench_out/``. ``--smoke`` runs tiny sizes for a quick check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "op_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Per-layer metrics. Names ending in .calls/.failed/.s/.self_s come from the
# spans of one traced unit; the others are counts and quality numbers the
# workload computes. A layer a workload does not call reads 0.
PER_LAYER = {
    "cameras.triangulate.calls": "count",
    "cameras.triangulate.self_s": "s",
    "cameras.triangulate.failed": "count",
    "cameras.unproject.calls": "count",
    "cameras.solve_pnp.calls": "count",
    "cameras.solve_pnp.s": "s",
    "cameras.pnp_reproj_px_mean": "px",
    "cameras.pnp_rot_err_max_deg": "deg",
    "mocap.select_surgeon.s": "s",
    "mocap.triangulate_skeleton.self_s": "s",
    "mocap.smooth_skeleton.s": "s",
    "mocap.joint_valid_ratio": "ratio",
    "mocap.joint_err_p50_mm": "mm",
    "fusion.fuse_scans.self_s": "s",
    "fusion.finalize_reference.self_s": "s",
    "fusion.voxel_downsample.s": "s",
    "fusion.remove_statistical_outliers.s": "s",
    "fusion.points_in": "count",
    "fusion.outlier_kept_ratio": "ratio",
    "fusion.scan_err_max_mm": "mm",
    "geometry.ransac_plane_inliers.s": "s",
    "geometry.kabsch.calls": "count",
    "geometry.kabsch.s": "s",
    "geometry.floor_inlier_ratio": "ratio",
    "geometry.floor_tilt_deg": "deg",
    "metrics.chamfer.calls": "count",
    "metrics.chamfer.s": "s",
    "tracking.register_marker_array.s": "s",
    "tracking.fit_sphere_fixed_radius.s": "s",
    "tracking.icp.s": "s",
    "tracking.icp.iterations": "count",
    "tracking.smooth_track.s": "s",
    "tracking.array_err_max_mm": "mm",
    "scene.save.s": "s",
    "scene.load.s": "s",
    "scene.sample_at.calls": "count",
    "scene.sample_at.s": "s",
    "scene.validate.s": "s",
    "scene.bytes_written": "bytes_on_disk",
    "ply.save_ply.s": "s",
    "ply.load_ply.s": "s",
    "ply.bytes": "bytes_on_disk",
    "synth.generate.s": "s",
    "trace_overhead_ratio": "ratio",
}
SPAN_FIELDS = ("calls", "failed", "s", "self_s")
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 2, 100, 1.5


def cap_blas_threads() -> int:
    """Limit BLAS/OpenMP threads to the CPUs this process may use. Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def load_spec(workload: str, smoke: bool) -> tuple[dict, dict]:
    with open(os.path.join(HERE, "workloads.json")) as f:
        catalogue = json.load(f)
    spec = dict(catalogue[workload])
    smoke_spec = spec.pop("smoke", {})
    if smoke:
        synth_fields = {**spec["synth"], **smoke_spec.get("synth", {})}
        spec.update(smoke_spec)
        spec["synth"] = synth_fields
    return spec, catalogue["exact_counts"]


def machine(nproc: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(wl, seed: int) -> tuple[list, object]:
    """Repeat the set-up for SETUP_MIN_S seconds (SETUP_MIN_REPEATS to
    SETUP_MAX_REPEATS times); returns the times and the last inputs."""
    setup_s = []
    inputs = None
    while (len(setup_s) < SETUP_MIN_REPEATS
           or (sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPEATS)):
        inputs = None
        t0 = time.perf_counter()
        inputs = wl.setup(seed)
        setup_s.append(time.perf_counter() - t0)
    return setup_s, inputs


def end_to_end(wl, seed: int, seconds: float, checks) -> dict:
    setup_s, inputs = timed_setups(wl, seed)
    result = wl.run(inputs, seconds, checks)
    if result.items == 0:
        checks.check(False, "no operation completed")
    peak_mb = peak_rss_mb()
    # a second batch of set-ups after the timed loop, so that the median
    # spans the machine's speed at both ends of the run
    inputs = None
    setup_s += timed_setups(wl, seed)[0]
    print(f"ran {len(result.op_s)} operations, {result.items} {result.item} in "
          f"{result.program_s:.3f} s of twinfuse calls; {len(setup_s)} set-ups")
    return {
        "setup_s": statistics.median(setup_s),
        "items_per_s": result.items / result.program_s if result.program_s else 0.0,
        "op_s": statistics.median(result.op_s) if result.op_s else 0.0,
        "peak_rss_mb": peak_mb,
        "ok_ratio": 1.0 - checks.failed / max(1, checks.attempted),
    }


def traced(wl, seed: int, seconds: float, checks, exact: list, tf,
           out_path: str) -> dict:
    """Per-layer metrics: repeat the workload's unit plain and traced until
    ``seconds`` have passed; times are medians over the traced units."""
    import spans
    tracer = spans.Tracer()
    patch = spans.targets(tf)
    with tracer.installed(patch):
        inputs = wl.setup(seed)
    setup_summary = tracer.summary(0, len(tracer.spans))

    plain_s, traced_s, summaries, counters = [], [], [], []
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        plain_s.append(wl.unit(inputs, checks)[0])
        first = len(tracer.spans)
        with tracer.installed(patch):
            unit_s, counts = wl.unit(inputs, checks)
        traced_s.append(unit_s)
        summaries.append(tracer.summary(first, len(tracer.spans)))
        counters.append(counts)

    def per_unit(name: str) -> list:
        span, _, field = name.rpartition(".")
        if field in SPAN_FIELDS:
            return [s.get(span, {}).get(field, 0) for s in summaries]
        return [c.get(name, 0) for c in counters]

    values = {}
    for name in PER_LAYER:
        if name == "synth.generate.s":
            values[name] = setup_summary.get("synth.generate", {}).get("s", 0.0)
        elif name == "trace_overhead_ratio":
            plain = statistics.median(plain_s)
            values[name] = statistics.median(traced_s) / plain if plain else 0.0
        else:
            series = per_unit(name)
            if name in exact:
                checks.check(len(set(series)) == 1,
                             f"{name} differs between repetitions: {series}")
                values[name] = series[-1]
            else:
                values[name] = statistics.median(series)

    unit_s = statistics.median(traced_s)
    print(f"traced {len(traced_s)} units: median {unit_s:.4f} s traced, "
          f"{statistics.median(plain_s):.4f} s plain")
    print(f"{'span':40s} {'calls':>7s} {'total s':>10s} {'self s':>10s} "
          f"{'self share':>10s}")
    # the last traced unit, with self time as a share of that unit's time
    for name, e in sorted(summaries[-1].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:40s} {e['calls']:7d} {e['s']:10.4f} {e['self_s']:10.4f} "
              f"{e['self_s'] / max(traced_s[-1], 1e-9):10.1%}")
    tracer.dump(out_path, {"unit_s_traced": traced_s, "unit_s_plain": plain_s})
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("capture", "room", "twin"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; every workload finishes in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    nproc = cap_blas_threads()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "twinfuse", "__init__.py")):
        print(f"error: twinfuse sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import twinfuse
    if not os.path.abspath(twinfuse.__file__).startswith(src + os.sep):
        print(f"error: imported twinfuse from {twinfuse.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    spec, exact = load_spec(args.workload, args.smoke)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](spec, workdir)
    print("provenance " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "why": spec["why"],
        "loop": spec["loop"],
        "sizes": {k: v for k, v in spec.items() if k not in ("why", "loop")},
        "synth_configs": [vars(c) for c in wl.configs(args.seed)],
        "machine": machine(nproc)}, default=list))

    checks = workloads.Checks()
    try:
        if args.trace:
            trace_path = os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            values = traced(wl, args.seed, args.seconds, checks, exact["names"],
                            twinfuse, trace_path)
            units = PER_LAYER
        else:
            values = end_to_end(wl, args.seed, args.seconds, checks)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"failed_ratio {checks.failed}/{checks.attempted} operations "
          f"(base: checked outputs, joints counted one by one)")
    for message in checks.messages[:20]:
        print(f"FAILED CHECK: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
