"""Batch command-line front end: twinfuse <subcommand> [flags].

Exit codes: 0 success, 1 pipeline failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys

import numpy as np

from . import fusion, metrics, mocap, scene, synth
from .cameras import CameraIntrinsics, CameraModel, _camera_id, solve_pnp
from .errors import (EmptySelectionError, ParameterError, TwinfuseError,
                     _repeated, parse_file, reading, write_file)
from .fusion import MarkerSet, ScanRecord
from .geometry import PointCloud, RigidTransform, _as_array
from .metrics import render_reprojection_table
from .ply import load_ply, save_ply
from .tracking import PoseTrack, smooth_track


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _inputs(directory: str, pattern: str, what: str) -> list[str]:
    """The sorted paths in ``directory`` that match ``pattern``; none raises
    ParameterError "no <what> in <directory>"."""
    paths = sorted(glob.glob(os.path.join(directory, pattern)))
    if not paths:
        raise ParameterError(f"no {what} in {directory}")
    return paths


# ---------------------------------------------------------------------------
# fuse

def cmd_fuse(args) -> int:
    scans = []
    for ply_path in _inputs(args.scans_dir, "*.ply", ".ply scans found"):
        name = os.path.splitext(os.path.basename(ply_path))[0]
        marker_path = os.path.join(args.scans_dir, f"{name}_markers.json")
        markers = parse_file(marker_path, MarkerSet.from_json)
        cloud = load_ply(ply_path, frame=markers.frame)
        scans.append(ScanRecord(name, cloud, markers))

    fused, report = fusion.fuse_scans(scans)
    os.makedirs(args.out, exist_ok=True)
    if args.skip_floor:
        final = fused
        floor_t = None
    else:
        final, floor_t = fusion.finalize_reference(fused)
    save_ply(os.path.join(args.out, "fused.ply"), final)
    if floor_t is not None:
        write_file(os.path.join(args.out, "floor_transform.json"), json.dumps(
            {"from_frame": floor_t.from_frame, "to_frame": floor_t.to_frame,
             **floor_t.to_dict()}, indent=2))
    write_file(os.path.join(args.out, "report.json"), report.to_json())
    table = report.render_table()
    write_file(os.path.join(args.out, "report.txt"), table)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# register-cameras

def _intrinsics_record(text: str) -> tuple[str, CameraIntrinsics]:
    o = json.loads(text)
    intr = CameraIntrinsics.from_dict(o)
    with reading("camera intrinsics"):
        return _camera_id(o["id"]), intr


def _marker_pixels(text: str) -> list[tuple[str, float, float]]:
    """The (marker id, u, v) triples of a marker pixels file."""
    o = json.loads(text)
    with reading("marker pixels", "marker pixels is not an object with a "
                                  "list of pixel objects under 'pixels'"):
        pixels = [(str(entry["id"]), entry["uv"]) for entry in o["pixels"]]
    repeated = _repeated(mid for mid, _ in pixels)
    if repeated is not None:
        raise ParameterError(f"marker pixels: two pixel objects with id {repeated!r}")
    return [(mid, *_as_array(uv, f"marker pixels: 'uv' of {mid!r}", (2,)))
            for mid, uv in pixels]


def _register_camera(cam_id: str, intr: CameraIntrinsics, marker_pixels,
                     reference: MarkerSet) -> tuple[CameraModel, tuple]:
    """PnP-registered camera from ``(marker id, u, v)`` triples (ids missing
    from ``reference`` skipped) and its (mean, std) reprojection error in px."""
    pairs = [(reference.positions[mid], (u, v)) for mid, u, v in marker_pixels
             if mid in reference.positions]
    points = np.array([p for p, _ in pairs])
    pixels = np.array([uv for _, uv in pairs])
    pose, _ = solve_pnp(points, pixels, intr)
    cam = CameraModel(cam_id, intr,
                      pose.with_frames(f"camera:{cam_id}", reference.frame))
    return cam, metrics.reprojection_stats(cam, points, pixels)


def cmd_register_cameras(args) -> int:
    reference = parse_file(args.markers, MarkerSet.from_json)
    records = [parse_file(p, _intrinsics_record) for p in
               _inputs(args.cameras_dir, "*_intrinsics.json", "*_intrinsics.json")]
    repeated = _repeated(cam_id for cam_id, _ in records)
    if repeated is not None:
        raise ParameterError(f"two intrinsics files in {args.cameras_dir} "
                             f"have camera id {repeated!r}")
    os.makedirs(args.out, exist_ok=True)
    per_camera = {}
    failures = []
    for cam_id, intr in records:
        pix_path = os.path.join(args.cameras_dir, f"{cam_id}_marker_pixels.json")
        marker_uv = parse_file(pix_path, _marker_pixels)
        try:
            cam, per_camera[cam_id] = _register_camera(cam_id, intr, marker_uv,
                                                       reference)
        except TwinfuseError as exc:
            failures.append(f"{cam_id}: {exc}")
            continue
        write_file(os.path.join(args.out, f"{cam_id}_calibration.json"), cam.to_json())
    table = render_reprojection_table(per_camera) if per_camera else ""
    write_file(os.path.join(args.out, "reprojection_stats.json"), json.dumps(
        {cid: {"mean_px": m, "std_px": s} for cid, (m, s) in per_camera.items()},
        indent=2, sort_keys=True))
    write_file(os.path.join(args.out, "reprojection_table.txt"), table)
    print(table, end="")
    if failures:
        for msg in failures:
            print(f"error: PnP failed for {msg}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# mocap

def _triangulate_frames(frame_groups, cameras, table_center) -> list:
    """The surgeon's Skeleton3DFrame for each group of same-time keypoint
    frames; a group with no person detections is skipped."""
    frames3d = []
    for frames in frame_groups:
        try:
            selection = mocap.select_surgeon(frames, cameras, table_center)
        except EmptySelectionError:
            continue
        frames3d.append(mocap.triangulate_skeleton(frames, selection, cameras))
    if not frames3d:
        raise TwinfuseError("no timestamps could be triangulated")
    return frames3d


def cmd_mocap(args) -> int:
    cameras = [parse_file(p, CameraModel.from_json) for p in
               _inputs(args.cameras_dir, "*_calibration.json", "*_calibration.json")]
    by_time: dict[float, list] = {}
    for p in _inputs(args.keypoints_dir, "*.json", "keypoint frames"):
        frame = parse_file(p, mocap.Keypoint2DFrame.from_json)
        by_time.setdefault(frame.t_s, []).append(frame)
    frames3d = _triangulate_frames([by_time[t] for t in sorted(by_time)],
                                   cameras, args.table_center)
    frames3d = mocap.smooth_skeleton(frames3d, args.window)
    write_file(args.out, mocap.skeleton_track_to_csv(frames3d))
    print(f"wrote {len(frames3d)} skeleton frames to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# track

def cmd_track(args) -> int:
    track = parse_file(args.input, PoseTrack.from_csv)
    smoothed = smooth_track(track, args.window)
    write_file(args.out, smoothed.to_csv())
    print(f"wrote {len(smoothed)} smoothed samples to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# metrics

def cmd_metrics(args) -> int:
    result = {}
    if args.cloud_a and args.cloud_b:
        a = load_ply(args.cloud_a)
        b = load_ply(args.cloud_b)
        if args.one_sided:
            result["cd_one_sided_mm"] = metrics.chamfer_one_sided(
                a, b, args.max_dist if args.max_dist > 0 else None)
        else:
            cd_mm, used, filtered = metrics.chamfer(a, b, args.max_dist)
            result.update(cd_mm=cd_mm, samples_used=used,
                          samples_filtered=filtered)
    if args.markers_a and args.markers_b:
        ma = parse_file(args.markers_a, MarkerSet.from_json)
        mb = parse_file(args.markers_b, MarkerSet.from_json)
        result["rmse_mm"] = metrics.marker_rmse(ma, mb)
    if not result:
        return _fail("nothing to compute: give --cloud-a/--cloud-b "
                     "and/or --markers-a/--markers-b")
    for key, value in sorted(result.items()):
        if key.endswith("_mm") or key.endswith("_px"):
            print(f"{key}: {value:.2f}")
        else:
            print(f"{key}: {value}")
    if args.out:
        write_file(args.out, json.dumps(result, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# scene

def cmd_scene(args) -> int:
    s = scene.load(args.scene_dir)
    violations = scene.validate(s, base_dir=args.scene_dir)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return 1
    names = ", ".join(s.node_names()) or "(empty)"
    print(f"scene OK: frame {s.reference_frame!r}, nodes: {names}")
    return 0


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    config = (parse_file(args.config, synth.SynthConfig.from_json) if args.config
              else synth.SynthConfig())
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    synth.export_bundle(synth.generate(config), args.out)
    print(f"wrote synthetic bundle (seed {config.seed}) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# pipeline

def cmd_pipeline(args) -> int:
    config = synth.SynthConfig(seed=args.seed, duration_s=args.duration)
    bundle = synth.generate(config)
    print(f"generated bundle: seed {config.seed}, {synth.SCAN_COUNT} scans, "
          f"{config.camera_count} cameras, {len(bundle.skeleton_true)} frames")

    fused, report = fusion.fuse_scans(bundle.scans)
    print(f"\n{report.render_table()}")
    for row in report.rows:
        truth = synth.true_relative_scan_pose(bundle, row.name,
                                              report.reference_name)
        t_mm, r_deg = synth.pose_error(row.transform, truth)
        print(f"  {row.name}: pose error {t_mm:.2f} mm / {r_deg:.3f} deg")
    final, _ = fusion.finalize_reference(fused)

    print()
    per_camera = {}
    registered = []
    for cam in bundle.cameras:
        entries = bundle.marker_pixels[cam.id]
        est, per_camera[cam.id] = _register_camera(cam.id, cam.intrinsics,
                                                   entries, bundle.markers)
        registered.append(est)
        t_mm, r_deg = synth.pose_error(est.world_from_camera,
                                       cam.world_from_camera)
        print(f"  {cam.id}: PnP from {len(entries)} markers, error "
              f"{t_mm:.2f} mm / {r_deg:.3f} deg")
    print(f"\n{render_reprojection_table(per_camera)}")

    frames3d = _triangulate_frames(bundle.keypoint_frames, registered,
                                   bundle.table_center)
    truth = {f.t_s: f for f in bundle.skeleton_true}
    errs = np.concatenate([
        np.linalg.norm(f.positions - truth[f.t_s].positions, axis=1)
        [f.valid & truth[f.t_s].valid] for f in frames3d]) * 1000.0
    print(f"skeleton: median joint error {np.median(errs):.2f} mm "
          f"over {len(errs)} joint samples")

    # final is already in the reference (floor) frame: its pose is the identity
    room = scene.StaticNode("room", final,
                            RigidTransform([1, 0, 0, 0], [0, 0, 0], "room", "reference"))
    # one point at the body origin stands in for the instrument's shape
    shape = PointCloud(np.zeros((1, 3)), frame="body")
    drill = scene.DynamicNode("instrument", shape, bundle.instrument_track_noisy)
    surgeon = scene.SkeletonNode("surgeon", tuple(frames3d))
    scene.save(scene.assemble([room], [drill], [surgeon]), args.out)
    return cmd_scene(argparse.Namespace(scene_dir=args.out))


# ---------------------------------------------------------------------------

def _point(text: str) -> np.ndarray:
    """argparse type: a point given as three finite numbers x,y,z."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = []
    if len(values) != 3 or not np.isfinite(values).all():
        raise argparse.ArgumentTypeError(
            f"expected x,y,z as three finite numbers, got {text!r}")
    return np.array(values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinfuse",
        description="Fuse scans, register cameras, track instruments and "
                    "people, and assemble digital-twin scenes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="register scans to a reference and fuse clouds")
    p.add_argument("--scans-dir", required=True,
                   help="directory with <name>.ply + <name>_markers.json pairs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--skip-floor", action="store_true",
                   help="skip floor detection / reference re-centering")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("register-cameras",
                       help="PnP-register cameras against reference markers")
    p.add_argument("--markers", required=True, help="reference MarkerSet JSON")
    p.add_argument("--cameras-dir", required=True,
                   help="directory with <id>_intrinsics.json + <id>_marker_pixels.json")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_register_cameras)

    p = sub.add_parser("mocap", help="triangulate surgeon keypoints to 3D")
    p.add_argument("--keypoints-dir", required=True)
    p.add_argument("--cameras-dir", required=True,
                   help="directory with <id>_calibration.json files")
    p.add_argument("--table-center", required=True, type=_point,
                   help="x,y,z in meters")
    p.add_argument("--window", type=int, default=1, help="odd smoothing window")
    p.add_argument("--out", required=True, help="output skeleton CSV")
    p.set_defaults(func=cmd_mocap)

    p = sub.add_parser("track", help="smooth a pose-track CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("metrics", help="Chamfer / marker RMSE between files")
    p.add_argument("--cloud-a")
    p.add_argument("--cloud-b")
    p.add_argument("--max-dist", type=float, default=0.1,
                   help="Chamfer outlier filter in meters (default 0.1; "
                        "<= 0 disables it for --one-sided)")
    p.add_argument("--one-sided", action="store_true")
    p.add_argument("--markers-a")
    p.add_argument("--markers-b")
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("scene", help="load and validate a scene directory")
    p.add_argument("scene_dir")
    p.set_defaults(func=cmd_scene)

    p = sub.add_parser("synth", help="export a synthetic ground-truth bundle")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="SynthConfig JSON (flags win over file)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="run synth to scene in memory and "
                                        "report errors against the truth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=2.0, help="capture seconds")
    p.add_argument("--out", default="pipeline_out", help="scene directory")
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # names read from files are printed; an ASCII locale cannot encode them all
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        return args.func(args)
    except TwinfuseError as exc:
        return _fail(str(exc))
    except FileNotFoundError as exc:
        return _fail(f"missing file: {exc.filename}")
    except OSError as exc:
        return _fail(f"{exc.filename}: {exc.strerror}")
    except MemoryError as exc:
        return _fail(str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
