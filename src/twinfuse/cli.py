"""Batch command-line front end: twinfuse <subcommand> [flags].

Exit codes: 0 success, 1 pipeline failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np

from . import fusion, metrics, mocap, scene, synth
from .cameras import CameraIntrinsics, CameraModel, solve_pnp
from .errors import EmptySelectionError, ParameterError, TwinfuseError
from .fusion import MarkerSet, ScanRecord
from .geometry import RigidTransform
from .metrics import render_reprojection_table
from .ply import load_ply, save_ply
from .tracking import PoseTrack, smooth_track


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _parsed(path: str, parse):
    """``parse`` applied to the text of ``path``; a ParameterError it raises
    and malformed JSON are raised as ParameterError naming the file."""
    if not os.path.exists(path):
        raise TwinfuseError(f"missing file: {path}")
    with open(path) as f:
        text = f.read()
    try:
        return parse(text)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: malformed JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from None


# ---------------------------------------------------------------------------
# fuse

def cmd_fuse(args) -> int:
    ply_paths = sorted(glob.glob(os.path.join(args.scans_dir, "*.ply")))
    if not ply_paths:
        return _fail(f"no .ply scans found in {args.scans_dir}")
    scans = []
    for ply_path in ply_paths:
        name = os.path.splitext(os.path.basename(ply_path))[0]
        marker_path = os.path.join(args.scans_dir, f"{name}_markers.json")
        markers = _parsed(marker_path, MarkerSet.from_json)
        cloud = load_ply(ply_path, frame=markers.frame)
        scans.append(ScanRecord(name, cloud, markers))

    fused, report = fusion.fuse_scans(scans, chamfer_cutoff_m=args.chamfer_cutoff)
    os.makedirs(args.out, exist_ok=True)
    if args.skip_floor:
        final = fused
        floor_t = None
    else:
        final, floor_t = fusion.finalize_reference(fused)
    save_ply(os.path.join(args.out, "fused.ply"), final)
    if floor_t is not None:
        with open(os.path.join(args.out, "floor_transform.json"), "w") as f:
            json.dump({"from_frame": floor_t.from_frame,
                       "to_frame": floor_t.to_frame,
                       "t_m": [float(x) for x in floor_t.t],
                       "q_wxyz": [float(x) for x in floor_t.q]}, f, indent=2)
    with open(os.path.join(args.out, "report.json"), "w") as f:
        f.write(report.to_json())
    table = report.render_table()
    with open(os.path.join(args.out, "report.txt"), "w") as f:
        f.write(table)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# register-cameras

def _intrinsics_record(text: str) -> tuple[str, CameraIntrinsics]:
    o = json.loads(text)
    if "id" not in o:
        raise ParameterError("camera intrinsics missing key 'id'")
    return o["id"], CameraIntrinsics.from_dict(o)


def cmd_register_cameras(args) -> int:
    reference = _parsed(args.markers, MarkerSet.from_json)
    intr_paths = sorted(glob.glob(os.path.join(args.cameras_dir,
                                               "*_intrinsics.json")))
    if not intr_paths:
        return _fail(f"no *_intrinsics.json in {args.cameras_dir}")
    os.makedirs(args.out, exist_ok=True)
    per_camera = {}
    failures = []
    for intr_path in intr_paths:
        cam_id, intr = _parsed(intr_path, _intrinsics_record)
        pix_path = os.path.join(args.cameras_dir, f"{cam_id}_marker_pixels.json")
        pix = _parsed(pix_path, json.loads)["pixels"]
        points, pixels = [], []
        for entry in pix:
            mid = entry["id"]
            if mid in reference.positions:
                points.append(reference.positions[mid])
                pixels.append(entry["uv"])
        try:
            pose, mean_px = solve_pnp(np.array(points), np.array(pixels), intr)
        except TwinfuseError as exc:
            failures.append(f"{cam_id}: {exc}")
            continue
        pose = pose.with_frames(f"camera:{cam_id}", reference.frame)
        cam = CameraModel(cam_id, intr, pose)
        with open(os.path.join(args.out, f"{cam_id}_calibration.json"), "w") as f:
            f.write(cam.to_json())
        observations = [(cam_id, pixels[i], points[i]) for i in range(len(points))]
        per_camera[cam_id] = metrics.reprojection_stats(observations, [cam])
    table = render_reprojection_table(per_camera) if per_camera else ""
    with open(os.path.join(args.out, "reprojection_stats.json"), "w") as f:
        json.dump({cid: {"mean_px": m, "std_px": s}
                   for cid, (m, s) in per_camera.items()}, f, indent=2,
                  sort_keys=True)
    with open(os.path.join(args.out, "reprojection_table.txt"), "w") as f:
        f.write(table)
    print(table, end="")
    if failures:
        for msg in failures:
            print(f"error: PnP failed for {msg}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# mocap

def cmd_mocap(args) -> int:
    cal_paths = sorted(glob.glob(os.path.join(args.cameras_dir,
                                              "*_calibration.json")))
    if not cal_paths:
        return _fail(f"no *_calibration.json in {args.cameras_dir}")
    cameras = [_parsed(p, CameraModel.from_json) for p in cal_paths]
    kp_paths = sorted(glob.glob(os.path.join(args.keypoints_dir, "*.json")))
    if not kp_paths:
        return _fail(f"no keypoint frames in {args.keypoints_dir}")
    by_time: dict[float, list] = {}
    for p in kp_paths:
        frame = _parsed(p, mocap.Keypoint2DFrame.from_json)
        by_time.setdefault(frame.t_s, []).append(frame)
    table_center = np.array([float(v) for v in args.table_center.split(",")])
    frames3d = []
    for t in sorted(by_time):
        frames = by_time[t]
        try:
            selection = mocap.select_surgeon(frames, cameras, table_center)
        except EmptySelectionError:
            continue
        frames3d.append(mocap.triangulate_skeleton(frames, selection, cameras))
    if not frames3d:
        return _fail("no timestamps could be triangulated")
    if args.window > 1:
        frames3d = mocap.smooth_skeleton(frames3d, args.window)
    with open(args.out, "w", newline="") as f:
        f.write(mocap.skeleton_track_to_csv(frames3d))
    print(f"wrote {len(frames3d)} skeleton frames to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# track

def cmd_track(args) -> int:
    track = _parsed(args.input, PoseTrack.from_csv)
    smoothed = smooth_track(track, args.window)
    with open(args.out, "w", newline="") as f:
        f.write(smoothed.to_csv())
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
        ma = _parsed(args.markers_a, MarkerSet.from_json)
        mb = _parsed(args.markers_b, MarkerSet.from_json)
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
        with open(args.out, "w") as f:
            json.dump(result, f, indent=2, sort_keys=True)
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
    if args.config:
        config = _parsed(args.config, synth.SynthConfig.from_json)
        if args.seed is not None:
            config = synth.SynthConfig(**{**json.loads(config.to_json()),
                                          "seed": args.seed,
                                          "room_extent_m": config.room_extent_m})
    else:
        config = synth.SynthConfig(seed=args.seed if args.seed is not None else 0)
    bundle = synth.generate(config)
    synth.export_bundle(bundle, args.out)
    print(f"wrote synthetic bundle (seed {config.seed}) to {args.out}")
    return 0


# ---------------------------------------------------------------------------

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
    p.add_argument("--chamfer-cutoff", type=float, default=0.1,
                   help="Chamfer outlier filter in meters (default 0.1)")
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
    p.add_argument("--table-center", required=True, help="x,y,z in meters")
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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TwinfuseError as exc:
        return _fail(str(exc))
    except FileNotFoundError as exc:
        return _fail(f"missing file: {exc.filename}")


if __name__ == "__main__":
    sys.exit(main())
