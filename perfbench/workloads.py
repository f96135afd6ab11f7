"""The three benchmark workloads: inputs made from a seed, the timed calls
into twinfuse, and output checks against the synthetic ground truth.

Every workload is a closed loop with one caller: the next call starts only
after the previous one returned. Only calls into twinfuse are timed; the
truth comparisons run between them. All calls go through module attributes
(``mocap.triangulate_skeleton``, not a from-import) so that the traced run
can wrap them from outside.

Tolerances are the ones tests/test_acceptance.py enforces, plus the floor
frame check (recovered up axis within 0.5 deg of the true one, true floor
within the 10 mm RANSAC threshold of z = 0). The noise of the synthetic
data puts even the least-squares scan and camera poses outside these
tolerances on about 1% of seeds. So where the program misses a scan, camera
or floor tolerance, the least-squares fit of the same data is computed here
independently, and the program passes if its error is within a small slack
of that optimum's.
"""

from __future__ import annotations

import os
import shutil
import time
import traceback
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.spatial.transform import Rotation

from twinfuse import (cameras, fusion, geometry, metrics, mocap, ply, scene,
                      synth, tracking)
from twinfuse.geometry import PointCloud, RigidTransform

JOINT_ERR_P50_MAX_MM = 5.0      # criterion 4
JOINT_VALID_MIN_RATIO = 0.8     # criterion 7
SCAN_ERR_MAX_MM = 5.0           # criterion 1
SCAN_ERR_MAX_DEG = 0.3
PNP_REPROJ_MAX_PX = 1.5         # criterion 3
PNP_ROT_MAX_DEG = 0.3
ARRAY_ERR_MAX_MM = 0.1          # criterion 5
ARRAY_ERR_MAX_DEG = 0.05
SPHERE_ERR_MAX_MM = 0.1
ICP_ERR_MAX_MM = 0.1            # criterion 6
FLOOR_TILT_MAX_DEG = 0.5
FLOOR_HEIGHT_MAX_MM = 10.0      # finalize_reference's RANSAC threshold
OPTIMUM_SLACK_MM = 0.01         # allowed excess over the least-squares pose
OPTIMUM_SLACK_DEG = 0.01
FLOOR_SLACK_MM = 2.0            # RANSAC's inliers are not the optimum's
FLOOR_SLACK_DEG = 0.05

# Fixed 8-marker tool (mm, array frame). All 28 pairwise distances differ by
# more than 1.6 mm, three times register_marker_array's 0.5 mm signature
# tolerance, so the identity is the only consistent correspondence.
ARRAY_MM = [[117, 146, 5], [44, 12, 80], [41, 73, 121], [128, 72, 46],
            [40, 72, 9], [62, 61, 86], [35, 80, 92], [22, 75, 139]]


class Checks:
    """Counts checked operations. ``check`` is a pass/fail output check; a
    failure makes the run incorrect. ``count`` adds operations whose failures
    are tolerated up to a check (invalid joints)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            self.messages.append(what)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def error(self, what: str) -> None:
        self.check(False, f"{what} raised:\n{traceback.format_exc()}")


class Stopwatch:
    """Accumulates the time spent inside ``with`` blocks."""

    def __init__(self):
        self.s = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.s += time.perf_counter() - self._t0


# ---------------------------------------------------------------------------
# shared inputs and checks

def _pnp_inputs(bundle) -> list:
    """(camera, marker points, noisy marker pixels) per camera."""
    out = []
    for cam in bundle.cameras:
        entries = bundle.marker_pixels[cam.id]
        points = np.array([bundle.markers.positions[mid] for mid, _, _ in entries])
        pixels = np.array([[u, v] for _, u, v in entries])
        out.append((cam, points, pixels))
    return out


def _solve_cameras(pnp_inputs) -> list:
    return [cameras.solve_pnp(points, pixels, cam.intrinsics)
            for cam, points, pixels in pnp_inputs]


def _pose_within(errors, tolerances, optimum, slacks) -> bool:
    """True when every pose error is below its tolerance or, where the
    least-squares optimum of the same data misses that tolerance too, below
    the optimum's error plus the slack. ``optimum()`` returns the optimum's
    errors and is called only when a tolerance is missed."""
    if all(e < tol for e, tol in zip(errors, tolerances)):
        return True
    best = optimum()
    return all(e < max(tol, b + s)
               for e, tol, b, s in zip(errors, tolerances, best, slacks))


def _kabsch_optimum(scan, reference, truth) -> tuple[float, float]:
    """Pose error of the least-squares rigid fit of ``scan``'s markers onto
    the ``reference`` scan's markers, by SVD on the common ids."""
    ids = sorted(set(scan.markers.positions) & set(reference.markers.positions))
    a = np.array([scan.markers.positions[i] for i in ids])
    b = np.array([reference.markers.positions[i] for i in ids])
    u, _, vt = np.linalg.svd((a - a.mean(axis=0)).T @ (b - b.mean(axis=0)))
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    best = geometry.transform_from_matrix(
        rot, b.mean(axis=0) - rot @ a.mean(axis=0),
        from_frame=truth.from_frame, to_frame=truth.to_frame)
    return synth.pose_error(best, truth)


def _pnp_optimum(cam, points, pixels) -> tuple[float, float]:
    """Pose error of the reprojection least-squares camera pose, refined by
    scipy from the true pose through the data's own projection model."""
    truth = geometry.invert(cam.world_from_camera)

    def pose(x):
        cfw = RigidTransform(Rotation.from_rotvec(x[:3]).as_quat(scalar_first=True),
                             x[3:], from_frame="world", to_frame="camera")
        return geometry.invert(cfw)

    def residuals(x):
        model = cameras.CameraModel(cam.id, cam.intrinsics, pose(x))
        return (cameras.project_points(model, points) - pixels).ravel()

    x0 = np.concatenate([Rotation.from_quat(truth.q, scalar_first=True).as_rotvec(),
                         truth.t])
    fit = least_squares(residuals, x0, x_scale="jac", xtol=1e-15, ftol=1e-15,
                        gtol=1e-15)
    return synth.pose_error(pose(fit.x), cam.world_from_camera)


def _check_pnp(checks: Checks, pnp_inputs, solved) -> dict:
    px_all, rot_all = [], []
    for (cam, points, pixels), (pose, mean_px) in zip(pnp_inputs, solved):
        _, r_deg = synth.pose_error(pose, cam.world_from_camera)
        checks.check(
            mean_px <= PNP_REPROJ_MAX_PX and _pose_within(
                [r_deg], [PNP_ROT_MAX_DEG],
                lambda: _pnp_optimum(cam, points, pixels)[1:], [OPTIMUM_SLACK_DEG]),
            f"PnP {cam.id}: {mean_px:.3f} px, {r_deg:.4f} deg")
        px_all.append(mean_px)
        rot_all.append(r_deg)
    return {"cameras.pnp_reproj_px_mean": float(np.mean(px_all)),
            "cameras.pnp_rot_err_max_deg": float(np.max(rot_all))}


def _check_scans(checks: Checks, bundle, scans, report) -> dict:
    by_name = {scan.name: scan for scan in scans}
    reference = by_name[report.reference_name]
    worst = 0.0
    for row in report.rows:
        truth = synth.true_relative_scan_pose(bundle, row.name, report.reference_name)
        t_mm, r_deg = synth.pose_error(row.transform, truth)
        checks.check(
            _pose_within([t_mm, r_deg], [SCAN_ERR_MAX_MM, SCAN_ERR_MAX_DEG],
                         lambda: _kabsch_optimum(by_name[row.name], reference, truth),
                         [OPTIMUM_SLACK_MM, OPTIMUM_SLACK_DEG]),
            f"scan {row.name}: {t_mm:.3f} mm, {r_deg:.4f} deg")
        worst = max(worst, t_mm)
    return {"fusion.scan_err_max_mm": worst}


def _final_from_world(bundle, report, floor_t) -> RigidTransform:
    return geometry.compose(
        floor_t, geometry.invert(bundle.scan_poses[report.reference_name]))


def _plane_errors(origin, normal, floor_points) -> tuple[float, float]:
    """(tilt deg, height mm) of a plane against the true floor z = 0, all in
    world coordinates: the angle of its normal from +z and the largest
    distance of a true floor point from it."""
    tilt_deg = float(np.degrees(np.arccos(np.clip(normal[2], -1.0, 1.0))))
    height_mm = float(np.max(np.abs((floor_points - origin) @ normal)) * 1000.0)
    return tilt_deg, height_mm


def _floor_optimum(bundle, report, fused, floor_points) -> tuple[float, float]:
    """Plane errors of the least-squares plane through the fused points that
    lie within the RANSAC threshold of the true floor."""
    pts = bundle.scan_poses[report.reference_name].apply_points(fused.points)
    near = pts[np.abs(pts[:, 2]) <= FLOOR_HEIGHT_MAX_MM / 1000.0]
    origin = near.mean(axis=0)
    normal = np.linalg.svd(near - origin, full_matrices=False)[2][2]
    return _plane_errors(origin, normal * np.sign(normal[2]), floor_points)


def _check_floor(checks: Checks, bundle, report, fused, final, floor_t) -> dict:
    to_final = _final_from_world(bundle, report, floor_t)
    room = bundle.room_cloud.points
    floor_points = room[room[:, 2] == 0.0]
    # the final frame's origin and z axis in world coordinates
    tilt_deg, height_mm = _plane_errors(geometry.invert(to_final).t,
                                        to_final.rotation[2], floor_points)
    checks.check(
        _pose_within([tilt_deg, height_mm], [FLOOR_TILT_MAX_DEG, FLOOR_HEIGHT_MAX_MM],
                     lambda: _floor_optimum(bundle, report, fused, floor_points),
                     [FLOOR_SLACK_DEG, FLOOR_SLACK_MM]),
        f"floor frame: tilt {tilt_deg:.4f} deg, true floor at {height_mm:.2f} mm")
    near_floor = np.abs(final.points[:, 2]) <= FLOOR_HEIGHT_MAX_MM / 1000.0
    return {"geometry.floor_tilt_deg": tilt_deg,
            "geometry.floor_inlier_ratio": float(near_floor.mean())}


def _check_frame(checks: Checks, selection, frame, n_cameras: int) -> None:
    checks.check(len(selection) == n_cameras
                 and all(idx == 0 for idx in selection.values()),
                 f"t={frame.t_s:.4f}: surgeon not selected in every camera "
                 f"({selection})")
    n_valid = int(frame.valid.sum())
    checks.count(mocap.N_JOINTS, mocap.N_JOINTS - n_valid)
    checks.check(n_valid >= JOINT_VALID_MIN_RATIO * mocap.N_JOINTS,
                 f"t={frame.t_s:.4f}: {n_valid}/{mocap.N_JOINTS} joints valid")


def _check_skeleton(checks: Checks, frames, truths, smoothed) -> dict:
    checks.check(smoothed is not None and len(smoothed) == len(frames)
                 and all(a.t_s == b.t_s for a, b in zip(smoothed, frames)),
                 "smooth_skeleton did not keep the frame timestamps")
    errs = np.concatenate([
        np.linalg.norm(f.positions[f.valid] - t.positions[f.valid], axis=1)
        for f, t in zip(frames, truths)]) * 1000.0
    p50 = float(np.median(errs)) if len(errs) else float("inf")
    checks.check(p50 < JOINT_ERR_P50_MAX_MM, f"median joint error {p50:.3f} mm")
    n_valid = sum(int(f.valid.sum()) for f in frames)
    return {"mocap.joint_valid_ratio": n_valid / (mocap.N_JOINTS * len(frames)),
            "mocap.joint_err_p50_mm": p50}


def _dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory))


@dataclass
class Result:
    """What a timed end-to-end run did: ``items`` units of work in
    ``program_s`` seconds of twinfuse calls, and per-operation times."""

    item: str
    items: int
    program_s: float
    op_s: list


def _closed_loop(op, seconds: float, item: str) -> Result:
    """Call ``op(k)`` for k = 0, 1, ... until ``seconds`` have passed.
    ``op`` returns (twinfuse seconds, items) or None when it failed."""
    deadline = time.perf_counter() + seconds
    result = Result(item, 0, 0.0, [])
    k = 0
    while time.perf_counter() < deadline:
        done = op(k)
        k += 1
        if done is not None:
            result.op_s.append(done[0])
            result.program_s += done[0]
            result.items += done[1]
    return result


class Workload:
    """One workload. ``spec`` is its entry in workloads.json; ``workdir`` is
    a scratch directory for files the workload writes."""

    name = ""

    def __init__(self, spec: dict, workdir: str):
        self.spec = spec
        self.workdir = workdir

    def configs(self, seed: int) -> list:
        return [synth.SynthConfig(seed=seed, **self.spec["synth"])]

    def setup(self, seed: int):
        raise NotImplementedError

    def run(self, inputs, seconds: float, checks: Checks) -> Result:
        raise NotImplementedError

    def unit(self, inputs, checks: Checks) -> tuple[float, dict]:
        """The fixed work of one traced repetition: (twinfuse seconds,
        benchmark-side counts and quality numbers)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# capture

class Capture(Workload):
    name = "capture"

    def setup(self, seed):
        bundle = synth.generate(self.configs(seed)[0])
        # warm-up on the cheap entry points
        mocap.select_surgeon(bundle.keypoint_frames[0], bundle.cameras,
                             bundle.table_center)
        mocap.smooth_skeleton(bundle.skeleton_true[:3], 3)
        return bundle

    def _pass(self, bundle, indices, checks, deadline=None):
        """Frames ``indices`` in order, then smoothing over the ones done.
        Returns (per-frame seconds, smoothing seconds, quality)."""
        frames, truths, frame_s = [], [], []
        for k in indices:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            per_cam = bundle.keypoint_frames[k]
            try:
                t0 = time.perf_counter()
                sel = mocap.select_surgeon(per_cam, bundle.cameras,
                                           bundle.table_center)
                frame = mocap.triangulate_skeleton(per_cam, sel, bundle.cameras)
                frame_s.append(time.perf_counter() - t0)
            except Exception:  # a raising call is a failed operation
                checks.error(f"capture frame {k}")
                continue
            _check_frame(checks, sel, frame, len(bundle.cameras))
            frames.append(frame)
            truths.append(bundle.skeleton_true[k])
        if not frames:
            return frame_s, 0.0, {}
        smoothed = None
        t0 = time.perf_counter()
        try:
            smoothed = mocap.smooth_skeleton(frames, self.spec["smooth_window"])
        except Exception:
            checks.error("smooth_skeleton")
        smooth_s = time.perf_counter() - t0
        return frame_s, smooth_s, _check_skeleton(checks, frames, truths, smoothed)

    def run(self, bundle, seconds, checks):
        deadline = time.perf_counter() + seconds
        n = len(bundle.keypoint_frames)
        result = Result("frames", 0, 0.0, [])
        while time.perf_counter() < deadline:
            frame_s, smooth_s, _ = self._pass(bundle, range(n), checks, deadline)
            result.op_s += frame_s
            result.items += len(frame_s)
            result.program_s += sum(frame_s) + smooth_s
        return result

    def unit(self, bundle, checks):
        frame_s, smooth_s, quality = self._pass(
            bundle, range(self.spec["trace_frames"]), checks)
        return sum(frame_s) + smooth_s, quality


# ---------------------------------------------------------------------------
# room

@dataclass
class RoomInput:
    bundle: object
    scans: list
    pnp: list


def densify(bundle, factor: int, seed: int) -> list:
    """Scan records whose clouds are the original plus ``factor - 1`` copies
    jittered by the synth scan noise."""
    out = []
    for i, scan in enumerate(bundle.scans):
        rng = np.random.default_rng([seed, i])
        pts = scan.cloud.points
        copies = [pts] + [pts + rng.normal(0.0, bundle.config.scan_sigma_m,
                                           size=pts.shape)
                          for _ in range(factor - 1)]
        cloud = PointCloud(np.concatenate(copies), frame=scan.cloud.frame)
        out.append(fusion.ScanRecord(scan.name, cloud, scan.markers))
    return out


class Room(Workload):
    name = "room"

    def configs(self, seed):
        n = self.spec["input_seeds"]
        return [synth.SynthConfig(seed=seed * n + k, **self.spec["synth"])
                for k in range(n)]

    def setup(self, seed):
        inputs = []
        for config in self.configs(seed):
            bundle = synth.generate(config)
            scans = densify(bundle, self.spec["density_factor"], config.seed)
            n_points = sum(len(s.cloud) for s in scans)
            if n_points != self.spec["fused_points"]:
                raise RuntimeError(f"room input has {n_points} points, "
                                   f"workloads.json says {self.spec['fused_points']}")
            inputs.append(RoomInput(bundle, scans, _pnp_inputs(bundle)))
        # warm-up on one undensified scan
        cloud = inputs[0].bundle.scans[0].cloud
        fusion.remove_statistical_outliers(
            fusion.voxel_downsample(cloud, self.spec["voxel_m"]))
        metrics.chamfer(cloud, cloud, self.spec["chamfer_cutoff_m"])
        return inputs

    def _chain(self, inp: RoomInput, checks: Checks):
        """The room chain on one input: (twinfuse seconds, points in, quality),
        or None when a call raised."""
        path = os.path.join(self.workdir, "room.ply")
        watch = Stopwatch()
        try:
            with watch:
                fused, report = fusion.fuse_scans(inp.scans)
                final, floor_t = fusion.finalize_reference(fused)
                clean = fusion.remove_statistical_outliers(final)
                cloud = fusion.voxel_downsample(clean, self.spec["voxel_m"])
            to_final = _final_from_world(inp.bundle, report, floor_t)
            truth = PointCloud(to_final.apply_points(inp.bundle.room_cloud.points),
                               frame=cloud.frame)
            with watch:
                metrics.chamfer(cloud, truth, self.spec["chamfer_cutoff_m"])
                ply.save_ply(path, cloud)
                loaded = ply.load_ply(path, frame=cloud.frame)
                solved = _solve_cameras(inp.pnp)
        except Exception:  # a raising call is a failed operation
            checks.error(f"room chain (seed {inp.bundle.config.seed})")
            return None
        checks.check(np.array_equal(loaded.points, cloud.points.astype(np.float32)),
                     "PLY round trip changed the points")
        quality = {"fusion.points_in": len(fused),
                   "fusion.outlier_kept_ratio": len(clean) / len(final),
                   "ply.bytes": os.path.getsize(path)}
        quality.update(_check_scans(checks, inp.bundle, inp.scans, report))
        quality.update(_check_floor(checks, inp.bundle, report, fused, final, floor_t))
        quality.update(_check_pnp(checks, inp.pnp, solved))
        return watch.s, len(fused), quality

    def run(self, inputs, seconds, checks):
        def op(k):
            done = self._chain(inputs[k % len(inputs)], checks)
            return None if done is None else done[:2]
        return _closed_loop(op, seconds, "points")

    def unit(self, inputs, checks):
        done = self._chain(inputs[0], checks)
        return (0.0, {}) if done is None else (done[0], done[2])


# ---------------------------------------------------------------------------
# twin

@dataclass
class TwinInput:
    bundle: object
    pnp: list
    array: object            # MarkerArrayGeometry
    array_truth: RigidTransform
    samples: list            # hemisphere samples per marker, model frame
    model: PointCloud        # instrument surface, array frame
    scan: PointCloud         # the same surface as scanned, model frame
    offset: RigidTransform   # ICP start error, array frame


def _hemisphere(rng, center, radius, count, noise):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    pts = np.zeros((0, 3))
    while len(pts) < count:
        v = rng.normal(size=(4 * count, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        pts = np.vstack([pts, v[v @ axis > 0.05]])
    return center + radius * pts[:count] + rng.normal(0.0, noise, size=(count, 3))


def _box_surface(rng, count, size):
    """Points spread over the faces of an axis-aligned box of ``size`` (m)
    with one corner at the origin, in proportion to face area."""
    size = np.asarray(size, dtype=float)
    areas = np.array([size[1] * size[2], size[0] * size[2], size[0] * size[1]])
    face = rng.choice(3, size=count, p=areas / areas.sum())
    pts = rng.uniform(0.0, 1.0, size=(count, 3)) * size
    pts[np.arange(count), face] = rng.integers(0, 2, size=count) * size[face]
    return pts


class Twin(Workload):
    name = "twin"

    def setup(self, seed):
        spec = self.spec
        bundle = synth.generate(self.configs(seed)[0])
        rng = np.random.default_rng([seed, 1])
        array = tracking.MarkerArrayGeometry(
            np.array(ARRAY_MM[:spec["array_markers"]], dtype=float) / 1000.0)
        truth = RigidTransform(geometry.quat_normalize(rng.normal(size=4)),
                               synth.TABLE_CENTER + rng.uniform(-0.1, 0.1, size=3),
                               from_frame="array", to_frame="model")
        samples = [_hemisphere(rng, c, array.radius_m, spec["hemisphere_points"],
                               spec["hemisphere_noise_m"])
                   for c in truth.apply_points(array.markers)]
        surface = _box_surface(rng, spec["icp_surface_points"], spec["icp_box_m"])
        offset = RigidTransform([1.0, 0, 0, 0], [spec["icp_offset_m"], 0.0, 0.0],
                                from_frame="array", to_frame="array")
        inp = TwinInput(bundle, _pnp_inputs(bundle), array, truth, samples,
                        PointCloud(surface, frame="array"),
                        PointCloud(truth.apply_points(surface), frame="model"),
                        offset)
        # warm-up on the cheap entry points
        tracking.fit_sphere_fixed_radius(samples[0], array.radius_m)
        mocap.select_surgeon(bundle.keypoint_frames[0], bundle.cameras,
                             bundle.table_center)
        return inp

    def _twin(self, inp: TwinInput, checks: Checks):
        """Generated inputs to a saved, reloaded and validated scene:
        (twinfuse seconds, quality), or None when a call raised."""
        b = inp.bundle
        window = self.spec["smooth_window"]
        directory = os.path.join(self.workdir, "scene")
        shutil.rmtree(directory, ignore_errors=True)
        watch = Stopwatch()
        try:
            with watch:
                fused, report = fusion.fuse_scans(b.scans)
                final, floor_t = fusion.finalize_reference(fused)
                solved = _solve_cameras(inp.pnp)
                est = [cameras.CameraModel(cam.id, cam.intrinsics,
                                           pose.with_frames(f"camera:{cam.id}",
                                                            "reference"))
                       for (cam, _, _), (pose, _) in zip(inp.pnp, solved)]
                selections, frames = [], []
                for per_cam in b.keypoint_frames:
                    sel = mocap.select_surgeon(per_cam, est, b.table_center)
                    selections.append(sel)
                    frames.append(mocap.triangulate_skeleton(per_cam, sel, est))
                smoothed = mocap.smooth_skeleton(frames, window)
                centers = np.array([
                    tracking.fit_sphere_fixed_radius(s, inp.array.radius_m)[0]
                    for s in inp.samples])
                model_from_array, _ = tracking.register_marker_array(centers,
                                                                     inp.array)
                fit = tracking.icp(inp.model, inp.scan,
                                   geometry.compose(model_from_array, inp.offset))
                track = tracking.smooth_track(b.instrument_track_noisy, window)
                room = scene.StaticNode(
                    "room", PointCloud(final.points, frame="reference"),
                    floor_t.with_frames("room", "reference"))
                twin = scene.assemble(
                    [room], [scene.DynamicNode("instrument", "instrument.ply", track)],
                    [scene.SkeletonNode("surgeon", tuple(smoothed))])
                scene.save(twin, directory)
                loaded = scene.load(directory)
                snapshots = [scene.sample_at(loaded, f.t_s) for f in smoothed]
                violations = scene.validate(loaded)
        except Exception:  # a raising call is a failed operation
            checks.error(f"twin (seed {b.config.seed})")
            return None

        quality = {"fusion.points_in": len(fused),
                   "tracking.icp.iterations": len(fit.rms_history) - 1,
                   "scene.bytes_written": _dir_bytes(directory),
                   "ply.bytes": os.path.getsize(os.path.join(directory, "room.ply"))}
        quality.update(_check_scans(checks, b, b.scans, report))
        quality.update(_check_floor(checks, b, report, fused, final, floor_t))
        quality.update(_check_pnp(checks, inp.pnp, solved))
        for sel, frame in zip(selections, frames):
            _check_frame(checks, sel, frame, len(est))
        quality.update(_check_skeleton(checks, frames, b.skeleton_true, smoothed))

        truth = inp.array_truth
        true_centers = truth.apply_points(inp.array.markers)
        sphere_mm = np.linalg.norm(centers - true_centers, axis=1).max() * 1000.0
        checks.check(sphere_mm < SPHERE_ERR_MAX_MM,
                     f"sphere centers off by up to {sphere_mm:.4f} mm")
        t_mm, r_deg = synth.pose_error(model_from_array, truth)
        checks.check(t_mm < ARRAY_ERR_MAX_MM and r_deg < ARRAY_ERR_MAX_DEG,
                     f"marker array: {t_mm:.4f} mm, {r_deg:.4f} deg")
        marker_mm = np.linalg.norm(model_from_array.apply_points(inp.array.markers)
                                   - true_centers, axis=1).max() * 1000.0
        icp_mm = float(np.linalg.norm(fit.transform.t - truth.t) * 1000.0)
        checks.check(icp_mm < ICP_ERR_MAX_MM, f"ICP recovery off by {icp_mm:.4f} mm")
        quality["tracking.array_err_max_mm"] = float(marker_mm)

        equal = scene.scenes_equal(twin, loaded)
        checks.check(equal and not violations,
                     f"scene round trip: equal={equal}, violations={violations}")
        checks.check(all(np.array_equal(s.skeletons["surgeon"].positions, f.positions)
                         for s, f in zip(snapshots, smoothed)),
                     "sample_at at a frame time did not return that frame")
        return watch.s, quality

    def run(self, inp, seconds, checks):
        def op(k):
            done = self._twin(inp, checks)
            return None if done is None else (done[0], 1)
        return _closed_loop(op, seconds, "twins")

    def unit(self, inp, checks):
        done = self._twin(inp, checks)
        return (0.0, {}) if done is None else done


WORKLOADS = {cls.name: cls for cls in (Capture, Room, Twin)}
