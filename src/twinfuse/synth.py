"""Synthetic scene generator with exact ground truth.

Produces a room cloud, marker layout, noisy per-scan records, a camera rig
with noisy pixel observations, an instrument pose track and a 25+21+21
keypoint skeleton, all derived deterministically from one seed. A fixed
substream per entity (PCG64 seeded via SeedSequence spawn keys) keeps
existing entities bit-stable when new ones are added.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .cameras import CameraIntrinsics, CameraModel, _pixels
from .errors import ParameterError, finite_number
from .fusion import MarkerSet, ScanRecord
from .geometry import (PointCloud, RigidTransform, compose, invert,
                       quat_from_axis_angle, quat_multiply, quat_normalize,
                       rotation_angle_deg, transform_from_matrix)
from .mocap import (N_BODY, N_HAND, N_JOINTS, Keypoint2DFrame, PersonDetection,
                    Skeleton3DFrame)
from .ply import save_ply
from .tracking import PoseTrack


_FIELD_TYPES = {  # SynthConfig annotation -> (what it must be, check)
    "int": ("an int", lambda v: finite_number(v, int)),
    "float": ("a number", finite_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "tuple": ("3 positive numbers",
              lambda v: isinstance(v, (tuple, list)) and len(v) == 3
              and all(finite_number(x) and x > 0 for x in v)),
}


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    room_extent_m: tuple = (7.0, 5.0, 3.0)  # x, y, z
    marker_count: int = 21
    scan_count: int = 8
    visibility_min: int = 12
    visibility_max: int = 14
    camera_count: int = 5
    scan_sigma_m: float = 0.0025
    pixel_sigma_px: float = 0.5
    tracker_sigma_m: float = 0.0005
    tracker_rot_sigma_deg: float = 0.05
    duration_s: float = 4.0
    rate_hz: float = 30.0
    skeleton_motion_amp_m: float = 0.05
    skeleton_jitter_m: float = 0.0
    include_bystander: bool = False

    def __post_init__(self):
        for f in fields(self):
            want, check = _FIELD_TYPES[f.type]
            if not check(getattr(self, f.name)):
                raise ParameterError(f"{f.name} must be {want}, "
                                     f"got {getattr(self, f.name)!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.marker_count < 1 or self.scan_count < 1 or self.camera_count < 1:
            raise ParameterError("counts must be >= 1")
        if not (1 <= self.visibility_min <= self.visibility_max <= self.marker_count):
            raise ParameterError("need 1 <= visibility_min <= visibility_max <= markers")
        for s in (self.scan_sigma_m, self.pixel_sigma_px, self.tracker_sigma_m,
                  self.tracker_rot_sigma_deg, self.skeleton_jitter_m):
            if s < 0:
                raise ParameterError("noise levels must be non-negative")
        if self.duration_s <= 0 or self.rate_hz <= 0:
            raise ParameterError("duration and rate must be positive")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SynthConfig":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ParameterError("synth config is not a JSON object")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ParameterError("unknown synth config key(s): "
                                 + ", ".join(repr(k) for k in unknown))
        if isinstance(obj.get("room_extent_m"), list):
            obj["room_extent_m"] = tuple(obj["room_extent_m"])
        return cls(**obj)


def _rng(seed: int, label: str) -> np.random.Generator:
    key = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(key,)))


TABLE_CENTER = np.array([0.5, 0.0, 0.9])
# frames of skeletons and 2D keypoints made together; a whole capture in one
# block would raise the peak memory of generate
_FRAME_BLOCK = 64


@dataclass
class GroundTruthBundle:
    config: SynthConfig
    room_cloud: PointCloud               # reference frame, floor at z=0
    markers: MarkerSet                   # reference frame, ids M01..
    scans: list                          # ScanRecord per scan (noisy)
    scan_poses: dict                     # name -> world_from_scan (truth)
    cameras: list                        # CameraModel (truth poses)
    marker_pixels: dict                  # cam id -> list[(marker id, u, v)] noisy
    instrument_track_true: PoseTrack
    instrument_track_noisy: PoseTrack
    skeleton_true: list                  # Skeleton3DFrame per timestamp
    keypoint_frames: list                # list per timestamp of Keypoint2DFrame per cam
    table_center: np.ndarray = field(default_factory=lambda: TABLE_CENTER.copy())


# ---------------------------------------------------------------------------
# scene building blocks

def _grid(x0, x1, y0, y1, z, step):
    xs = np.linspace(x0, x1, int(round((x1 - x0) / step)) + 1)
    ys = np.linspace(y0, y1, int(round((y1 - y0) / step)) + 1)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, float(z))])


def _room_points(extent) -> np.ndarray:
    ex, ey, ez = extent
    hx, hy = ex / 2, ey / 2
    parts = [
        _grid(-hx, hx, -hy, hy, 0.0, 0.22),            # floor (dominant plane)
        _grid(-hx, hx, -hy, hy, ez, 0.55),             # ceiling
    ]
    # walls
    for y in (-hy, hy):
        g = _grid(-hx, hx, 0.25, ez - 0.25, 0.0, 0.5)
        parts.append(np.column_stack([g[:, 0], np.full(len(g), y), g[:, 1]]))
    for x in (-hx, hx):
        g = _grid(-hy, hy, 0.25, ez - 0.25, 0.0, 0.5)
        parts.append(np.column_stack([np.full(len(g), x), g[:, 0], g[:, 1]]))
    # operating table block (also provides the non-floor point mass)
    t = TABLE_CENTER
    parts.append(_grid(t[0] - 1.0, t[0] + 1.0, t[1] - 0.35, t[1] + 0.35,
                       t[2], 0.12))
    parts.append(_grid(t[0] - 1.0, t[0] + 1.0, t[1] - 0.35, t[1] + 0.35,
                       t[2] - 0.08, 0.2))
    return np.concatenate(parts)


def _marker_positions(config: SynthConfig, rng) -> np.ndarray:
    # three elliptical rings of increasing radius and height around the
    # table, jittered per seed; a wide constellation keeps the rotation
    # error of marker-based registration small at the default noise level
    n = config.marker_count
    base = []
    i = 0
    while len(base) < n:
        layer = i % 3
        k = i // 3
        ang = 2 * np.pi * (k / max(1, (n + 2) // 3))
        r = 1.7 + 0.55 * layer
        base.append([TABLE_CENTER[0] + r * np.cos(ang),
                     TABLE_CENTER[1] + 0.8 * r * np.sin(ang),
                     0.3 + 1.0 * layer])
        i += 1
    base = np.asarray(base[:n])
    return base + rng.uniform(-0.08, 0.08, size=base.shape)


def _scan_pose(rng, name: str) -> RigidTransform:
    """Tripod pose on a ring around the table: random yaw, slight tilt.

    Keeping the scan origin within about a meter of the marker centroid
    bounds the rotation-to-translation error coupling of the recovered
    relative poses.
    """
    ang = rng.uniform(0, 2 * np.pi)
    rad = rng.uniform(0.3, 0.8)
    pos = np.array([TABLE_CENTER[0] + rad * np.cos(ang),
                    TABLE_CENTER[1] + rad * np.sin(ang),
                    rng.uniform(1.2, 1.7)])
    q = quat_from_axis_angle([0, 0, 1], rng.uniform(0, 2 * np.pi))
    tilt_axis = rng.normal(size=3)
    tilt_axis[2] = 0.0
    norm = np.linalg.norm(tilt_axis)
    if norm > 1e-9:
        tilt = np.radians(rng.uniform(-5.0, 5.0))
        q = quat_multiply(quat_from_axis_angle(tilt_axis / norm, tilt), q)
    return RigidTransform(q, pos, from_frame=name, to_frame="reference")


def _look_at_pose(position, target, cam_id: str) -> RigidTransform:
    """World-from-camera pose, OpenCV convention (+z forward, +y down)."""
    position = np.asarray(position, dtype=float)
    f = np.asarray(target, dtype=float) - position
    f /= np.linalg.norm(f)
    up = np.array([0.0, 0.0, 1.0])
    x = np.cross(f, up)
    x /= np.linalg.norm(x)
    y = np.cross(f, x)
    rot = np.column_stack([x, y, f])  # camera axes in world coords
    return transform_from_matrix(rot, position,
                                 from_frame=f"camera:{cam_id}", to_frame="reference")


def _default_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(fx=610.0, fy=610.0, cx=639.5, cy=359.5,
                            width=1280, height=720,
                            dist=(-0.04, 0.01, 0.0004, -0.0003, 0.0))


def _camera_rig(count: int) -> list[CameraModel]:
    intr = _default_intrinsics()
    cams = []
    # four across the table from the surgeon, one behind; all ceiling height
    angles = np.linspace(-0.9, 0.9, max(1, count - 1))
    positions = [[TABLE_CENTER[0] + 2.4 * np.cos(a + np.pi / 2),
                  TABLE_CENTER[1] + 2.2 * np.sin(a + np.pi / 2),
                  2.5] for a in angles]
    if count > 1:
        positions.append([TABLE_CENTER[0], TABLE_CENTER[1] - 2.3, 2.6])
    positions = positions[:count]
    for i, pos in enumerate(positions, start=1):
        cam_id = f"cam{i}"
        cams.append(CameraModel(cam_id, intr, _look_at_pose(pos, TABLE_CENTER, cam_id)))
    return cams


def project_visible(cam: CameraModel, points: np.ndarray):
    """Project world points (..., 3), or one point (3,) as (1, 3), returning
    (pixels (..., 2), mask (...) of in-front & in-image)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    pc = cam.cam_from_world.apply_points(points)
    mask = pc[..., 2] > 0.05
    uv = np.zeros(points.shape[:-1] + (2,))
    if mask.any():
        intr = cam.intrinsics
        uv[mask] = _pixels(pc[mask], intr.focal, intr.center, intr.dist)
        inside = ((uv[..., 0] >= 0) & (uv[..., 0] <= intr.width - 1)
                  & (uv[..., 1] >= 0) & (uv[..., 1] <= intr.height - 1))
        mask = mask & inside
    return uv, mask


# ---------------------------------------------------------------------------
# skeleton template (BODY-25 topology joint positions, z-up, feet at z=0)

_BODY25_TEMPLATE = np.array([
    [0.00, 0.06, 1.64],   # 0 nose
    [0.00, 0.02, 1.48],   # 1 neck
    [-0.19, 0.01, 1.46],  # 2 right shoulder
    [-0.24, 0.02, 1.20],  # 3 right elbow
    [-0.27, 0.10, 0.98],  # 4 right wrist
    [0.19, 0.01, 1.46],   # 5 left shoulder
    [0.24, 0.02, 1.20],   # 6 left elbow
    [0.27, 0.10, 0.98],   # 7 left wrist
    [0.00, 0.00, 0.98],   # 8 mid hip
    [-0.10, 0.00, 0.97],  # 9 right hip
    [-0.11, 0.01, 0.52],  # 10 right knee
    [-0.12, 0.00, 0.08],  # 11 right ankle
    [0.10, 0.00, 0.97],   # 12 left hip
    [0.11, 0.01, 0.52],   # 13 left knee
    [0.12, 0.00, 0.08],   # 14 left ankle
    [-0.03, 0.08, 1.66],  # 15 right eye
    [0.03, 0.08, 1.66],   # 16 left eye
    [-0.07, 0.03, 1.64],  # 17 right ear
    [0.07, 0.03, 1.64],   # 18 left ear
    [0.14, 0.12, 0.02],   # 19 left big toe
    [0.17, 0.10, 0.02],   # 20 left small toe
    [0.12, -0.04, 0.02],  # 21 left heel
    [-0.14, 0.12, 0.02],  # 22 right big toe
    [-0.17, 0.10, 0.02],  # 23 right small toe
    [-0.12, -0.04, 0.02],  # 24 right heel
])


def _hand_offsets() -> np.ndarray:
    # rigid 21-point cluster: wrist plus 4 points on each of 5 finger rays
    offs = [np.zeros(3)]
    for fi in range(5):
        ang = np.radians(-30 + 15 * fi)
        direction = np.array([np.sin(ang), np.cos(ang), 0.15 * (fi - 2) / 2])
        direction /= np.linalg.norm(direction)
        for seg in range(1, 5):
            offs.append(0.022 * seg * direction)
    return np.asarray(offs)


_HAND_OFFSETS = _hand_offsets()


def _skeleton_at(times: np.ndarray, root: np.ndarray, amp: float) -> np.ndarray:
    """True 67-joint skeletons (F, 67, 3) at times (F,): rigid template plus
    a smooth sway."""
    t = np.asarray(times, dtype=float)
    sway = amp * np.stack([np.sin(2 * np.pi * 0.5 * t),
                           np.cos(2 * np.pi * 0.3 * t),
                           0.2 * np.sin(2 * np.pi * 0.9 * t)], axis=-1)
    body = _BODY25_TEMPLATE + root + sway[:, None]
    left = body[:, 7:8] + _HAND_OFFSETS @ np.diag([1.0, 1.0, -1.0])
    right = body[:, 4:5] + _HAND_OFFSETS @ np.diag([-1.0, 1.0, -1.0])
    return np.concatenate([body, left, right], axis=1)


# ---------------------------------------------------------------------------
# generation

def generate(config: SynthConfig) -> GroundTruthBundle:
    """Deterministic ground-truth bundle for the given config."""
    room_pts = _room_points(config.room_extent_m)
    room_cloud = PointCloud(room_pts, frame="reference")

    marker_rng = _rng(config.seed, "markers")
    marker_pos = _marker_positions(config, marker_rng)
    markers = MarkerSet("reference", {f"M{i + 1:02d}": p
                                      for i, p in enumerate(marker_pos)})
    marker_ids = sorted(markers.positions)
    marker_arr = np.array([markers.positions[i] for i in marker_ids])

    # scans; visibility favors a core subset so scan pairs share markers,
    # as physically prominent markers are seen from most positions
    vis_weights = np.ones(len(marker_ids))
    vis_weights[:min(14, len(marker_ids))] = 50.0
    vis_weights /= vis_weights.sum()
    scans = []
    scan_poses = {}
    for i in range(config.scan_count):
        rng = _rng(config.seed, f"scan{i}")
        name = f"scan{i}"
        world_from_scan = _scan_pose(rng, name)
        scan_from_world = invert(world_from_scan)
        pts = scan_from_world.apply_points(room_pts)
        pts = pts + rng.normal(0.0, config.scan_sigma_m, size=pts.shape)
        n_vis = int(rng.integers(config.visibility_min, config.visibility_max + 1))
        vis_idx = np.sort(rng.choice(len(marker_ids), size=n_vis, replace=False,
                                     p=vis_weights))
        mpos = scan_from_world.apply_points(marker_arr[vis_idx])
        mpos = mpos + rng.normal(0.0, config.scan_sigma_m, size=mpos.shape)
        mset = MarkerSet(name, {marker_ids[j]: mpos[k]
                                for k, j in enumerate(vis_idx)})
        scans.append(ScanRecord(name, PointCloud(pts, frame=name), mset))
        scan_poses[name] = world_from_scan

    # cameras + marker pixel observations
    cameras = _camera_rig(config.camera_count)
    marker_pixels = {}
    for cam in cameras:
        rng = _rng(config.seed, f"campix:{cam.id}")
        uv, mask = project_visible(cam, marker_arr)
        noisy = uv + rng.normal(0.0, config.pixel_sigma_px, size=uv.shape)
        marker_pixels[cam.id] = [(marker_ids[j], float(noisy[j, 0]), float(noisy[j, 1]))
                                 for j in range(len(marker_ids)) if mask[j]]

    # instrument trajectory
    n_samples = int(round(config.duration_s * config.rate_hz)) + 1
    times = np.arange(n_samples) / config.rate_hz
    w = 2 * np.pi * 0.25
    pos = TABLE_CENTER + np.column_stack([
        0.10 * np.cos(w * times),
        0.10 * np.sin(1.3 * w * times),
        0.05 * np.sin(0.7 * w * times) + 0.15,
    ])
    quats = np.array([quat_normalize(quat_multiply(
        quat_from_axis_angle([0.3, 0.2, 0.93], 0.6 * np.sin(w * t)),
        quat_from_axis_angle([0, 0, 1], 0.4 * t))) for t in times])
    track_true = PoseTrack("reference", times, quats, pos)
    rng = _rng(config.seed, "instrument")
    noisy_pos = pos + rng.normal(0.0, config.tracker_sigma_m, size=pos.shape)
    noisy_quats = np.empty_like(quats)
    for i in range(n_samples):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        ang = np.radians(rng.normal(0.0, config.tracker_rot_sigma_deg))
        noisy_quats[i] = quat_normalize(
            quat_multiply(quat_from_axis_angle(axis, ang), quats[i]))
    track_noisy = PoseTrack("reference", times, noisy_quats, noisy_pos)

    # skeleton + 2D keypoints, _FRAME_BLOCK frames at a time. One draw per
    # block holds each frame's jitter (67x3) and then, per camera and person,
    # its pixel noise (67x2), in the order of one normal() call each; and
    # 0.0 + sigma * z is what Generator.normal(0.0, sigma) computes, so every
    # value is the one that call would give.
    surgeon_root = TABLE_CENTER * np.array([1, 1, 0]) + np.array([0.0, -0.55, 0.0])
    bystander_root = TABLE_CENTER * np.array([1, 1, 0]) + np.array([-1.2, 1.6, 0.0])
    roots = [surgeon_root, bystander_root][:1 + config.include_bystander]
    n_jitter = 3 * N_JOINTS if config.skeleton_jitter_m > 0 else 0
    skel_rng = _rng(config.seed, "skeleton")
    skeleton_true = []
    keypoint_frames = []
    for start in range(0, n_samples, _FRAME_BLOCK):
        block = times[start:start + _FRAME_BLOCK]
        n = len(block)
        z = skel_rng.standard_normal(
            (n, n_jitter + len(cameras) * len(roots) * N_JOINTS * 2))
        persons = np.stack([_skeleton_at(block, root, config.skeleton_motion_amp_m)
                            for root in roots], axis=1)  # (n, persons, 67, 3)
        if n_jitter:
            persons[:, 0] += 0.0 + config.skeleton_jitter_m * z[:, :n_jitter].reshape(
                n, N_JOINTS, 3)
        noise = 0.0 + config.pixel_sigma_px * z[:, n_jitter:].reshape(
            n, len(cameras), len(roots), N_JOINTS, 2)
        kp = np.empty((n, len(cameras), len(roots), N_JOINTS, 3))
        for c, cam in enumerate(cameras):
            uv, mask = project_visible(cam, persons)
            kp[:, c, ..., :2] = np.where(mask[..., None], uv + noise[:, c], 0.0)
            kp[:, c, ..., 2] = np.where(mask, 0.9, 0.0)
        for k, t in enumerate(block.tolist()):
            skeleton_true.append(Skeleton3DFrame(t, persons[k, 0],
                                                 np.zeros(N_JOINTS),
                                                 np.ones(N_JOINTS, dtype=bool)))
            keypoint_frames.append([
                Keypoint2DFrame(cam.id, t, tuple(
                    PersonDetection(p[:N_BODY], p[N_BODY:N_BODY + N_HAND],
                                    p[N_BODY + N_HAND:]) for p in kp[k, c]))
                for c, cam in enumerate(cameras)])

    return GroundTruthBundle(
        config=config, room_cloud=room_cloud, markers=markers, scans=scans,
        scan_poses=scan_poses, cameras=cameras, marker_pixels=marker_pixels,
        instrument_track_true=track_true, instrument_track_noisy=track_noisy,
        skeleton_true=skeleton_true, keypoint_frames=keypoint_frames)


# ---------------------------------------------------------------------------
# truth comparison

def pose_error(estimate: RigidTransform, truth: RigidTransform) -> tuple[float, float]:
    """(translation error mm, rotation error deg) between two poses."""
    t_mm = float(np.linalg.norm(estimate.t - truth.t) * 1000.0)
    r_deg = rotation_angle_deg(estimate.q, truth.q)
    return t_mm, r_deg


def true_relative_scan_pose(bundle: GroundTruthBundle, scan_name: str,
                            reference_name: str) -> RigidTransform:
    """Ground-truth transform from a scan's frame into the reference scan's."""
    return compose(invert(bundle.scan_poses[reference_name]),
                   bundle.scan_poses[scan_name])


# ---------------------------------------------------------------------------
# file export (same formats the pipeline consumes)

def export_bundle(bundle: GroundTruthBundle, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    scans_dir = os.path.join(directory, "scans")
    cams_dir = os.path.join(directory, "cameras")
    kp_dir = os.path.join(directory, "keypoints")
    for d in (scans_dir, cams_dir, kp_dir):
        os.makedirs(d, exist_ok=True)

    for scan in bundle.scans:
        save_ply(os.path.join(scans_dir, f"{scan.name}.ply"), scan.cloud)
        with open(os.path.join(scans_dir, f"{scan.name}_markers.json"), "w") as f:
            f.write(scan.markers.to_json())

    with open(os.path.join(directory, "reference_markers.json"), "w") as f:
        f.write(bundle.markers.to_json())

    for cam in bundle.cameras:
        with open(os.path.join(cams_dir, f"{cam.id}_intrinsics.json"), "w") as f:
            json.dump({"id": cam.id, **cam.intrinsics.to_dict()}, f, indent=2)
        with open(os.path.join(cams_dir, f"{cam.id}_marker_pixels.json"), "w") as f:
            json.dump({"camera": cam.id,
                       "pixels": [{"id": mid, "uv": [u, v]}
                                  for mid, u, v in bundle.marker_pixels[cam.id]]},
                      f, indent=2)
        with open(os.path.join(cams_dir, f"{cam.id}_truth.json"), "w") as f:
            f.write(cam.to_json())

    with open(os.path.join(directory, "instrument_track.csv"), "w", newline="") as f:
        f.write(bundle.instrument_track_noisy.to_csv())
    with open(os.path.join(directory, "instrument_track_true.csv"), "w",
              newline="") as f:
        f.write(bundle.instrument_track_true.to_csv())

    for k, per_cam in enumerate(bundle.keypoint_frames):
        for frame in per_cam:
            name = f"frame_{k:05d}_{frame.camera_id}.json"
            with open(os.path.join(kp_dir, name), "w") as f:
                f.write(frame.to_json())

    truth = {
        "table_center": [float(x) for x in bundle.table_center],
        "scan_poses": {name: p.to_dict() for name, p in bundle.scan_poses.items()},
    }
    with open(os.path.join(directory, "truth.json"), "w") as f:
        json.dump(truth, f, indent=2)
    with open(os.path.join(directory, "config.json"), "w") as f:
        f.write(bundle.config.to_json())
