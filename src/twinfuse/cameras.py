"""Pinhole camera model, PnP pose recovery, multi-view triangulation, and
temporal-offset estimation between tracks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (BehindCameraError, ConvergenceError, DegenerateGeometryError,
                     InsufficientCorrespondencesError, InsufficientViewsError,
                     NoOverlapError, ParameterError, UnknownEntityError)
from .geometry import (RigidTransform, invert, matrix_to_quat, quat_to_matrix,
                       transform_from_matrix)

CONFIDENCE_FLOOR = 0.1  # observations below this weight are discarded
MIN_RAY_ANGLE_DEG = 0.25  # widest ray pair below this is a degenerate triangulation


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with Brown-Conrady distortion (k1,k2,p1,p2,k3)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    dist: tuple = (0.0, 0.0, 0.0, 0.0, 0.0)
    focal: np.ndarray = field(init=False, repr=False, compare=False)  # (fx, fy)
    center: np.ndarray = field(init=False, repr=False, compare=False)  # (cx, cy)

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ParameterError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ParameterError("principal point must lie inside the image")
        object.__setattr__(self, "dist", tuple(float(d) for d in self.dist))
        if len(self.dist) != 5:
            raise ParameterError("distortion must have 5 coefficients")
        for name, pair in (("focal", (self.fx, self.fy)),
                           ("center", (self.cx, self.cy))):
            a = np.array(pair, dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def from_dict(cls, o: dict) -> "CameraIntrinsics":
        """Intrinsics from the JSON keys fx, fy, cx, cy, width, height, dist."""
        try:
            return cls(fx=o["fx"], fy=o["fy"], cx=o["cx"], cy=o["cy"],
                       width=o["width"], height=o["height"], dist=tuple(o["dist"]))
        except KeyError as exc:
            raise ParameterError(f"camera intrinsics missing key {exc}") from None


@dataclass(frozen=True)
class CameraModel:
    id: str
    intrinsics: CameraIntrinsics
    world_from_camera: RigidTransform

    def to_json(self) -> str:
        intr = self.intrinsics
        return json.dumps({
            "id": self.id,
            "width": intr.width, "height": intr.height,
            "fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
            "dist": list(intr.dist),
            "world_from_camera": {
                "t_m": [float(x) for x in self.world_from_camera.t],
                "q_wxyz": [float(x) for x in self.world_from_camera.q],
            },
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CameraModel":
        o = json.loads(text)
        intr = CameraIntrinsics.from_dict(o)
        wfc = o["world_from_camera"]
        pose = RigidTransform(np.asarray(wfc["q_wxyz"], dtype=float),
                              np.asarray(wfc["t_m"], dtype=float),
                              from_frame=f"camera:{o['id']}", to_frame="reference")
        return cls(o["id"], intr, pose)


@dataclass(frozen=True)
class PixelObservation:
    camera_id: str
    u: float
    v: float
    confidence: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ParameterError("confidence must be in [0, 1]")
        if not (np.isfinite(self.u) and np.isfinite(self.v)):
            raise ParameterError("pixel coordinates must be finite")


# ---------------------------------------------------------------------------
# projection

def _distort(xn: np.ndarray, dist) -> np.ndarray:
    """Apply Brown-Conrady distortion to normalized coords (N, 2).

    ``dist`` is one (k1, k2, p1, p2, k3) tuple, or a (5, N) array holding one
    set of coefficients per point.
    """
    k1, k2, p1, p2, k3 = dist
    x, y = xn[..., 0], xn[..., 1]
    r2 = x * x + y * y
    radial = 1 + k1 * r2 + k2 * r2 ** 2 + k3 * r2 ** 3
    xd = x * radial + 2 * p1 * x * y + p2 * (r2 + 2 * x * x)
    yd = y * radial + p1 * (r2 + 2 * y * y) + 2 * p2 * x * y
    return np.stack([xd, yd], axis=-1)


def _undistort(xd: np.ndarray, dist, iterations: int = 30) -> np.ndarray:
    """Invert the distortion numerically (fixed point + Newton-style update)."""
    xn = np.array(xd, dtype=float, copy=True)
    for _ in range(iterations):
        err = _distort(xn, dist) - xd
        xn -= err
        if np.max(np.abs(err)) < 1e-14:
            break
    return xn


def _pixels(pc: np.ndarray, focal, center, dist) -> np.ndarray:
    """The projection kernel: camera-frame points (N, 3) in front of the
    camera to pixels (N, 2). ``focal`` and ``center`` are (2,) or (N, 2)
    arrays; ``dist`` is as for ``_distort``."""
    return focal * _distort(pc[:, :2] / pc[:, 2:3], dist) + center


def project_points(cam: CameraModel, points_world: np.ndarray) -> np.ndarray:
    """Project world points (N, 3) to pixels (N, 2)."""
    points_world = np.asarray(points_world, dtype=float).reshape(-1, 3)
    cam_from_world = invert(cam.world_from_camera)
    pc = cam_from_world.apply_points(points_world)
    if np.any(pc[:, 2] <= 0):
        raise BehindCameraError("point(s) with non-positive depth")
    intr = cam.intrinsics
    return _pixels(pc, intr.focal, intr.center, intr.dist)


def project(cam: CameraModel, point_world) -> np.ndarray:
    """Project one world point to a pixel (u, v)."""
    return project_points(cam, np.asarray(point_world, dtype=float).reshape(1, 3))[0]


def unproject(cam: CameraModel, pixel, depth_m: float) -> np.ndarray:
    """Lift a pixel to the world point at the given camera-frame depth."""
    if depth_m <= 0:
        raise BehindCameraError("depth must be positive")
    intr = cam.intrinsics
    xn = _undistort((np.asarray(pixel, dtype=float) - intr.center) / intr.focal,
                    intr.dist)
    pc = np.array([xn[0] * depth_m, xn[1] * depth_m, depth_m])
    return cam.world_from_camera.apply_points(pc.reshape(1, 3))[0]


def pixels_to_normalized(intr: CameraIntrinsics, pixels: np.ndarray) -> np.ndarray:
    """Undistorted normalized image coordinates for pixels (N, 2)."""
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    return _undistort((pixels - intr.center) / intr.focal, intr.dist)


# ---------------------------------------------------------------------------
# PnP

def _rotvec_to_matrix(r: np.ndarray) -> np.ndarray:
    angle = np.linalg.norm(r)
    if angle < 1e-12:
        k = np.array([[0, -r[2], r[1]], [r[2], 0, -r[0]], [-r[1], r[0], 0]])
        return np.eye(3) + k
    axis = r / angle
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def _matrix_to_rotvec(m: np.ndarray) -> np.ndarray:
    q = matrix_to_quat(m)
    w = np.clip(q[0], -1.0, 1.0)
    angle = 2.0 * np.arccos(w)
    s = np.sqrt(max(0.0, 1.0 - w * w))
    if s < 1e-12:
        return np.zeros(3)
    return angle * q[1:] / s


def _dlt_pose(points: np.ndarray, xn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear camera pose [R|t] from world points and normalized coords."""
    n = len(points)
    a = np.zeros((2 * n, 12))
    for i in range(n):
        X = np.concatenate([points[i], [1.0]])
        a[2 * i, 0:4] = X
        a[2 * i, 8:12] = -xn[i, 0] * X
        a[2 * i + 1, 4:8] = X
        a[2 * i + 1, 8:12] = -xn[i, 1] * X
    _, sv, vt = np.linalg.svd(a)
    if sv[-2] <= 1e-12 * sv[0]:
        raise DegenerateGeometryError("DLT system is rank-deficient")
    p = vt[-1].reshape(3, 4)
    # enforce positive depth for the centroid
    centroid_h = np.concatenate([points.mean(axis=0), [1.0]])
    if (p @ centroid_h)[2] < 0:
        p = -p
    u, s, vt3 = np.linalg.svd(p[:, :3])
    scale = s.mean()
    rot = u @ vt3
    if np.linalg.det(rot) < 0:
        rot = -rot
        scale = -scale
    t = p[:, 3] / scale
    return rot, t


def _least_squares(residuals, x: np.ndarray, weights: np.ndarray):
    """Levenberg-Marquardt minimization of ``sum(weights * residuals(x)**2)``.

    Forward-difference Jacobian, Marquardt damping ``lam * diag(J^T W J)``.
    ``residuals`` returns None where the model is undefined (a point behind
    a camera): such trial steps are rejected, and the solve stops where a
    Jacobian column would need one. Returns ``(x, r)``; ``r`` is None when
    the start point itself is undefined.
    """
    r = residuals(x)
    if r is None:
        return x, None
    cost = float(weights @ r ** 2)
    lam = 1e-3
    jac = np.empty((len(r), len(x)))
    for _ in range(100):
        for i in range(len(x)):
            xp = x.copy()
            xp[i] += 1e-8
            rp = residuals(xp)
            if rp is None:
                return x, r
            jac[:, i] = (rp - r) / 1e-8
        jtw = jac.T * weights
        jtj = jtw @ jac
        jtr = jtw @ r
        damping = np.diag(np.diag(jtj) + 1e-12)
        for _ in range(12):
            try:
                step = np.linalg.solve(jtj + lam * damping, -jtr)
            except np.linalg.LinAlgError:
                step = np.zeros_like(x)  # no cost drop: rejected below
            x_new = x + step
            r_new = residuals(x_new)
            cost_new = np.inf if r_new is None else float(weights @ r_new ** 2)
            if cost_new < cost:
                break
            lam *= 10
        else:
            return x, r
        x, r, drop, cost = x_new, r_new, cost - cost_new, cost_new
        lam = max(lam / 10, 1e-12)
        if drop < 1e-10:
            break
    return x, r


def solve_pnp(points, pixels, intr: CameraIntrinsics) -> tuple[RigidTransform, float]:
    """Camera pose from 3D-2D correspondences: DLT init + damped
    least-squares refinement of the pixel reprojection error.

    Returns ``(world_from_camera, mean reprojection error px)``.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if len(points) != len(pixels):
        raise InsufficientCorrespondencesError("points/pixels length mismatch")
    if len(points) < 6:
        raise InsufficientCorrespondencesError(
            f"PnP needs >= 6 correspondences, got {len(points)}")

    xn = pixels_to_normalized(intr, pixels)
    rot, t = _dlt_pose(points, xn)

    def residuals(x):
        pc = points @ _rotvec_to_matrix(x[:3]).T + x[3:]
        if np.any(pc[:, 2] <= 1e-9):
            return None
        return (_pixels(pc, intr.focal, intr.center, intr.dist) - pixels).ravel()

    x, r = _least_squares(residuals, np.concatenate([_matrix_to_rotvec(rot), t]),
                          np.ones(2 * len(points)))
    if r is None:
        raise DegenerateGeometryError("DLT initialization puts points behind camera")
    mean_px = float(np.mean(np.linalg.norm(r.reshape(-1, 2), axis=1)))
    world_from_camera = invert(transform_from_matrix(
        _rotvec_to_matrix(x[:3]), x[3:], from_frame="world", to_frame="camera"))
    if mean_px > 0.25 * max(intr.width, intr.height):
        raise ConvergenceError(
            f"PnP refinement did not converge (mean error {mean_px:.1f} px)",
            last_iterate=world_from_camera)
    return world_from_camera, mean_px


# ---------------------------------------------------------------------------
# triangulation

def triangulate(observations: list[PixelObservation],
                cameras: list[CameraModel]) -> tuple[np.ndarray, float]:
    """Confidence-weighted linear triangulation plus reprojection refinement.

    Observations with confidence below ``CONFIDENCE_FLOOR`` are discarded;
    a camera id missing from ``cameras`` raises ``UnknownEntityError``.
    Returns ``(point_xyz, mean weighted reprojection residual px)``.
    """
    by_id = {c.id: c for c in cameras}
    used = [o for o in observations if o.confidence >= CONFIDENCE_FLOOR]
    cam_ids = {o.camera_id for o in used}
    if len(cam_ids) < 2:
        raise InsufficientViewsError(
            f"need observations from >= 2 cameras, got {len(cam_ids)}")
    unknown = sorted(cam_ids - by_id.keys())
    if unknown:
        raise UnknownEntityError(f"unknown camera id {unknown[0]!r}")

    # per-observation camera arrays, each camera inverted once per call
    cam_from_world = {cid: invert(by_id[cid].world_from_camera) for cid in cam_ids}
    rot = np.array([quat_to_matrix(cam_from_world[o.camera_id].q) for o in used])
    t = np.array([cam_from_world[o.camera_id].t for o in used])
    intrs = [by_id[o.camera_id].intrinsics for o in used]
    focal = np.array([i.focal for i in intrs])
    center = np.array([i.center for i in intrs])
    dist = np.array([i.dist for i in intrs]).T
    uv = np.array([(o.u, o.v) for o in used])
    w = np.array([o.confidence for o in used])

    # DLT rows w * (x * P[2] - P[0]), w * (y * P[2] - P[1]) with P = [R|t]
    xn = _undistort((uv - center) / focal, dist)
    p = np.concatenate([rot, t[:, :, None]], axis=2)
    a = w[:, None, None] * (xn[:, :, None] * p[:, 2:3, :] - p[:, :2, :])
    _, _, vt = np.linalg.svd(a.reshape(-1, 4))
    h = vt[-1]
    if abs(h[3]) < 1e-12:
        raise DegenerateGeometryError("triangulated point at infinity")
    point = h[:3] / h[3]

    # widest angle between two cameras' viewing rays through the point
    d = point - np.array([by_id[cid].world_from_camera.t for cid in cam_ids])
    nd = np.linalg.norm(d, axis=1)
    d = d[nd > 1e-12] / nd[nd > 1e-12, None]
    cos = np.abs(d @ d.T)[np.triu_indices(len(d), 1)]
    max_angle = np.degrees(np.arccos(np.clip(cos.min(), -1, 1))) if cos.size else 0.0
    if max_angle < MIN_RAY_ANGLE_DEG:
        raise DegenerateGeometryError(
            f"near-parallel viewing rays (max angle {max_angle:.3f} deg)")

    weights = w / w.sum()

    def residuals(x):
        pc = rot @ x + t
        if np.any(pc[:, 2] <= 0):
            return None
        return (_pixels(pc, focal, center, dist) - uv).ravel()

    x, r = _least_squares(residuals, point, np.repeat(weights, 2))
    if r is None:
        raise DegenerateGeometryError("triangulated point behind a camera")
    residual_px = float(np.sum(weights * np.linalg.norm(r.reshape(-1, 2), axis=1)))
    return x, residual_px


# ---------------------------------------------------------------------------
# temporal synchronization

@dataclass(frozen=True)
class TimeOffsetResult:
    offset_s: float
    ambiguous: bool = False


def _speed_profile(times: np.ndarray, positions: np.ndarray):
    dt = np.diff(times)
    speeds = np.linalg.norm(np.diff(positions, axis=0), axis=1) / dt
    mid = 0.5 * (times[:-1] + times[1:])
    return mid, speeds


def estimate_time_offset(times_a, positions_a, times_b, positions_b,
                         min_overlap_s: float = 1.0) -> TimeOffsetResult:
    """Offset to add to track-b timestamps so its motion aligns with track a.

    Grid search (step = half the finer sample interval) minimizing the mean
    absolute difference of linearly resampled speed profiles. Motionless
    tracks are ambiguous and yield offset 0 with the flag set.
    """
    ta = np.asarray(times_a, dtype=float)
    tb = np.asarray(times_b, dtype=float)
    pa = np.asarray(positions_a, dtype=float).reshape(-1, 3)
    pb = np.asarray(positions_b, dtype=float).reshape(-1, 3)
    if len(ta) < 3 or len(tb) < 3:
        raise ParameterError("tracks too short for offset estimation")
    if ta[-1] - ta[0] < 2.0 or tb[-1] - tb[0] < 2.0:
        raise ParameterError("tracks must span at least 2 s")

    ma, sa = _speed_profile(ta, pa)
    mb, sb = _speed_profile(tb, pb)
    if sa.std() < 1e-9 or sb.std() < 1e-9:
        return TimeOffsetResult(0.0, ambiguous=True)

    step = 0.5 * min(np.median(np.diff(ta)), np.median(np.diff(tb)))
    lo = ma[0] - mb[-1] + min_overlap_s
    hi = ma[-1] - mb[0] - min_overlap_s
    if lo > hi:
        raise NoOverlapError("tracks cannot overlap by the minimum duration")
    # grid anchored at zero so an already-aligned pair recovers exactly 0
    ks = np.arange(np.ceil(lo / step), np.floor(hi / step) + 1)
    offsets = ks * step

    best_offset = None
    best_cost = np.inf
    for off in offsets:
        t0 = max(ma[0], mb[0] + off)
        t1 = min(ma[-1], mb[-1] + off)
        if t1 - t0 < min_overlap_s:
            continue
        grid = np.linspace(t0, t1, max(8, int((t1 - t0) / step)))
        ra = np.interp(grid, ma, sa)
        rb = np.interp(grid, mb + off, sb)
        cost = float(np.mean(np.abs(ra - rb)))
        if cost < best_cost:
            best_cost = cost
            best_offset = float(off)
    if best_offset is None:
        raise NoOverlapError("no candidate offset gave sufficient overlap")
    return TimeOffsetResult(best_offset, ambiguous=False)
