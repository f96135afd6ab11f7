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
        try:
            cam_id, wfc = o["id"], o["world_from_camera"]
            q, t = wfc["q_wxyz"], wfc["t_m"]
        except KeyError as exc:
            raise ParameterError(f"camera model missing key {exc}") from None
        pose = RigidTransform(np.asarray(q, dtype=float), np.asarray(t, dtype=float),
                              from_frame=f"camera:{cam_id}", to_frame="reference")
        return cls(cam_id, intr, pose)


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

    ``dist`` is one (k1, k2, p1, p2, k3) tuple, or a (5, ...) array whose
    coefficient rows broadcast against the points.
    """
    k1, k2, p1, p2, k3 = dist
    x, y = xn[..., 0], xn[..., 1]
    r2 = x * x + y * y
    radial = 1 + k1 * r2 + k2 * r2 ** 2 + k3 * r2 ** 3
    xd = x * radial + 2 * p1 * x * y + p2 * (r2 + 2 * x * x)
    yd = y * radial + p1 * (r2 + 2 * y * y) + 2 * p2 * x * y
    return np.stack([xd, yd], axis=-1)


def _undistort(xd: np.ndarray, dist, iterations: int = 30) -> np.ndarray:
    """Invert the distortion numerically by fixed-point iteration on
    normalized coords (..., 2). Each point stops once its update is below
    1e-14, so its result does not depend on the other points."""
    xn = np.array(xd, dtype=float, copy=True)
    moving = np.ones(xn.shape[:-1], dtype=bool)
    for _ in range(iterations):
        err = np.where(moving[..., None], _distort(xn, dist) - xd, 0.0)
        xn -= err
        moving &= np.abs(err).max(axis=-1) >= 1e-14
        if not moving.any():
            break
    return xn


def _pixels(pc: np.ndarray, focal, center, dist) -> np.ndarray:
    """The projection kernel: camera-frame points (..., 3) in front of the
    camera to pixels (..., 2). ``focal`` and ``center`` broadcast against
    the pixels; ``dist`` is as for ``_distort``."""
    return focal * _distort(pc[..., :2] / pc[..., 2:3], dist) + center


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

# _SKEW[l] is the cross-product matrix of the unit vector along axis l
_SKEW = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0],
                  [0, 0, 1, 0, 0, 0, -1, 0, 0],
                  [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float)


def _rotvec_to_matrix(r: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) from rotation vectors (..., 3)."""
    angle = np.linalg.norm(r, axis=-1)[..., None, None]
    small = angle < 1e-12  # first order in r itself
    k = (r @ _SKEW).reshape(r.shape + (3,)) / np.where(small, 1.0, angle)
    return (np.eye(3) + np.where(small, 1.0, np.sin(angle)) * k
            + np.where(small, 0.0, 1 - np.cos(angle)) * (k @ k))


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


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked ``solve(a[i], b[i])``; a singular system gets a zero step."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.zeros_like(b)
        for i in range(len(a)):
            try:
                step[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass  # no cost drop: rejected by the caller
        return step


def _least_squares(residuals, x: np.ndarray, weights: np.ndarray):
    """Levenberg-Marquardt minimization of ``sum(weights * residuals(x)**2)``
    for B independent problems at once.

    ``x`` is (B, n) and ``weights`` (B, m). ``residuals`` maps candidate
    parameters (B, c, n) to residuals (B, c, m), with a row of NaN where a
    candidate's model is undefined (a point behind a camera); the
    forward-difference Jacobian (step 1e-8) of all problems is one call with
    c = n. Each problem keeps its own damping, step tries, acceptance and
    stop test, so it takes the path it would take alone: Marquardt damping
    ``lam * diag(J^T W J)`` from lam 1e-3, 12 step tries, stop at a cost drop
    < 1e-10 or after 100 iterations. An undefined trial step is rejected,
    and a problem stops where a Jacobian column would need an undefined
    point. Returns ``(x, r)``; a problem whose start point is undefined
    keeps a NaN row in ``r``.
    """
    x = np.array(x, dtype=float)
    n = x.shape[1]
    r = residuals(x[:, None])[:, 0]
    cost = np.einsum("bm,bm->b", weights, r * r)
    active = np.isfinite(cost)
    lam = np.full(len(x), 1e-3)
    eye = np.eye(n)
    for _ in range(100):
        if not active.any():
            break
        jac_t = (residuals(x[:, None] + 1e-8 * eye) - r[:, None]) / 1e-8  # (B, n, m)
        active &= np.isfinite(jac_t).all(axis=(1, 2))
        act = np.flatnonzero(active)
        jtw = jac_t[act] * weights[act, None, :]
        jtj = jtw @ jac_t[act].transpose(0, 2, 1)
        jtr = (jtw @ r[act, :, None])[..., 0]
        damping = np.diagonal(jtj, axis1=1, axis2=2) + 1e-12
        k = np.arange(len(act))  # rows of act still trying a step
        for _ in range(12):
            if not len(k):
                break
            trying = act[k]
            step = np.zeros_like(x)
            step[trying] = _solve(jtj[k] + (lam[trying, None] * damping[k])[..., None]
                                  * eye, -jtr[k])
            r_new = residuals((x + step)[:, None])[trying, 0]
            cost_new = np.einsum("bm,bm->b", weights[trying], r_new * r_new)
            better = cost_new < cost[trying]  # False where undefined (NaN)
            done = trying[better]
            drop = cost[done] - cost_new[better]
            x[done] += step[done]
            r[done] = r_new[better]
            cost[done] = cost_new[better]
            lam[done] = np.maximum(lam[done] / 10, 1e-12)
            active[done[drop < 1e-10]] = False
            k = k[~better]
            lam[act[k]] *= 10
        active[act[k]] = False
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

    def residuals(x):  # x: (1, c, 6) candidate poses of the one problem
        pc = points @ _rotvec_to_matrix(x[0, :, :3]).transpose(0, 2, 1) + x[0, :, None, 3:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = _pixels(pc, intr.focal, intr.center, intr.dist) - pixels
        r = r.reshape(len(pc), -1)
        r[(pc[..., 2] <= 1e-9).any(axis=1)] = np.nan
        return r[None]

    x, r = _least_squares(residuals, [np.concatenate([_matrix_to_rotvec(rot), t])],
                          np.ones((1, pixels.size)))
    x, r = x[0], r[0]
    if np.isnan(r).any():
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

def _camera_arrays(cameras: list[CameraModel]):
    """Stacked arrays of K cameras, each inverted once: camera-from-world
    rotations (K, 3, 3) and translations (K, 3), focal lengths (K, 2),
    principal points (K, 2) and distortion coefficients (5, K)."""
    cam_from_world = [invert(c.world_from_camera) for c in cameras]
    rot = np.array([quat_to_matrix(c.q) for c in cam_from_world])
    t = np.array([c.t for c in cam_from_world])
    focal = np.array([c.intrinsics.focal for c in cameras])
    center = np.array([c.intrinsics.center for c in cameras])
    dist = np.array([c.intrinsics.dist for c in cameras]).T
    return rot, t, focal, center, dist


def triangulate_batch(pixels, confidences, cameras: list[CameraModel]
                      ) -> tuple[np.ndarray, np.ndarray, list]:
    """Triangulate P points at once, each seen through the same K camera slots.

    ``pixels`` is (P, K, 2) and ``confidences`` (P, K); slot k of every point
    is an observation by ``cameras[k]`` (one camera may fill several slots).
    Observations with confidence below ``CONFIDENCE_FLOOR`` are discarded.
    Each point gets a confidence-weighted linear (DLT) estimate, all from one
    stacked SVD, a check on the widest angle between its viewing rays, and a
    reprojection refinement, all points in one stacked LM solve.

    Returns ``(points (P, 3), residual_px (P,), errors)``. ``errors[p]`` is
    None, or the ``InsufficientViewsError`` / ``DegenerateGeometryError``
    that ``triangulate`` raises for point p, whose rows are then zero.
    ``residual_px`` is the confidence-weighted mean reprojection error.
    """
    conf = np.asarray(confidences, dtype=float)
    conf = conf.reshape(len(conf), len(cameras))
    uv = np.asarray(pixels, dtype=float).reshape(conf.shape + (2,))
    used = conf >= CONFIDENCE_FLOOR
    n_points = len(conf)
    points = np.zeros((n_points, 3))
    residual_px = np.zeros(n_points)
    errors: list = [None] * n_points

    # distinct cameras among each point's used slots
    _, slot_camera = np.unique([c.id for c in cameras], return_inverse=True)
    seen = used[:, :, None] & (slot_camera[:, None] == np.arange(len(cameras)))
    n_views = seen.any(axis=1).sum(axis=1)
    for i in np.flatnonzero(n_views < 2):
        errors[i] = InsufficientViewsError(
            f"need observations from >= 2 cameras, got {n_views[i]}")
    sel = np.flatnonzero(n_views >= 2)
    if not len(sel):
        return points, residual_px, errors

    rot, t, focal, center, dist = _camera_arrays(cameras)
    used, w = used[sel], np.where(used[sel], conf[sel], 0.0)
    uv = np.where(used[..., None], uv[sel], center)  # discarded slots: on axis

    # DLT rows w * (x * P[2] - P[0]), w * (y * P[2] - P[1]) with P = [R|t]
    xn = _undistort((uv - center) / focal, dist)
    p = np.concatenate([rot, t[:, :, None]], axis=2)
    a = w[..., None, None] * (xn[..., None] * p[:, 2:3, :] - p[:, :2, :])
    h = np.linalg.svd(a.reshape(len(sel), -1, 4))[2][:, -1]
    finite = np.abs(h[:, 3]) >= 1e-12
    for i in sel[~finite]:
        errors[i] = DegenerateGeometryError("triangulated point at infinity")
    sel, used, w, uv, h = sel[finite], used[finite], w[finite], uv[finite], h[finite]
    start = h[:, :3] / h[:, 3:]

    # widest angle between two used viewing rays through each point
    d = start[:, None, :] - np.array([c.world_from_camera.t for c in cameras])
    nd = np.linalg.norm(d, axis=2)
    ray = used & (nd > 1e-12)
    d = d / np.where(ray, nd, 1.0)[..., None]
    pair = ray[:, :, None] & ray[:, None, :] & np.triu(np.ones(ray.shape[1:] * 2, bool), 1)
    cos = np.where(pair, np.abs(d @ d.transpose(0, 2, 1)), np.inf).min(axis=(1, 2))
    max_angle = np.where(np.isfinite(cos),
                         np.degrees(np.arccos(np.clip(cos, -1, 1))), 0.0)
    wide = max_angle >= MIN_RAY_ANGLE_DEG
    for i, angle in zip(sel[~wide], max_angle[~wide]):
        errors[i] = DegenerateGeometryError(
            f"near-parallel viewing rays (max angle {angle:.3f} deg)")
    sel, used, w, uv, start = sel[wide], used[wide], w[wide], uv[wide], start[wide]

    weights = w / w.sum(axis=1, keepdims=True)

    def residuals(x):  # x: (points, c, 3) candidate positions
        pc = np.einsum("kij,pcj->pcki", rot, x) + t
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = _pixels(pc, focal, center, dist) - uv[:, None]
        r = np.where(used[:, None, :, None], r, 0.0).reshape(x.shape[:2] + (2 * len(cameras),))
        r[((pc[..., 2] <= 0) & used[:, None]).any(axis=2)] = np.nan
        return r

    x, r = _least_squares(residuals, start, np.repeat(weights, 2, axis=1))
    behind = np.isnan(r).any(axis=1)
    for i in sel[behind]:
        errors[i] = DegenerateGeometryError("triangulated point behind a camera")
    ok = sel[~behind]
    points[ok] = x[~behind]
    residual_px[ok] = np.sum(weights * np.linalg.norm(r.reshape(uv.shape), axis=2),
                             axis=1)[~behind]
    return points, residual_px, errors


def triangulate(observations: list[PixelObservation],
                cameras: list[CameraModel]) -> tuple[np.ndarray, float]:
    """Confidence-weighted linear triangulation plus reprojection refinement
    of one point: ``triangulate_batch`` with one observation per slot.

    Observations with confidence below ``CONFIDENCE_FLOOR`` are discarded;
    a camera id missing from ``cameras`` raises ``UnknownEntityError``.
    Returns ``(point_xyz, mean weighted reprojection residual px)``.
    """
    by_id = {c.id: c for c in cameras}
    used = [o for o in observations if o.confidence >= CONFIDENCE_FLOOR]
    unknown = sorted({o.camera_id for o in used} - by_id.keys())
    if unknown:
        raise UnknownEntityError(f"unknown camera id {unknown[0]!r}")
    points, residual_px, errors = triangulate_batch(
        [[(o.u, o.v) for o in used]], [[o.confidence for o in used]],
        [by_id[o.camera_id] for o in used])
    if errors[0] is not None:
        raise errors[0]
    return points[0], float(residual_px[0])


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
