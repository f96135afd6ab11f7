"""Pinhole camera model, PnP pose recovery, multi-view triangulation, and
temporal-offset estimation between tracks."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (BehindCameraError, ConvergenceError, DegenerateGeometryError,
                     InsufficientCorrespondencesError, InsufficientViewsError,
                     NoOverlapError, ParameterError, UnknownEntityError,
                     _repeated, finite_number, reading)
from .geometry import (RigidTransform, _as_array, _freeze, _least_squares, _solve,
                       invert, matrix_to_quat, transform_from_matrix)

CONFIDENCE_FLOOR = 0.1  # observations below this weight are discarded
MIN_RAY_ANGLE_DEG = 0.25  # widest ray pair below this is a degenerate triangulation
MIN_OVERLAP_S = 1.0  # estimate_time_offset compares at least this much motion


def _camera_id(value) -> str:
    """``value``, which must be a string to be a camera id."""
    if not isinstance(value, str):
        raise ParameterError(f"camera id must be a string, got {value!r}")
    return value


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
        real = (int, float)
        for name, kinds in (("fx", real), ("fy", real), ("cx", real),
                            ("cy", real), ("width", int), ("height", int)):
            if not finite_number(getattr(self, name), kinds):
                want = "an integer" if kinds is int else "a finite number"
                raise ParameterError(f"{name} must be {want}, "
                                     f"got {getattr(self, name)!r}")
        if self.fx <= 0 or self.fy <= 0:
            raise ParameterError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ParameterError("principal point must lie inside the image")
        dist = _as_array(self.dist, "distortion", (5,))
        _freeze(self, dist=tuple(dist.tolist()),
                focal=np.array((self.fx, self.fy), dtype=float),
                center=np.array((self.cx, self.cy), dtype=float))

    @classmethod
    def from_dict(cls, o: dict) -> "CameraIntrinsics":
        """Intrinsics from the JSON keys fx, fy, cx, cy, width, height, dist."""
        with reading("camera intrinsics", "camera intrinsics is not a JSON object"):
            return cls(fx=o["fx"], fy=o["fy"], cx=o["cx"], cy=o["cy"],
                       width=o["width"], height=o["height"], dist=o["dist"])

    def to_dict(self) -> dict:
        """The JSON object ``from_dict`` reads."""
        return {"width": self.width, "height": self.height, "fx": self.fx,
                "fy": self.fy, "cx": self.cx, "cy": self.cy,
                "dist": list(self.dist)}


@dataclass(frozen=True)
class CameraModel:
    id: str
    intrinsics: CameraIntrinsics
    world_from_camera: RigidTransform
    cam_from_world: RigidTransform = field(init=False, repr=False, compare=False)
    cam_from_world_rot: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _camera_id(self.id)
        cam_from_world = invert(self.world_from_camera)
        _freeze(self, cam_from_world=cam_from_world,
                cam_from_world_rot=cam_from_world.rotation)

    def to_json(self) -> str:
        return json.dumps({"id": self.id, **self.intrinsics.to_dict(),
                           "world_from_camera": self.world_from_camera.to_dict()},
                          indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CameraModel":
        o = json.loads(text)
        intr = CameraIntrinsics.from_dict(o)
        with reading("camera model", "camera model 'world_from_camera': {exc}"):
            cam_id, wfc = o["id"], o["world_from_camera"]
            try:
                pose = RigidTransform.from_dict(wfc, f"camera:{cam_id}", "reference")
            except ParameterError as exc:
                raise ParameterError(f"camera model 'world_from_camera': {exc}") from None
        return cls(cam_id, intr, pose)


@dataclass(frozen=True)
class PixelObservation:
    camera_id: str
    u: float
    v: float
    confidence: float = 1.0

    def __post_init__(self):
        for name in ("u", "v", "confidence"):
            if not finite_number(value := getattr(self, name), numbers.Real):
                raise ParameterError(f"{name} must be a finite number, got {value!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ParameterError("confidence must be in [0, 1]")


def _cameras_by_id(cameras: list[CameraModel], ids) -> list[CameraModel]:
    """The camera of each id in ``ids``. Two cameras with one id raise
    ParameterError; the first id that no camera has, UnknownEntityError."""
    by_id = {c.id: c for c in cameras}
    if len(by_id) < len(cameras):
        raise ParameterError(f"two cameras with id "
                             f"{_repeated(c.id for c in cameras)!r}")
    for cam_id in ids:
        if cam_id not in by_id:
            raise UnknownEntityError(f"unknown camera id {cam_id!r}")
    return [by_id[cam_id] for cam_id in ids]


# ---------------------------------------------------------------------------
# projection

# the rows of (k1, k2, p1, p2, k3) and the factors that make _dist_terms
_TERM_ROWS = np.array([0, 1, 4, 2, 3, 0, 1, 4, 2, 3, 2, 3])
_TERM_FACTORS = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 4.0, 6.0, 2.0, 2.0, 6.0, 6.0])


def _dist_terms(dist, shape: tuple) -> tuple:
    """The coefficients ``_brown_conrady`` takes for points of ``shape``,
    formed once per call: k1, k2, k3, p1, p2 and the products 2 k1, 4 k2,
    6 k3, 2 p1, 2 p2, 6 p1 and 6 p2. ``dist`` is one (k1, k2, p1, p2, k3)
    tuple, or a (5, ...) array whose coefficient rows broadcast against the
    points; such rows are spread to ``shape``, since numpy runs a loop over
    equal shapes several times faster than one over a broadcast row."""
    if not isinstance(dist, np.ndarray):
        k1, k2, p1, p2, k3 = dist
        return (k1, k2, k3, p1, p2,
                2 * k1, 4 * k2, 6 * k3, 2 * p1, 2 * p2, 6 * p1, 6 * p2)
    rows = dist[_TERM_ROWS] * _TERM_FACTORS.reshape((12,) + (1,) * (dist.ndim - 1))
    if rows.shape[1:] != shape:
        rows = np.broadcast_to(rows.reshape((12,) + (1,) * (len(shape) - dist.ndim + 1)
                                            + dist.shape[1:]), (12,) + shape).copy()
    return tuple(rows)


def _brown_conrady(x, y, terms, jacobian: bool = True) -> tuple:
    """The distortion kernel: Brown-Conrady distortion ``(xd, yd)`` of the
    normalized coords ``(x, y)`` and, with ``jacobian``, the entries
    ``(a, b, d)`` of its symmetric derivative ``[[a, b], [b, d]]``.
    ``terms`` is ``_dist_terms(dist, x.shape)``. This is the one place the
    polynomial and its derivative are written."""
    k1, k2, k3, p1, p2, k1_2, k2_4, k3_6, p1_2, p2_2, p1_6, p2_6 = terms
    r2 = x * x + y * y
    radial = 1 + k1 * r2 + k2 * r2 ** 2 + k3 * r2 ** 3
    xd = x * radial + p1_2 * x * y + p2 * (r2 + 2 * x * x)
    yd = y * radial + p1 * (r2 + 2 * y * y) + p2_2 * x * y
    if not jacobian:
        return xd, yd
    radial = 1 + r2 * (k1 + r2 * (k2 + r2 * k3))  # Horner form
    g = k1_2 + r2 * (k2_4 + k3_6 * r2)  # twice d radial / d r2
    a = radial + g * x * x + p1_2 * y + p2_6 * x
    b = g * x * y + p1_2 * x + p2_2 * y
    d = radial + g * y * y + p1_6 * y + p2_2 * x
    return xd, yd, a, b, d


def _distort(xn: np.ndarray, dist) -> np.ndarray:
    """Apply Brown-Conrady distortion to normalized coords (..., 2); ``dist``
    is as for ``_dist_terms``."""
    terms = _dist_terms(dist, xn.shape[:-1])
    return np.stack(_brown_conrady(xn[..., 0], xn[..., 1], terms, jacobian=False),
                    axis=-1)


def _undistort(xd: np.ndarray, dist) -> np.ndarray:
    """Invert the distortion by at most 30 Newton steps on normalized coords
    (..., 2), starting from the distorted coords. Each point stops once its
    step is below 1e-14, so its result does not depend on the other points."""
    xd = np.asarray(xd, dtype=float)
    terms = _dist_terms(dist, xd.shape[:-1])
    u, v = xd[..., 0], xd[..., 1]
    x, y = u, v
    moving = np.ones(u.shape, dtype=bool)
    for _ in range(30):
        xe, ye, a, b, d = _brown_conrady(x, y, terms)
        ex, ey = xe - u, ye - v
        det = a * d - b * b
        sx = np.where(moving, (d * ex - b * ey) / det, 0.0)
        sy = np.where(moving, (a * ey - b * ex) / det, 0.0)
        x, y = x - sx, y - sy
        moving &= np.maximum(np.abs(sx), np.abs(sy)) >= 1e-14
        if not moving.any():
            break
    return np.stack([x, y], axis=-1)


def _pixels(pc: np.ndarray, focal, center, dist) -> np.ndarray:
    """The projection kernel: camera-frame points (..., 3) in front of the
    camera to pixels (..., 2). ``focal`` and ``center`` broadcast against
    the pixels; ``dist`` is as for ``_dist_terms``."""
    return focal * _distort(pc[..., :2] / pc[..., 2:3], dist) + center


def _normalized(pixels: np.ndarray, focal, center, dist) -> np.ndarray:
    """The inverse of ``_pixels``: pixels (..., 2) to undistorted normalized
    coords (..., 2), the ray (x, y, 1) of each pixel in the camera frame.
    Arguments broadcast as for ``_pixels``."""
    return _undistort((pixels - center) / focal, dist)


def _pixels_with_jacobian(pc: np.ndarray, focal, center, dist):
    """``_pixels`` and its derivative (..., 2, 3) with respect to the
    camera-frame points, ``diag(focal) . D . d(x/z, y/z)/d(x, y, z)`` with D
    the distortion's derivative, from one ``_brown_conrady`` call."""
    z = pc[..., 2:3]
    xn = pc[..., :2] / z
    x, y = xn[..., 0].copy(), xn[..., 1].copy()  # contiguous runs faster
    xd, yd, a, b, d = _brown_conrady(x, y, _dist_terms(dist, x.shape))
    jac = np.empty(a.shape + (2, 2))
    jac[..., 0, 0] = a
    jac[..., 0, 1] = jac[..., 1, 0] = b
    jac[..., 1, 1] = d
    fd = focal[..., :, None] * jac / z[..., None]
    return (focal * np.stack([xd, yd], axis=-1) + center,
            np.concatenate([fd, -(fd @ xn[..., None])], axis=-1))


def project_points(cam: CameraModel, points_world: np.ndarray) -> np.ndarray:
    """Project world points (N, 3) to pixels (N, 2)."""
    pc = cam.cam_from_world.apply_points(_as_array(points_world, "points", (None, 3)))
    if np.any(pc[:, 2] <= 0):
        raise BehindCameraError("point(s) with non-positive depth")
    intr = cam.intrinsics
    return _pixels(pc, intr.focal, intr.center, intr.dist)


def project(cam: CameraModel, point_world) -> np.ndarray:
    """Project one world point to a pixel (u, v)."""
    return project_points(cam, [point_world])[0]


def unproject(cam: CameraModel, pixel, depth_m: float) -> np.ndarray:
    """Lift a pixel (u, v) to the world point at a finite camera-frame depth."""
    if not finite_number(depth_m, numbers.Real):
        raise ParameterError(f"depth must be a finite number, got {depth_m!r}")
    if depth_m <= 0:
        raise BehindCameraError("depth must be positive")
    intr = cam.intrinsics
    xn = _normalized(_as_array(pixel, "pixel", (2,)), intr.focal, intr.center, intr.dist)
    pc = np.array([xn[0] * depth_m, xn[1] * depth_m, depth_m])
    return cam.world_from_camera.apply_points(pc.reshape(1, 3))[0]


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


def _right_jacobian(r: np.ndarray) -> np.ndarray:
    """Right Jacobian (3, 3) of SO(3) at the rotation vector ``r``: the
    rotation of ``r + dr`` is that of ``r`` times the one of
    ``_right_jacobian(r) @ dr``, to first order in dr."""
    angle = np.linalg.norm(r)
    k = (r @ _SKEW).reshape(3, 3)
    if angle < 1e-12:  # first order in r itself
        return np.eye(3) - 0.5 * k
    half = np.sin(0.5 * angle) / angle
    return (np.eye(3) - 2 * half * half * k
            + (angle - np.sin(angle)) / angle ** 3 * (k @ k))


def _matrix_to_rotvec(m: np.ndarray) -> np.ndarray:
    q = matrix_to_quat(m)
    w = np.clip(q[0], -1.0, 1.0)
    angle = 2.0 * np.arccos(w)
    s = np.sqrt(max(0.0, 1.0 - w * w))
    if s < 1e-12:
        return np.zeros(3)
    return angle * q[1:] / s


def _dlt_pose(points: np.ndarray, xn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear camera pose [R|t] from world points centred on their centroid
    and their normalized coords. The DLT runs on the points scaled by k to a
    mean distance of sqrt(3) (Hartley, "In defense of the eight-point
    algorithm", PAMI 1997); its [R|t'] maps back as t = t' / k."""
    spread = np.linalg.norm(points, axis=1).mean()
    if not spread > 0:
        raise DegenerateGeometryError("DLT system is rank-deficient")
    k = np.sqrt(3) / spread
    X = np.column_stack([k * points, np.ones(len(points))])  # homogeneous points
    a = np.zeros((len(points), 2, 12))  # the u row and the v row of each point
    a[:, 0, 0:4] = X
    a[:, 1, 4:8] = X
    a[:, :, 8:12] = -xn[:, :, None] * X[:, None]
    _, sv, vt = np.linalg.svd(a.reshape(-1, 12))
    if sv[-2] <= 1e-12 * sv[0]:
        raise DegenerateGeometryError("DLT system is rank-deficient")
    # the null vector's sign drops out: R takes det +1 and t the same scale
    p = vt[-1].reshape(3, 4)
    u, s, vt3 = np.linalg.svd(p[:, :3])
    scale = s.mean()
    rot = u @ vt3
    if np.linalg.det(rot) < 0:
        rot = -rot
        scale = -scale
    return rot, p[:, 3] / (scale * k)


def solve_pnp(points, pixels, intr: CameraIntrinsics) -> tuple[RigidTransform, float]:
    """Camera pose from 3D-2D correspondences: DLT init + damped
    least-squares refinement of the pixel reprojection error.

    Returns ``(world_from_camera, mean reprojection error px)``. A DLT start
    that puts a point behind the camera, or a refinement that ends with a mean
    error above a quarter of the image size, raises ConvergenceError carrying
    the pose it reached.
    """
    points = _as_array(points, "PnP points", (None, 3))
    pixels = _as_array(pixels, "PnP pixels", (None, 2))
    if len(points) != len(pixels):
        raise InsufficientCorrespondencesError("points/pixels length mismatch")
    if len(points) < 6:
        raise InsufficientCorrespondencesError(
            f"PnP needs >= 6 correspondences, got {len(points)}")

    # DLT and LM see the points centred on their centroid mu, so their
    # conditioning does not depend on how far the world origin lies; the
    # camera-from-world translation is then t - R mu
    mu = points.mean(axis=0)
    points = points - mu

    def pose(cam_rot, t):
        return invert(transform_from_matrix(
            cam_rot, t - cam_rot @ mu, from_frame="world", to_frame="camera"))

    xn = _normalized(pixels, intr.focal, intr.center, intr.dist)
    rot, t = _dlt_pose(points, xn)
    if (points @ rot[2]).min() + t[2] <= 1e-9:  # the LM's model is undefined there
        raise ConvergenceError("PnP DLT start puts points behind the camera",
                               last_iterate=pose(rot, t))

    def model(x, rows):  # x: (1, 6) rotation vector and translation of the one problem
        cam_rot = _rotvec_to_matrix(x[0, :3])
        pc = points @ cam_rot.T + x[0, 3:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            uv, d_pc = _pixels_with_jacobian(pc, intr.focal, intr.center,
                                             intr.dist)  # d_pc: (N, 2, 3)
            r = (uv - pixels).reshape(1, -1)
        if (pc[:, 2] <= 1e-9).any():
            r[:] = np.nan
        # d pc / d rotvec = -R [X]x J_r(rotvec); d pc / d t = I
        d_rot = -(cam_rot @ (points @ _SKEW).reshape(-1, 3, 3)) @ _right_jacobian(x[0, :3])
        jac = np.concatenate([d_pc @ d_rot, d_pc], axis=-1).reshape(1, -1, 6)
        return r, jac

    x, r = _least_squares(model, [np.concatenate([_matrix_to_rotvec(rot), t])],
                          np.ones((1, pixels.size)))
    x, r = x[0], r[0]
    mean_px = float(np.mean(np.linalg.norm(r.reshape(-1, 2), axis=1)))
    world_from_camera = pose(_rotvec_to_matrix(x[:3]), x[3:])
    if not mean_px <= 0.25 * max(intr.width, intr.height):  # also NaN or inf
        raise ConvergenceError(
            f"PnP refinement did not converge (mean error {mean_px:.1f} px)",
            last_iterate=world_from_camera)
    return world_from_camera, mean_px


# ---------------------------------------------------------------------------
# triangulation

def _camera_arrays(cameras: list[CameraModel]):
    """Stacked arrays of K cameras: camera-from-world rotations (K, 3, 3) and
    translations (K, 3), focal lengths (K, 2), principal points (K, 2) and
    distortion coefficients (5, K)."""
    rot = np.array([c.cam_from_world_rot for c in cameras])
    t = np.array([c.cam_from_world.t for c in cameras])
    focal = np.array([c.intrinsics.focal for c in cameras])
    center = np.array([c.intrinsics.center for c in cameras])
    dist = np.array([c.intrinsics.dist for c in cameras]).T
    return rot, t, focal, center, dist


def triangulate_batch(pixels, confidences, cameras: list[CameraModel]
                      ) -> tuple[np.ndarray, np.ndarray, list]:
    """Triangulate P points at once, each seen through the same K camera slots.

    ``pixels`` is (P, K, 2) and ``confidences`` (P, K), all finite; slot k of
    every point is an observation by ``cameras[k]`` (one camera may fill
    several slots).
    Observations with confidence below ``CONFIDENCE_FLOOR`` are discarded.
    Each point gets a confidence-weighted linear (DLT) seed, all from one
    stacked 3x3 solve of the inhomogeneous DLT's normal equations on
    first-order rays, a check on the widest angle between its viewing rays,
    and a reprojection refinement on the full distorted model, all points
    in one stacked LM solve.

    Returns ``(points (P, 3), residual_px (P,), errors)``. ``errors[p]`` is
    None, or the ``InsufficientViewsError`` / ``DegenerateGeometryError``
    that ``triangulate`` raises for point p, whose rows are then zero.
    ``residual_px`` is the confidence-weighted mean reprojection error.
    """
    uv = _as_array(pixels, "triangulation pixels", (None, len(cameras), 2))
    conf = _as_array(confidences, "triangulation confidences", uv.shape[:2])
    used = conf >= CONFIDENCE_FLOOR
    n_points = len(conf)
    points = np.zeros((n_points, 3))
    residual_px = np.zeros(n_points)
    errors: list = [None] * n_points

    # distinct cameras among each point's used slots
    ids = [c.id for c in cameras]
    if len(set(ids)) == len(ids):
        n_views = used.sum(axis=1)
    else:
        _, slot_camera = np.unique(ids, return_inverse=True)
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

    # the seed solves the normal equations of the inhomogeneous DLT, rows
    # w * (x * P[2] - P[0]), w * (y * P[2] - P[1]) with P = [R|t] and the
    # point (X, 1). Its rays take one fixed-point step of the inverse
    # distortion, not _normalized's Newton loop: the LM refines the seed on
    # the full model.
    xd = (uv - center) / focal
    xn = 2 * xd - _distort(xd, dist)
    p = np.concatenate([rot, t[:, :, None]], axis=2)
    a = (w[..., None, None] * (xn[..., None] * p[:, 2:3, :] - p[:, :2, :])
         ).reshape(len(sel), -1, 4)
    ata = a.transpose(0, 2, 1) @ a
    start = _solve(ata[:, :3, :3], -ata[:, :3, 3], singular=np.nan)
    # the unit vector along (X, 1) has a 4th entry of at least 1e-12
    finite = np.einsum("pi,pi->p", start, start) < 1e24  # False where NaN
    for i in sel[~finite]:
        errors[i] = DegenerateGeometryError("triangulated point at infinity")
    sel, used, w, uv, start = sel[finite], used[finite], w[finite], uv[finite], start[finite]

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

    every_slot = used.all()  # then the masks of discarded slots are no-ops

    def model(x, rows):  # x: (len(rows), 3) candidate positions
        pc = np.einsum("kij,pj->pki", rot, x) + t
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            pixels, d_pc = _pixels_with_jacobian(pc, focal, center, dist)
            r = pixels - uv[rows]
            jac = d_pc @ rot
        behind = pc[..., 2] <= 0
        if not every_slot:
            u = used[rows]
            r = np.where(u[..., None], r, 0.0)
            jac = np.where(u[..., None, None], jac, 0.0)
            behind &= u
        r = r.reshape(len(x), 2 * len(cameras))
        r[behind.any(axis=1)] = np.nan
        return r, jac.reshape(len(x), 2 * len(cameras), 3)

    x, r = _least_squares(model, start, np.repeat(weights, 2, axis=1))
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
    used = [o for o in observations if o.confidence >= CONFIDENCE_FLOOR]
    points, residual_px, errors = triangulate_batch(
        np.reshape([(o.u, o.v) for o in used], (1, len(used), 2)),
        np.reshape([o.confidence for o in used], (1, len(used))),
        _cameras_by_id(cameras, [o.camera_id for o in used]))
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


def estimate_time_offset(times_a, positions_a, times_b,
                         positions_b) -> TimeOffsetResult:
    """Offset to add to track-b timestamps so its motion aligns with track a.

    Grid search (step = half the finer sample interval) minimizing the mean
    absolute difference of linearly resampled speed profiles. Motionless
    tracks are ambiguous and yield offset 0 with the flag set; times that are
    not strictly increasing, non-finite times or positions, and a track
    without one position per time raise ParameterError.
    """
    ta = _as_array(times_a, "track times", (None,))
    tb = _as_array(times_b, "track times", (None,))
    pa = _as_array(positions_a, "track positions", (None, 3))
    pb = _as_array(positions_b, "track positions", (None, 3))
    if len(ta) != len(pa) or len(tb) != len(pb):
        raise ParameterError("each track needs one position per time")
    if len(ta) < 3 or len(tb) < 3:
        raise ParameterError("tracks too short for offset estimation")
    if not ((np.diff(ta) > 0).all() and (np.diff(tb) > 0).all()):
        raise ParameterError("timestamps must be strictly increasing")
    if ta[-1] - ta[0] < 2.0 or tb[-1] - tb[0] < 2.0:
        raise ParameterError("tracks must span at least 2 s")

    ma, sa = _speed_profile(ta, pa)
    mb, sb = _speed_profile(tb, pb)
    if sa.std() < 1e-9 or sb.std() < 1e-9:
        return TimeOffsetResult(0.0, ambiguous=True)

    step = 0.5 * min(np.median(np.diff(ta)), np.median(np.diff(tb)))
    lo = ma[0] - mb[-1] + MIN_OVERLAP_S
    hi = ma[-1] - mb[0] - MIN_OVERLAP_S
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
        if t1 - t0 < MIN_OVERLAP_S:
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
