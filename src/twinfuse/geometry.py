"""Rigid-geometry value types and optimal fitting primitives.

Conventions:
  - Points are float64 arrays of shape (3,) or (N, 3), in meters.
  - Quaternions are Hamilton convention, stored (w, x, y, z), unit norm.
  - ``RigidTransform`` maps points from ``from_frame`` into ``to_frame`` via
    ``p_to = R @ p_from + t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (MALFORMED, DegenerateGeometryError, FrameMismatchError,
                     InsufficientCorrespondencesError, ParameterError, non_numbers)

RANSAC_CONFIDENCE = 0.99999
RANSAC_THRESHOLD_M = 0.01
RANSAC_MAX_DRAWS = 1000
RANSAC_SEED = 0


# ---------------------------------------------------------------------------
# quaternion helpers

def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("cannot normalize zero/non-finite quaternion")
    return q / n


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Rotation matrix to unit quaternion (w >= 0)."""
    m = np.asarray(m, dtype=float)
    tr = np.trace(m)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        q = np.array([0.25 * s,
                      (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s,
                      (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
        q = np.array([(m[2, 1] - m[1, 2]) / s,
                      0.25 * s,
                      (m[0, 1] + m[1, 0]) / s,
                      (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
        q = np.array([(m[0, 2] - m[2, 0]) / s,
                      (m[0, 1] + m[1, 0]) / s,
                      0.25 * s,
                      (m[1, 2] + m[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
        q = np.array([(m[1, 0] - m[0, 1]) / s,
                      (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s,
                      0.25 * s])
    q = quat_normalize(q)
    if q[0] < 0:
        q = -q
    return q


def quat_from_axis_angle(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle_rad
    return np.concatenate([[np.cos(half)], np.sin(half) * axis])


def quat_slerp(qa: np.ndarray, qb: np.ndarray, alpha: float) -> np.ndarray:
    """Spherical linear interpolation along the shorter arc."""
    qa = quat_normalize(qa)
    qb = quat_normalize(qb)
    dot = float(np.dot(qa, qb))
    if dot < 0.0:
        qb = -qb
        dot = -dot
    if dot > 1.0 - 1e-12:
        return quat_normalize(qa + alpha * (qb - qa))
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    s = np.sin(theta)
    return quat_normalize((np.sin((1 - alpha) * theta) / s) * qa
                          + (np.sin(alpha * theta) / s) * qb)


def rotation_angle_deg(qa: np.ndarray, qb: np.ndarray) -> float:
    """Geodesic angle between two rotations, in degrees."""
    d = quat_multiply(quat_conjugate(quat_normalize(qa)), quat_normalize(qb))
    w = min(1.0, abs(float(d[0])))
    return float(np.degrees(2.0 * np.arccos(w)))


# ---------------------------------------------------------------------------
# value types

def _shaped(value, what: str, shape: tuple, dtype=float) -> np.ndarray:
    """The shape half of the array rule: ``value`` as an array of ``dtype``
    and exactly ``shape``, where a None entry takes any length. Only a
    (None, width) shape reads one (width,) row as (1, width) and an empty
    input as (0, width); nothing else is reshaped. A value that does not
    convert, and any other shape, raise ParameterError naming ``what``."""
    try:
        a = np.asarray(value, dtype=dtype)
    except MALFORMED as exc:
        raise ParameterError(f"{what}: {exc}") from None
    if len(shape) == 2 and shape[0] is None and a.ndim == 1 and len(a) in (0, shape[1]):
        a = a[None] if len(a) else np.empty((0, shape[1]), dtype)
    if a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape)):
        dims = str(tuple("N" if n is None else n for n in shape)).replace("'", "")
        raise ParameterError(f"{what} must be {'an' if shape[0] is None else 'a'} "
                             f"{dims} array, got shape {a.shape}")
    return a


def _as_array(value, what: str, shape: tuple) -> np.ndarray:
    """The one array rule: ``_shaped(value, what, shape)``, a float array,
    with every value finite, or ParameterError naming ``what``."""
    a = _shaped(value, what, shape)
    if not np.isfinite(a).all():
        raise ParameterError(f"{what} must be finite")
    return a


def _freeze(obj, **fields) -> None:
    """Set ``fields`` on the frozen dataclass ``obj``: an ndarray, alone or as
    a dict value, as a read-only copy, so the object and its caller never
    share memory; any other value as given."""
    def owned(value):
        if isinstance(value, np.ndarray):
            value = np.array(value)
            value.setflags(write=False)
        return value
    for name, value in fields.items():
        if isinstance(value, dict):
            value = {k: owned(v) for k, v in value.items()}
        object.__setattr__(obj, name, owned(value))


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) element: unit quaternion (w,x,y,z) plus translation in meters."""

    q: np.ndarray
    t: np.ndarray
    from_frame: str = "src"
    to_frame: str = "dst"

    def __post_init__(self):
        q, t = np.asarray(self.q, dtype=float), np.asarray(self.t, dtype=float)
        for name, a, n in (("q", q, 4), ("t", t, 3)):
            if a.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {a.shape}")
        if not abs(q @ q - 1.0) < 1e-15:  # unit to rounding is kept as given
            q = quat_normalize(q)
        if not np.all(np.isfinite(t)):
            raise ValueError("non-finite translation")
        _freeze(self, q=q, t=t)

    @property
    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.t

    def with_frames(self, from_frame: str, to_frame: str) -> "RigidTransform":
        return replace(self, from_frame=from_frame, to_frame=to_frame)

    def to_dict(self) -> dict:
        """The pose object of every twinfuse file; frames are the caller's."""
        return {"t_m": [float(x) for x in self.t],
                "q_wxyz": [float(x) for x in self.q]}

    @classmethod
    def from_dict(cls, o, from_frame: str, to_frame: str) -> "RigidTransform":
        """Pose from the object ``to_dict`` writes, exactly. A missing key
        raises KeyError, and a malformed value one of ``errors.MALFORMED``,
        for the caller to name in its own error: a value that does not
        convert, then an item that ``errors.non_numbers`` refuses."""
        pose = cls(o["q_wxyz"], o["t_m"], from_frame, to_frame)
        for key in ("q_wxyz", "t_m"):
            if non_numbers(o[key]):
                raise ValueError(f"{key} must be finite numbers, got {o[key]!r}")
        return pose


def transform_from_matrix(rot: np.ndarray, t: np.ndarray,
                          from_frame: str = "src", to_frame: str = "dst") -> RigidTransform:
    return RigidTransform(matrix_to_quat(rot), np.asarray(t, dtype=float),
                          from_frame=from_frame, to_frame=to_frame)


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """a after b: maps b.from_frame into a.to_frame."""
    if a.from_frame != b.to_frame:
        raise FrameMismatchError(
            f"cannot compose: a maps {a.from_frame!r}->{a.to_frame!r}, "
            f"b maps {b.from_frame!r}->{b.to_frame!r}")
    t = quat_to_matrix(a.q) @ b.t + a.t
    return RigidTransform(quat_multiply(a.q, b.q), t,
                          from_frame=b.from_frame, to_frame=a.to_frame)


def invert(t: RigidTransform) -> RigidTransform:
    qi = quat_conjugate(t.q)
    ti = -(quat_to_matrix(qi) @ t.t)
    return RigidTransform(qi, ti, from_frame=t.to_frame, to_frame=t.from_frame)


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3D points in meters, with optional uint8 RGB colors."""

    points: np.ndarray
    colors: np.ndarray | None = None
    frame: str = "world"

    def __post_init__(self):
        pts = _as_array(self.points, "cloud points", (None, 3))
        cols = self.colors
        if cols is not None:
            cols = np.asarray(cols, dtype=np.uint8)
            if cols.shape != pts.shape:
                raise ParameterError(f"colors must have the points' shape {pts.shape}, "
                                     f"got {cols.shape}")
        _freeze(self, points=pts, colors=cols)

    def __len__(self) -> int:
        return len(self.points)


def apply(t: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Rigidly move a cloud from t.from_frame into t.to_frame."""
    if cloud.frame != t.from_frame:
        raise FrameMismatchError(
            f"cloud is in frame {cloud.frame!r} but transform maps from {t.from_frame!r}")
    return PointCloud(t.apply_points(cloud.points), colors=cloud.colors, frame=t.to_frame)


# ---------------------------------------------------------------------------
# fitting

def _collinear(centred: np.ndarray) -> bool:
    """Whether centred (N, 3) points lie on one line, to rounding."""
    sv = np.linalg.svd(centred, compute_uv=False)
    return sv[1] <= max(1e-12, 1e-9 * sv[0])


def kabsch(src, dst, from_frame: str = "src", to_frame: str = "dst") -> RigidTransform:
    """Least-squares rigid alignment of corresponding point sets.

    Returns the proper rigid transform T minimizing sum |T(src_i) - dst_i|^2.
    Reflections are excluded via the SVD determinant correction.
    """
    src = _as_array(src, "points", (None, 3))
    dst = _as_array(dst, "points", (None, 3))
    if src.shape != dst.shape:
        raise InsufficientCorrespondencesError(
            f"src/dst length mismatch: {len(src)} vs {len(dst)}")
    if len(src) < 3:
        raise InsufficientCorrespondencesError(
            f"need at least 3 correspondences, got {len(src)}")
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    a = src - cs
    if _collinear(a):
        raise DegenerateGeometryError("source points are (near-)collinear")
    h = a.T @ (dst - cd)
    u, _, vt = np.linalg.svd(h)
    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    rot = v @ np.diag([1.0, 1.0, d]) @ u.T
    t = cd - rot @ cs
    return transform_from_matrix(rot, t, from_frame=from_frame, to_frame=to_frame)


def fit_plane_pca(points) -> tuple[np.ndarray, np.ndarray]:
    """PCA plane fit: ``(origin, axes)``, the origin at the centroid and the
    rows of ``axes`` an orthonormal right-handed frame, x/y along the first
    two principal directions (descending variance), z the plane normal."""
    pts = _as_array(points, "points", (None, 3))
    if len(pts) < 3:
        raise DegenerateGeometryError("plane fit needs at least 3 points")
    centroid = pts.mean(axis=0)
    c = pts - centroid
    cov = c.T @ c / len(pts)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    if evals[1] <= max(1e-18, 1e-9 * evals[0]):
        raise DegenerateGeometryError("points are rank-deficient (collinear)")
    x = evecs[:, 0]
    y = evecs[:, 1]
    z = np.cross(x, y)
    z /= np.linalg.norm(z)
    # re-orthogonalize y for numerical cleanliness
    y = np.cross(z, x)
    return centroid, np.vstack([x, y, z])


def _solve(a: np.ndarray, b: np.ndarray, singular: float = 0.0) -> np.ndarray:
    """Stacked ``solve(a[i], b[i])``; a singular system gets a step whose
    entries are all ``singular`` (zero: the LM's step, rejected by it)."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.full_like(b, singular)
        for i in range(len(a)):
            try:
                step[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass  # no cost drop: rejected by the caller
        return step


def _least_squares(model, x: np.ndarray, weights: np.ndarray):
    """Levenberg-Marquardt minimization of ``sum(weights * r(x)**2)`` for B
    independent problems at once (Hartley & Zisserman, appendix A6).

    ``x`` is (B, n) and ``weights`` (B, m). ``model(x, rows)`` evaluates the
    problems ``rows`` at their parameters ``x`` (len(rows), n) and returns
    their residuals (len(rows), m) and Jacobians (len(rows), m, n), with a
    row of NaN residuals where a model is undefined (a point behind a
    camera). The first call covers every problem; after that each call
    covers only the problems still trying a step, and an accepted step's
    Jacobian is the one its next step is solved with.

    Each problem keeps its own damping, step tries and stop test, so it
    takes the path it would take alone. Steps use Marquardt damping
    ``lam * diag(J^T W J)`` from lam 1e-3; an accepted step (one that lowers
    the cost) divides lam by 10, a rejected one (or an undefined model)
    multiplies it by 10. A problem stops, keeping its best x, when
      - an accepted step lowered its cost by less than 1e-10;
      - a rejected step's linearised cost drop was below 1e-10: raising lam
        only shortens the step, so no later try can gain more;
      - 12 tries in a row were rejected;
      - 100 steps were accepted;
      - its start is undefined: it keeps its start and a NaN row in ``r``.
    Returns ``(x, r)``.
    """
    x = np.array(x, dtype=float)
    n_problems, n = x.shape
    r, jac = model(x, np.arange(n_problems))
    cost = np.einsum("bm,bm->b", weights, r * r)
    act = np.flatnonzero(np.isfinite(cost))  # problems still trying a step
    lam = np.full(n_problems, 1e-3)
    tries = np.zeros(n_problems, dtype=int)
    steps = np.zeros(n_problems, dtype=int)
    eye = np.eye(n)
    while len(act):
        # while every problem is still trying, a slice, whose views spare
        # the copies an index array makes
        at = slice(None) if len(act) == n_problems else act
        jtw = jac[at].transpose(0, 2, 1) * weights[at, None, :]
        a, b = jtw @ jac[at], (jtw @ r[at, :, None])[..., 0]
        h = _solve(a + (lam[at, None] * (np.diagonal(a, axis1=1, axis2=2) + 1e-12))[..., None]
                   * eye, -b)
        x_new = x[at] + h
        r_new, jac_new = model(x_new, act)
        cost_new = np.einsum("bm,bm->b", weights[at], r_new * r_new)
        better = cost_new < cost[at]  # False where undefined (NaN)
        keep = np.empty(len(act), dtype=bool)
        done, new = at, slice(None)  # the accepted problems, and their rows of the try
        if not better.all():
            worse = ~better
            hr = h[worse]
            # linearised drop -(2 h.J^T W r + h.J^T W J h) of each rejected step
            predicted = -(2 * np.einsum("bn,bn->b", hr, b[worse])
                          + np.einsum("bn,bnk,bk->b", hr, a[worse], hr))
            failed = act[worse]
            lam[failed] *= 10
            tries[failed] += 1
            keep[worse] = (predicted >= 1e-10) & (tries[failed] < 12)  # False for NaN
            done, new = act[better], better
        drop = cost[done] - cost_new[new]
        x[done], r[done] = x_new[new], r_new[new]
        jac[done], cost[done] = jac_new[new], cost_new[new]
        lam[done] = np.maximum(lam[done] / 10, 1e-12)
        tries[done] = 0
        steps[done] += 1
        keep[better] = (drop >= 1e-10) & (steps[done] < 100)
        act = act[keep]
    return x, r


def build_floor_frame(floor_points, body_points=None,
                      from_frame: str = "fused", to_frame: str = "reference") -> RigidTransform:
    """Transform that re-expresses points in the floor-centered frame.

    Origin is the floor-point centroid, axes come from the PCA plane fit.
    Sign conventions: z points toward the body points (up, away from the
    floor); x is flipped so it has non-negative dot product with the in-plane
    projection of the body centroid direction. Without body points, z and x
    fall back to positive alignment with the input +z / +x axes.
    """
    origin, (x, _, z) = fit_plane_pca(floor_points)
    if body_points is not None and len(body_points):
        body_c = _as_array(body_points, "points", (None, 3)).mean(axis=0)
        up_hint = body_c - origin
        if np.dot(z, up_hint) < 0:
            z = -z
        horiz = up_hint - np.dot(up_hint, z) * z
        if np.linalg.norm(horiz) > 1e-9:
            if np.dot(x, horiz) < 0:
                x = -x
        elif _sign_key(x) < 0:
            x = -x
    else:
        if z[2] < 0 or (z[2] == 0 and _sign_key(z) < 0):
            z = -z
        if _sign_key(x) < 0:
            x = -x
    y = np.cross(z, x)
    axes = np.vstack([x, y, z])
    rot = axes  # rows map world coords into the floor frame
    t = -rot @ origin
    return transform_from_matrix(rot, t, from_frame=from_frame, to_frame=to_frame)


def _sign_key(v: np.ndarray) -> float:
    for c in v:
        if abs(c) > 1e-12:
            return float(np.sign(c))
    return 1.0


def _ransac_draws_needed(inlier_ratio: float) -> float:
    """Draws after which, at this inlier ratio, an all-inlier sample of three
    has been drawn with probability RANSAC_CONFIDENCE (Fischler & Bolles,
    CACM 1981; Hartley & Zisserman, section 4.7); inf where it never is."""
    w3 = inlier_ratio ** 3
    if w3 >= 1.0:
        return 1
    per_draw = math.log1p(-w3)
    if per_draw == 0.0:
        return math.inf
    return math.ceil(math.log(1.0 - RANSAC_CONFIDENCE) / per_draw)


# Points per row of _subtract_rows' flat view. (N, 3) points minus a 3-vector
# run numpy's broadcast inner loop three elements at a time; viewed as
# (N / m, 3m) rows minus the vector tiled m times, it runs 3m at a time. On the
# 90,496-point room cloud this took the subtraction from 0.88 to 0.35 ms.
_FLAT_ROWS = 256


def _subtract_rows(pts: np.ndarray, p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``pts - p`` written into ``out``, element by element the same as the
    broadcast; ``out`` is a C-contiguous (N, 3) array."""
    head = len(pts) - len(pts) % _FLAT_ROWS
    np.subtract(pts[:head].reshape(-1, 3 * _FLAT_ROWS), np.tile(p, _FLAT_ROWS),
                out=out[:head].reshape(-1, 3 * _FLAT_ROWS))
    np.subtract(pts[head:], p, out=out[head:])
    return out


def ransac_plane_inliers(points) -> np.ndarray:
    """Boolean inlier mask of the dominant plane (largest RANSAC consensus).

    Draws stop once enough have been made for the best consensus so far
    (see ``_ransac_draws_needed``), and at RANSAC_MAX_DRAWS at the latest; the
    sample stream is fixed by RANSAC_SEED, so the result is the best of a
    prefix of the RANSAC_MAX_DRAWS draws.
    """
    pts = _as_array(points, "points", (None, 3))
    n = len(pts)
    if n < 3:
        raise DegenerateGeometryError("plane RANSAC needs at least 3 points")
    rng = np.random.default_rng(RANSAC_SEED)
    # buffers shared by every draw and refit; the two masks swap roles
    diff = np.empty((n, 3))
    dist = np.empty(n)
    mask, best_mask = np.empty(n, dtype=bool), np.empty(n, dtype=bool)

    def inliers(origin, normal, out):
        np.matmul(_subtract_rows(pts, origin, diff), normal, out=dist)
        np.abs(dist, out=dist)
        return np.less_equal(dist, RANSAC_THRESHOLD_M, out=out)

    best_count = -1
    needed = RANSAC_MAX_DRAWS
    draws = 0
    while draws < needed:
        draws += 1
        idx = rng.choice(n, size=3, replace=False)
        p0, p1, p2 = pts[idx]
        normal = np.cross(p1 - p0, p2 - p0)
        nn = np.linalg.norm(normal)
        if nn < 1e-12:
            continue
        normal /= nn
        count = np.count_nonzero(inliers(p0, normal, mask))
        if count > best_count:
            best_count = count
            best_mask, mask = mask, best_mask
            needed = min(RANSAC_MAX_DRAWS, _ransac_draws_needed(count / n))
    if best_count < 3:
        raise DegenerateGeometryError("no plane found by RANSAC")
    # refit on the consensus set; a tilted sample plane clips the true plane
    # asymmetrically, so iterate the least-squares refit to convergence
    for _ in range(5):
        origin, axes = fit_plane_pca(pts[best_mask])
        inliers(origin, axes[2], mask)
        if np.array_equal(mask, best_mask):
            break
        best_mask, mask = mask, best_mask
    return best_mask
