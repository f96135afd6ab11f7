"""Instrument tracking support: fixed-radius sphere fits on scanned marker
hemispheres, marker-array registration, point-to-point ICP, pose smoothing."""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (AmbiguityError, ConvergenceError, CorrespondenceError,
                     InsufficientCorrespondencesError, NoOverlapError,
                     ParameterError)
from .geometry import PointCloud, RigidTransform, apply, compose, kabsch

DEFAULT_MARKER_RADIUS_M = 0.0015  # 3 mm hemisphere diameter


@dataclass(frozen=True)
class MarkerArrayGeometry:
    """Rigid marker constellation in the tracker-array frame."""

    markers: np.ndarray  # (N, 3)
    radius_m: float = DEFAULT_MARKER_RADIUS_M

    def __post_init__(self):
        m = np.asarray(self.markers, dtype=float).reshape(-1, 3)
        if len(m) < 3:
            raise ParameterError("marker array needs at least 3 markers")
        if self.radius_m <= 0:
            raise ParameterError("marker radius must be positive")
        d = np.linalg.norm(m[:, None] - m[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() <= 2 * self.radius_m:
            raise ParameterError("markers closer than one marker diameter")
        m.setflags(write=False)
        object.__setattr__(self, "markers", m)

    def to_json(self) -> str:
        return json.dumps({
            "radius_m": self.radius_m,
            "markers": [{"id": f"M{i:02d}", "position_m": [float(x) for x in p]}
                        for i, p in enumerate(self.markers)],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MarkerArrayGeometry":
        o = json.loads(text)
        return cls(np.array([m["position_m"] for m in o["markers"]]),
                   radius_m=o["radius_m"])


@dataclass(frozen=True)
class PoseTrack:
    """Timestamped rigid poses of one body expressed in ``frame``."""

    frame: str
    times: np.ndarray      # (N,)
    quats: np.ndarray      # (N, 4) wxyz unit
    translations: np.ndarray  # (N, 3) meters

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).reshape(-1)
        q = np.asarray(self.quats, dtype=float).reshape(-1, 4)
        tr = np.asarray(self.translations, dtype=float).reshape(-1, 3)
        if not (len(t) == len(q) == len(tr)):
            raise ParameterError("track arrays have mismatched lengths")
        for name, arr in (("times", t), ("quaternions", q), ("translations", tr)):
            if not np.isfinite(arr).all():
                raise ParameterError(f"track {name} must be finite")
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise ParameterError("timestamps must be strictly increasing")
        norms = np.linalg.norm(q, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ParameterError("track quaternions must be unit norm")
        for arr in (t, q, tr):
            arr.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "quats", q)
        object.__setattr__(self, "translations", tr)

    def __len__(self) -> int:
        return len(self.times)

    def pose_at_index(self, i: int) -> RigidTransform:
        return RigidTransform(self.quats[i], self.translations[i],
                              from_frame="body", to_frame=self.frame)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t_s,tx_m,ty_m,tz_m,qw,qx,qy,qz\n")
        for i in range(len(self)):
            row = [self.times[i], *self.translations[i], *self.quats[i]]
            buf.write(",".join(repr(float(v)) for v in row) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, frame: str = "reference") -> "PoseTrack":
        lines = [(n, l.split(",")) for n, l in enumerate(text.splitlines(), 1)
                 if l.strip()]
        if not lines or lines[0][1][0] != "t_s":
            raise ParameterError("pose track CSV missing t_s header")
        data = np.zeros((len(lines) - 1, 8))
        for row, (n, values) in zip(data, lines[1:]):
            if len(values) != 8:
                raise ParameterError(
                    f"pose track CSV line {n}: expected 8 columns, got {len(values)}")
            try:
                row[:] = [float(v) for v in values]
            except ValueError:
                raise ParameterError(f"pose track CSV line {n}: "
                                     f"non-numeric value") from None
        return cls(frame, data[:, 0], data[:, 4:8], data[:, 1:4])


# ---------------------------------------------------------------------------
# sphere fitting

def fit_sphere_fixed_radius(points, radius_m: float,
                            max_iterations: int = 100,
                            tol: float = 1e-14) -> tuple[np.ndarray, float]:
    """Center of a sphere of known radius best fitting the points.

    Gauss-Newton on sum(|p - c| - r)^2 from the centroid initialization;
    hemisphere-only sampling is the expected use case.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) < 4:
        raise ParameterError("sphere fit needs at least 4 points")
    if radius_m <= 0:
        raise ParameterError("radius must be positive")
    c = pts.mean(axis=0)
    prev_cost = np.inf
    for _ in range(max_iterations):
        diff = pts - c
        dist = np.linalg.norm(diff, axis=1)
        dist = np.maximum(dist, 1e-12)
        r = dist - radius_m
        cost = float(r @ r)
        jac = -diff / dist[:, None]
        jtj = jac.T @ jac
        jtr = jac.T @ r
        try:
            step = np.linalg.solve(jtj + 1e-12 * np.eye(3), -jtr)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular normal equations in sphere fit",
                                   last_iterate=c) from exc
        # backtracking line search keeps the iteration monotone
        alpha = 1.0
        improved = False
        for _ in range(20):
            c_new = c + alpha * step
            r_new = np.linalg.norm(pts - c_new, axis=1) - radius_m
            if float(r_new @ r_new) < cost:
                c = c_new
                improved = True
                break
            alpha *= 0.5
        if not improved or prev_cost - cost < tol:
            break
        prev_cost = cost
    r = np.linalg.norm(pts - c, axis=1) - radius_m
    rms = float(np.sqrt(np.mean(r ** 2)))
    return c, rms


# ---------------------------------------------------------------------------
# marker-array registration

def _consistent_permutations(scan_centers: np.ndarray, array_markers: np.ndarray,
                             tol_m: float) -> list[tuple[int, ...]]:
    n = len(scan_centers)
    d_scan = np.linalg.norm(scan_centers[:, None] - scan_centers[None, :], axis=2)
    d_arr = np.linalg.norm(array_markers[:, None] - array_markers[None, :], axis=2)
    out = []
    for perm in itertools.permutations(range(n)):
        p = np.asarray(perm)
        if np.all(np.abs(d_scan - d_arr[np.ix_(p, p)]) <= tol_m):
            out.append(perm)
    return out


def register_marker_array(scan_centers, array: MarkerArrayGeometry,
                          signature_tol_m: float = 0.0005
                          ) -> tuple[RigidTransform, float]:
    """Match scanned sphere centers to the array geometry by pairwise-distance
    signature and align. Returns (model_from_array, marker RMSE mm)."""
    centers = np.asarray(scan_centers, dtype=float).reshape(-1, 3)
    if len(centers) != len(array.markers):
        raise InsufficientCorrespondencesError(
            f"{len(centers)} scan centers vs {len(array.markers)} array markers")
    if len(centers) < 3:
        raise InsufficientCorrespondencesError("need at least 3 markers")
    perms = _consistent_permutations(centers, array.markers, signature_tol_m)
    if not perms:
        raise CorrespondenceError(
            "no marker correspondence consistent with pairwise distances")
    if len(perms) > 1:
        raise AmbiguityError(
            f"{len(perms)} distance-consistent correspondences", candidates=perms)
    perm = perms[0]
    matched = array.markers[list(perm)]
    t = kabsch(matched, centers, from_frame="array", to_frame="model")
    res = t.apply_points(matched) - centers
    rmse_mm = float(np.sqrt((res ** 2).sum(axis=1).mean()) * 1000.0)
    return t, rmse_mm


# ---------------------------------------------------------------------------
# ICP

@dataclass(frozen=True)
class IcpParams:
    max_iterations: int = 50
    max_correspondence_m: float = 0.01
    convergence_rms_m: float = 1e-7


@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform
    rms_m: float
    rms_history: tuple


def icp(src: PointCloud, dst: PointCloud, init: RigidTransform,
        params: IcpParams = IcpParams()) -> IcpResult:
    """Point-to-point ICP with a fixed correspondence cutoff.

    Steps are accepted only if the inlier RMS decreases, so the reported
    history is non-increasing.
    """
    if len(src) == 0 or len(dst) == 0:
        raise ParameterError("ICP requires non-empty clouds")
    tree = cKDTree(dst.points)
    t = init
    history = []

    def inlier_rms(transform):
        moved = transform.apply_points(src.points)
        d, idx = tree.query(moved, k=1)
        mask = d <= params.max_correspondence_m
        if not mask.any():
            return None, None, None
        return float(np.sqrt(np.mean(d[mask] ** 2))), mask, idx

    rms, mask, idx = inlier_rms(t)
    if rms is None:
        raise NoOverlapError("no correspondences within cutoff at initialization")
    history.append(rms)
    for _ in range(params.max_iterations):
        if mask.sum() < 3:
            break
        delta = kabsch(t.apply_points(src.points[mask]), dst.points[idx[mask]],
                       from_frame=t.to_frame, to_frame=t.to_frame)
        t_new = compose(delta, t)
        rms_new, mask_new, idx_new = inlier_rms(t_new)
        if rms_new is None or rms_new > rms:
            break
        converged = rms - rms_new < params.convergence_rms_m
        t, rms, mask, idx = t_new, rms_new, mask_new, idx_new
        history.append(rms)
        if converged:
            break
    return IcpResult(t, rms, tuple(history))


# ---------------------------------------------------------------------------
# smoothing

def _window_slices(n: int, window: int) -> list[tuple[slice, slice]]:
    """Centred moving window of odd size over n samples, truncated at the
    ends: for each offset d from -window // 2 to window // 2, the slice of
    centre samples that have a sample d away, and the slice of those samples."""
    if window < 1 or window % 2 == 0:
        raise ParameterError("window must be an odd integer >= 1")
    half = window // 2
    return [(slice(max(0, -d), min(n, n - d)), slice(max(0, d), min(n, n + d)))
            for d in range(-half, half + 1)]


def smooth_track(track: PoseTrack, window: int) -> PoseTrack:
    """Centered moving average; truncated windows at the edges.

    Translations averaged arithmetically, rotations by the normalized
    quaternion mean aligned to the window's center sample.
    """
    offsets = _window_slices(len(track), window)
    if window == 1 or len(track) == 0:
        return track
    q = track.quats
    size = np.zeros((len(track), 1))
    new_t = np.zeros_like(track.translations)
    new_q = np.zeros_like(q)
    for centre, near in offsets:
        size[centre] += 1
        new_t[centre] += track.translations[near]
        dot = np.einsum("ij,ij->i", q[near], q[centre])
        new_q[centre] += np.where(dot[:, None] < 0, -q[near], q[near])
    new_t /= size
    new_q /= size
    new_q /= np.linalg.norm(new_q, axis=1, keepdims=True)
    return PoseTrack(track.frame, track.times, new_q, new_t)
