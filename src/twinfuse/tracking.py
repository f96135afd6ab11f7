"""Instrument tracking support: fixed-radius sphere fits on scanned marker
hemispheres, marker-array registration, point-to-point ICP, pose smoothing."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (AmbiguityError, CorrespondenceError, DegenerateGeometryError,
                     InsufficientCorrespondencesError, NoOverlapError,
                     ParameterError, csv_rows, csv_text, finite_number, non_numbers,
                     positive_number, reading)
from .geometry import (PointCloud, RigidTransform, _as_array, _collinear, _freeze,
                       _least_squares, compose, kabsch)
from .metrics import _kd_tree, _rms_mm

DEFAULT_MARKER_RADIUS_M = 0.0015  # 3 mm hemisphere diameter
SIGNATURE_TOL_M = 0.0005  # pairwise-distance agreement for a marker match
# Candidate correspondences a marker match lists at most. An exact rigid 3-D
# point set has at most 120 distance-preserving permutations (the full
# icosahedral group); markers closer together than SIGNATURE_TOL_M agree in
# every permutation, n! of them.
MAX_CANDIDATES = 1000
# Marker assignments a match tries at most. Forward checking cuts most dead
# branches at once, but not every input: past this budget the match raises
# AmbiguityError.
MAX_BRANCHES = 100_000
ICP_MAX_ITERATIONS = 50
ICP_MAX_CORRESPONDENCE_M = 0.01  # nearest neighbours farther away are outliers
ICP_CONVERGENCE_RMS_M = 1e-7  # stop once an iteration lowers the RMS by less
UNIT_QUATERNION_TOL = 1e-6  # largest |norm - 1| of a quaternion taken as unit


@dataclass(frozen=True)
class MarkerArrayGeometry:
    """Rigid marker constellation in the tracker-array frame."""

    markers: np.ndarray  # (N, 3)
    radius_m: float = DEFAULT_MARKER_RADIUS_M

    def __post_init__(self):
        m = _as_array(self.markers, "markers", (None, 3))
        if len(m) < 3:
            raise ParameterError("marker array needs at least 3 markers")
        r = positive_number(self.radius_m, "marker radius")
        d = np.linalg.norm(m[:, None] - m[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() <= 2 * r:
            raise ParameterError("markers closer than one marker diameter")
        _freeze(self, markers=m, radius_m=r)

    def to_json(self) -> str:
        return json.dumps({
            "radius_m": self.radius_m,
            "markers": [{"id": f"M{i:02d}", "position_m": [float(x) for x in p]}
                        for i, p in enumerate(self.markers)],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MarkerArrayGeometry":
        o = json.loads(text)
        with reading("marker array"):
            positions = [m["position_m"] for m in o["markers"]]
            geometry = cls(np.array(positions), radius_m=o["radius_m"])
            if bad := non_numbers([v for p in positions for v in p]):
                raise ValueError(f"marker positions must be finite numbers, got {bad[0]!r}")
        return geometry


@dataclass(frozen=True)
class PoseTrack:
    """Timestamped rigid poses of one body expressed in ``frame``."""

    frame: str
    times: np.ndarray      # (N,)
    quats: np.ndarray      # (N, 4) wxyz unit
    translations: np.ndarray  # (N, 3) meters

    def __post_init__(self):
        t = _as_array(self.times, "track times", (None,))
        q = _as_array(self.quats, "track quaternions", (None, 4))
        tr = _as_array(self.translations, "track translations", (None, 3))
        if not len(t) == len(q) == len(tr):
            raise ParameterError(f"track arrays have mismatched shapes: times {t.shape}, "
                                 f"quaternions {q.shape}, translations {tr.shape}")
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise ParameterError("timestamps must be strictly increasing")
        norms = np.linalg.norm(q, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_QUATERNION_TOL):
            raise ParameterError("track quaternions must be unit norm")
        _freeze(self, times=t, quats=q, translations=tr)

    def __len__(self) -> int:
        return len(self.times)

    def pose_at_index(self, i: int) -> RigidTransform:
        return RigidTransform(self.quats[i], self.translations[i],
                              from_frame="body", to_frame=self.frame)

    def to_csv(self) -> str:
        return csv_text("t_s,tx_m,ty_m,tz_m,qw,qx,qy,qz", np.column_stack(
            [self.times, self.translations, self.quats]).tolist())

    @classmethod
    def from_csv(cls, text: str, frame: str = "reference") -> "PoseTrack":
        rows = [values for _, values in
                csv_rows(text, "pose track CSV", "t_s", [float] * 8)]
        data = np.array(rows, dtype=float).reshape(-1, 8)
        return cls(frame, data[:, 0], data[:, 4:8], data[:, 1:4])


# ---------------------------------------------------------------------------
# sphere fitting

def fit_sphere_fixed_radius(points, radius_m: float) -> tuple[np.ndarray, float]:
    """Center of a sphere of known radius best fitting the points, and the
    RMS of the radial residuals in metres.

    Minimizes sum(|p - c| - r)^2 with the shared Levenberg-Marquardt loop
    (``geometry._least_squares``) from the centroid; hemisphere-only sampling
    is the expected use case. The residuals are undefined at a centre on a
    point: points on one line, or a centroid on a point, raise
    DegenerateGeometryError.
    """
    pts = _as_array(points, "sphere fit points", (None, 3))
    if len(pts) < 4:
        raise ParameterError("sphere fit needs at least 4 points")
    radius_m = positive_number(radius_m, "marker radius")
    if _collinear(pts - pts.mean(axis=0)):
        raise DegenerateGeometryError("sphere fit points are (near-)collinear")

    # Residuals in millimetres: the loop stops at an absolute cost drop of
    # 1e-10, sized for pixel residuals of order 1. In metres the cost of a
    # marker fit is near 1e-7 and the loop would stop up to 2e-8 m short of
    # the optimum; in millimetres it lands within about 4e-10 m of it.
    def model(x, rows):  # x: (1, 3) candidate centre of the one problem
        d = pts - x[0]
        dist = np.linalg.norm(d, axis=1)
        if not dist.all():  # a point at the centre: undefined, without a warning
            dist = np.full_like(dist, np.nan)
        return ((dist - radius_m) * 1000.0)[None], (-1000.0 * d / dist[:, None])[None]

    c, r = _least_squares(model, pts.mean(axis=0)[None], np.ones((1, len(pts))))
    if np.isnan(r).any():
        raise DegenerateGeometryError(
            "a sphere fit point lies on the centroid, where the fit starts")
    return c[0], float(np.sqrt(np.mean(r ** 2))) / 1000.0


# ---------------------------------------------------------------------------
# marker-array registration

def _consistent_permutations(scan_centers: np.ndarray, array_markers: np.ndarray,
                             tol_m: float) -> list[tuple[int, ...]]:
    """The assignments ``perm`` (scan centre i is array marker perm[i]) whose
    pairwise distances all agree within ``tol_m``, in lexicographic order:
    all of them, or the first MAX_CANDIDATES.

    Depth-first interpretation tree (Grimson & Lozano-Perez, PAMI 1987):
    centres take markers one at a time, each trying the unused markers in
    ascending order. Forward checking (Haralick & Elliott, AI 1980) keeps,
    for every later centre, the unused markers consistent with all
    assignments so far, and cuts a branch once one of these sets is empty.
    A search that tries more than MAX_BRANCHES assignments raises
    AmbiguityError with the candidates found so far.
    """
    n = len(scan_centers)
    d_scan = np.linalg.norm(scan_centers[:, None] - scan_centers[None, :], axis=2)
    d_arr = np.linalg.norm(array_markers[:, None] - array_markers[None, :], axis=2)
    # ok[i][j][a][b]: centres i and j may be markers a and b
    ok = (np.abs(d_scan[:, :, None, None] - d_arr[None, None]) <= tol_m).tolist()
    out = []
    perm = []
    tried = 0

    def extend(i, domains):  # True once MAX_CANDIDATES are found
        nonlocal tried
        if i == n:
            out.append(tuple(perm))
            return len(out) == MAX_CANDIDATES
        for a in domains[0]:
            tried += 1
            if tried > MAX_BRANCHES:
                raise AmbiguityError(
                    f"marker matching tried more than {MAX_BRANCHES} "
                    f"assignments", candidates=out)
            later = [[b for b in domain if b != a and ok[i][k][a][b]]
                     for k, domain in enumerate(domains[1:], i + 1)]
            if all(later):
                perm.append(a)
                full = extend(i + 1, later)
                perm.pop()
                if full:
                    return True
        return False

    extend(0, [list(range(n))] * n)
    return out


def register_marker_array(scan_centers, array: MarkerArrayGeometry
                          ) -> tuple[RigidTransform, float]:
    """Match scanned sphere centers to the array geometry by pairwise-distance
    signature and align. Returns (model_from_array, marker RMSE mm)."""
    centers = _as_array(scan_centers, "scan centers", (None, 3))
    if len(centers) != len(array.markers):
        raise InsufficientCorrespondencesError(
            f"{len(centers)} scan centers vs {len(array.markers)} array markers")
    if len(centers) < 3:
        raise InsufficientCorrespondencesError("need at least 3 markers")
    perms = _consistent_permutations(centers, array.markers, SIGNATURE_TOL_M)
    if not perms:
        raise CorrespondenceError(
            "no marker correspondence consistent with pairwise distances")
    if len(perms) > 1:
        count = f"at least {len(perms)}" if len(perms) == MAX_CANDIDATES else len(perms)
        raise AmbiguityError(
            f"{count} distance-consistent correspondences", candidates=perms)
    perm = perms[0]
    matched = array.markers[list(perm)]
    t = kabsch(matched, centers, from_frame="array", to_frame="model")
    return t, _rms_mm(t.apply_points(matched), centers)


# ---------------------------------------------------------------------------
# ICP

@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform
    rms_m: float
    rms_history: tuple


def icp(src: PointCloud, dst: PointCloud, init: RigidTransform) -> IcpResult:
    """Point-to-point ICP with a fixed correspondence cutoff.

    Steps are accepted only if the inlier RMS decreases, so the reported
    history is non-increasing.
    """
    if len(src) == 0 or len(dst) == 0:
        raise ParameterError("ICP requires non-empty clouds")
    tree = _kd_tree(dst.points)
    t = init
    history = []

    def inlier_rms(transform):
        moved = transform.apply_points(src.points)
        d, idx = tree.query(moved, k=1)
        mask = d <= ICP_MAX_CORRESPONDENCE_M
        if not mask.any():
            return None, None, None
        return float(np.sqrt(np.mean(d[mask] ** 2))), mask, idx

    rms, mask, idx = inlier_rms(t)
    if rms is None:
        raise NoOverlapError("no correspondences within cutoff at initialization")
    history.append(rms)
    for _ in range(ICP_MAX_ITERATIONS):
        if mask.sum() < 3:
            break
        delta = kabsch(t.apply_points(src.points[mask]), dst.points[idx[mask]],
                       from_frame=t.to_frame, to_frame=t.to_frame)
        t_new = compose(delta, t)
        rms_new, mask_new, idx_new = inlier_rms(t_new)
        if rms_new is None or rms_new > rms:
            break
        converged = rms - rms_new < ICP_CONVERGENCE_RMS_M
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
    if not finite_number(window, numbers.Integral) or window < 1 or window % 2 == 0:
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
