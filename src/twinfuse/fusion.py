"""Scan fusion: marker-based registration of scans into one reference cloud,
plus the qualitative post-processing steps (voxelize, outlier removal)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateGeometryError,
                     InsufficientCorrespondencesError, ParameterError,
                     TwinfuseError, _repeated, positive_number,
                     reading)
from .geometry import (PointCloud, RigidTransform, _as_array, _freeze, apply,
                       build_floor_frame, kabsch, ransac_plane_inliers)
from .metrics import _kd_tree, _mean_table, _nn_distances, _rms_mm, chamfer

CHAMFER_CUTOFF_M = 0.1  # fuse_scans' per-scan Chamfer distance cutoff
OUTLIER_K = 16
OUTLIER_STD_RATIO = 2.0


def _unique_marker_ids(ids) -> None:
    """Raise ParameterError naming the first marker id given twice; ids
    compare as the strings MarkerSet stores."""
    mid = _repeated(map(str, ids))
    if mid is not None:
        raise ParameterError(f"two markers with id {mid!r}")


@dataclass(frozen=True)
class MarkerSet:
    """Labeled fiducial positions (meters) in a named frame."""

    frame: str
    positions: dict  # id -> np.ndarray (3,)

    def __post_init__(self):
        _unique_marker_ids(self.positions)
        _freeze(self, positions={str(mid): _as_array(p, f"marker {mid!r} position", (3,))
                                 for mid, p in self.positions.items()})

    def __len__(self) -> int:
        return len(self.positions)

    def to_json(self) -> str:
        return json.dumps({
            "frame": self.frame,
            "markers": [{"id": k, "position_m": [float(x) for x in v]}
                        for k, v in sorted(self.positions.items())],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MarkerSet":
        obj = json.loads(text)
        with reading("marker set", "marker set is not an object with a list "
                                   "of marker objects under 'markers'"):
            frame = obj["frame"]
            markers = [(m["id"], m["position_m"]) for m in obj["markers"]]
            _unique_marker_ids(mid for mid, _ in markers)
        return cls(frame, dict(markers))


@dataclass(frozen=True)
class ScanRecord:
    """One laser scan: its cloud plus the markers visible in it."""

    name: str
    cloud: PointCloud
    markers: MarkerSet

    def __post_init__(self):
        if self.cloud.frame != self.markers.frame:
            raise TwinfuseError(
                f"scan {self.name!r}: cloud frame {self.cloud.frame!r} != "
                f"marker frame {self.markers.frame!r}")


@dataclass
class FusionRow:
    name: str
    n_markers: int
    rmse_mm: float
    chamfer_mm: float
    transform: RigidTransform


@dataclass
class FusionReport:
    reference_name: str
    rows: list[FusionRow] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "reference": self.reference_name,
            "registrations": [{
                "name": r.name,
                "n_markers": r.n_markers,
                "rmse_mm": r.rmse_mm,
                "cd_mm": r.chamfer_mm,
                "transform": r.transform.to_dict(),
            } for r in self.rows],
        }, indent=2)

    def render_table(self) -> str:
        """Text table of marker count, RMSE and CD per registered scan."""
        table = _mean_table("Scan", [r.name for r in self.rows], [
            ("# Markers", [r.n_markers for r in self.rows], "", ".1f"),
            ("RMSE (mm)", [r.rmse_mm for r in self.rows], ".2f", ".2f"),
            ("CD (mm)", [r.chamfer_mm for r in self.rows], ".2f", ".2f"),
        ])
        return f"Reference scan: {self.reference_name}\n{table}"


def match_markers(src: MarkerSet, dst: MarkerSet) -> list[tuple[np.ndarray, np.ndarray]]:
    """Correspondence pairs for ids present in both sets, ordered by id."""
    common = sorted(set(src.positions) & set(dst.positions))
    if len(common) < 3:
        raise InsufficientCorrespondencesError(
            f"only {len(common)} common marker ids (need >= 3)")
    return [(src.positions[i], dst.positions[i]) for i in common]


def register_scan(src: ScanRecord, reference: MarkerSet) -> tuple[RigidTransform, float]:
    """Kabsch over matched markers; returns (src->reference transform, RMSE mm)."""
    pairs = match_markers(src.markers, reference)
    s = np.array([p[0] for p in pairs])
    d = np.array([p[1] for p in pairs])
    t = kabsch(s, d, from_frame=src.markers.frame, to_frame=reference.frame)
    return t, _rms_mm(t.apply_points(s), d)


def fuse_scans(scans: list[ScanRecord]) -> tuple[PointCloud, FusionReport]:
    """Register every scan to the one with most visible markers and
    concatenate the clouds in input order."""
    if not scans:
        raise ParameterError("fuse_scans needs at least one scan")
    empty = [s.name for s in scans if len(s.cloud) == 0]
    if empty and len(scans) > 1:  # every other scan is compared with the reference
        raise ParameterError(f"scan {empty[0]!r}: chamfer requires non-empty clouds")
    ref_idx = int(np.argmax([len(s.markers) for s in scans]))  # tie -> first
    reference = scans[ref_idx]
    report = FusionReport(reference_name=reference.name)

    clouds = []
    all_have_colors = all(s.cloud.colors is not None for s in scans)
    for i, scan in enumerate(scans):
        if i == ref_idx:
            clouds.append(scan.cloud)
            continue
        try:
            t, rmse_mm = register_scan(scan, reference.markers)
        except TwinfuseError as exc:
            raise type(exc)(f"scan {scan.name!r}: {exc}") from exc
        moved = apply(t, scan.cloud)
        cd_mm, _, _ = chamfer(moved, reference.cloud, CHAMFER_CUTOFF_M)
        n_used = len(set(scan.markers.positions) & set(reference.markers.positions))
        report.rows.append(FusionRow(scan.name, n_used, rmse_mm, cd_mm, t))
        clouds.append(moved)

    points = np.concatenate([c.points for c in clouds]) if clouds else np.zeros((0, 3))
    colors = (np.concatenate([c.colors for c in clouds])
              if all_have_colors and clouds else None)
    fused = PointCloud(points, colors=colors, frame=reference.cloud.frame)
    return fused, report


def finalize_reference(fused: PointCloud) -> tuple[PointCloud, RigidTransform]:
    """Re-express the fused cloud in the floor-centered reference frame."""
    if len(fused) < 3:
        raise DegenerateGeometryError("fused cloud too small for floor detection")
    inliers = ransac_plane_inliers(fused.points)
    floor_pts = fused.points[inliers]
    body_pts = fused.points[~inliers]
    t = build_floor_frame(floor_pts, body_pts if len(body_pts) else None,
                          from_frame=fused.frame, to_frame="reference")
    return apply(t, fused), t


def voxel_downsample(cloud: PointCloud, voxel_m: float) -> PointCloud:
    """One centroid per occupied voxel; grid anchored at the frame origin.

    Output voxels are ordered by first occurrence in the input.
    """
    positive_number(voxel_m, "voxel size")
    if len(cloud) == 0:
        return cloud
    with np.errstate(over="ignore"):  # an infinite key is refused below
        keys = np.floor(cloud.points / voxel_m)
    lo, hi = keys.min(axis=0), keys.max(axis=0)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ParameterError(f"voxel size {voxel_m!r} is too small for int64 "
                             f"voxel keys of this cloud")
    # One int64 per point, (x * ey + y) * ez + z over the keys offset by their
    # minimum: its order is the row-lexicographic order of the keys, so the
    # 1-D unique finds the same first occurrences as a unique over rows.
    # The bounds are checked with Python ints, which cannot wrap.
    lo_i, hi_i = [int(v) for v in lo], [int(v) for v in hi]
    ex, ey, ez = (h - l + 1 for l, h in zip(lo_i, hi_i))
    if min(lo_i) < -2 ** 63 or max(hi_i) >= 2 ** 63 or ex * ey * ez > 2 ** 63:
        raise ParameterError(f"voxel size {voxel_m!r} gives a {ex} x {ey} x "
                             f"{ez} grid, too large for int64 voxel keys")
    keys = keys.astype(np.int64) - np.array(lo_i, dtype=np.int64)
    packed = (keys[:, 0] * ey + keys[:, 1]) * ez + keys[:, 2]
    _, first_idx, inverse = np.unique(packed, return_index=True,
                                      return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(first_idx), dtype=np.int64)
    rank[order] = np.arange(len(first_idx))
    groups = rank[np.ravel(inverse)]  # voxel index in first-occurrence order
    n_vox = len(first_idx)
    counts = np.bincount(groups, minlength=n_vox).astype(float)
    pts = np.zeros((n_vox, 3))
    for axis in range(3):
        pts[:, axis] = np.bincount(groups, weights=cloud.points[:, axis],
                                   minlength=n_vox) / counts
    colors = None
    if cloud.colors is not None:
        colors = np.zeros((n_vox, 3))
        for axis in range(3):
            colors[:, axis] = np.bincount(
                groups, weights=cloud.colors[:, axis].astype(float),
                minlength=n_vox) / counts
        colors = np.clip(np.round(colors), 0, 255).astype(np.uint8)
    return PointCloud(pts, colors=colors, frame=cloud.frame)


def remove_statistical_outliers(cloud: PointCloud) -> PointCloud:
    """Drop points whose mean distance to their OUTLIER_K nearest neighbours
    exceeds mean + OUTLIER_STD_RATIO * std over the cloud."""
    if len(cloud) <= OUTLIER_K:
        raise ParameterError(f"cloud of {len(cloud)} points too small for "
                             f"k={OUTLIER_K}")
    # the first column is each point itself, at distance 0; the cloud's own
    # tree gives the leaf order its points are queried in
    tree = _kd_tree(cloud.points)
    mean_d = _nn_distances(cloud.points, tree, OUTLIER_K + 1, tree.indices,
                           lambda d: d[:, 1:].mean(axis=1))
    del tree  # its nodes are not needed while the output cloud is built
    threshold = mean_d.mean() + OUTLIER_STD_RATIO * mean_d.std()
    keep = mean_d <= threshold
    colors = cloud.colors[keep] if cloud.colors is not None else None
    return PointCloud(cloud.points[keep], colors=colors, frame=cloud.frame)
