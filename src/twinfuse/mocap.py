"""Surgeon keypoint pipeline: person selection, multi-view skeleton
triangulation, and per-joint track smoothing.

Joint layout follows the 25-body + 21-left-hand + 21-right-hand convention
(67 joints total, body first)."""

from __future__ import annotations

import io
import json
import numbers
from dataclasses import dataclass

import numpy as np

# ``triangulate`` and ``unproject`` are not called here; they stay bound in
# this module because perfbench/spans.py wraps ``mocap.triangulate`` and
# ``mocap.unproject``.
from .cameras import (CameraModel, _camera_arrays, _camera_id,  # noqa: F401
                      _cameras_by_id, _undistort, triangulate,
                      triangulate_batch, unproject)
from .errors import (BehindCameraError, EmptySelectionError, ParameterError,
                     csv_rows, finite_number, reading)
from .geometry import _freeze
from .tracking import _window_slices

N_BODY = 25
N_HAND = 21
N_JOINTS = N_BODY + 2 * N_HAND  # 67
_PARTS = (("body", N_BODY), ("hand_left", N_HAND), ("hand_right", N_HAND))


def _keypoints_ok(kp: np.ndarray) -> bool:
    """Rows (u, v, confidence) all finite, with confidences in [0, 1]."""
    conf = kp[:, 2]
    return bool(np.isfinite(kp).all() and conf.min() >= 0 and conf.max() <= 1)


def _checked_part(name: str, n: int, value) -> np.ndarray:
    """One part of a PersonDetection as an (n, 3) float array, or its first
    error: the conversion, then the shape, then the values."""
    a = np.asarray(value, dtype=float)
    if a.shape != (n, 3):
        raise ParameterError(f"{name} must have shape ({n}, 3), got {a.shape}")
    if not np.isfinite(a).all():
        raise ParameterError(f"{name} keypoints must be finite")
    if not _keypoints_ok(a):
        raise ParameterError(f"{name} confidences must be in [0, 1]")
    return a


@dataclass(frozen=True)
class PersonDetection:
    """One person's 2D keypoints in one image: rows are (u, v, confidence)."""

    body: np.ndarray       # (25, 3)
    hand_left: np.ndarray  # (21, 3)
    hand_right: np.ndarray  # (21, 3)

    def __post_init__(self):
        given = [getattr(self, name) for name, _ in _PARTS]
        try:
            arrays = [np.asarray(v, dtype=float) for v in given]
        except (TypeError, ValueError, OverflowError):
            arrays = []
        # all three parts in one pass; on a fault, find the first part by part
        if not (arrays and all(a.shape == (n, 3) for a, (_, n) in zip(arrays, _PARTS))
                and _keypoints_ok(np.concatenate(arrays))):
            arrays = [_checked_part(name, n, v) for (name, n), v in zip(_PARTS, given)]
        _freeze(self, **{name: a for (name, _), a in zip(_PARTS, arrays)})

    def all_joints(self) -> np.ndarray:
        return np.vstack([self.body, self.hand_left, self.hand_right])


@dataclass(frozen=True)
class Keypoint2DFrame:
    camera_id: str
    t_s: float
    persons: tuple

    def __post_init__(self):
        _camera_id(self.camera_id)
        if not finite_number(self.t_s, numbers.Real):
            raise ParameterError(f"keypoint frame t_s must be a finite number, "
                                 f"got {self.t_s!r}")
        _freeze(self, persons=tuple(self.persons))

    def to_json(self) -> str:
        return json.dumps({
            "camera": self.camera_id,
            "t_s": self.t_s,
            "persons": [{
                "body": p.body.tolist(),
                "hand_l": p.hand_left.tolist(),
                "hand_r": p.hand_right.tolist(),
            } for p in self.persons],
        })

    @classmethod
    def from_json(cls, text: str) -> "Keypoint2DFrame":
        o = json.loads(text)
        with reading("keypoint frame"):
            persons = [PersonDetection(np.array(p["body"], dtype=float),
                                       np.array(p["hand_l"], dtype=float),
                                       np.array(p["hand_r"], dtype=float))
                       for p in o["persons"]]
            return cls(o["camera"], float(o["t_s"]), tuple(persons))


@dataclass(frozen=True)
class Skeleton3DFrame:
    """Triangulated 67-joint skeleton at one timestamp."""

    t_s: float
    positions: np.ndarray   # (67, 3) meters, undefined where invalid
    residuals_px: np.ndarray  # (67,)
    valid: np.ndarray       # (67,) bool

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(N_JOINTS, 3)
        res = np.asarray(self.residuals_px, dtype=float).reshape(N_JOINTS)
        val = np.asarray(self.valid, dtype=bool).reshape(N_JOINTS)
        _freeze(self, positions=pos, residuals_px=res, valid=val)


def skeleton_track_to_csv(frames: list[Skeleton3DFrame]) -> str:
    buf = io.StringIO()
    buf.write("t_s,joint_id,x_m,y_m,z_m,residual_px,valid\n")
    for fr in frames:
        for j in range(N_JOINTS):
            p = fr.positions[j]
            buf.write(f"{float(fr.t_s)!r},{j},{float(p[0])!r},{float(p[1])!r},"
                      f"{float(p[2])!r},{float(fr.residuals_px[j])!r},"
                      f"{int(fr.valid[j])}\n")
    return buf.getvalue()


def skeleton_track_from_csv(text: str) -> list[Skeleton3DFrame]:
    by_t: dict[float, list] = {}  # rows per timestamp, in first-seen order
    for n, (t, j, x, y, z, residual, valid) in csv_rows(
            text, "skeleton CSV", "t_s,joint_id",
            [float, int, float, float, float, float, int]):
        if not 0 <= j < N_JOINTS:
            raise ParameterError(f"skeleton CSV line {n}: joint id {j} "
                                 f"outside 0..{N_JOINTS - 1}")
        if not finite_number(t):
            raise ParameterError(f"skeleton CSV line {n}: t_s must be finite")
        if valid not in (0, 1):
            raise ParameterError(f"skeleton CSV line {n}: valid must be 0 or 1, "
                                 f"got {valid}")
        # an invalid joint's position and residual are undefined
        if valid and not all(map(finite_number, (x, y, z, residual))):
            raise ParameterError(f"skeleton CSV line {n}: a valid joint's "
                                 f"position and residual must be finite")
        by_t.setdefault(t, []).append((j, [x, y, z], residual, valid == 1))
    frames = []
    for t, rows in by_t.items():
        pos = np.zeros((N_JOINTS, 3))
        res = np.zeros(N_JOINTS)
        val = np.zeros(N_JOINTS, dtype=bool)
        for j, p, residual, valid in rows:
            pos[j] = p
            res[j] = residual
            val[j] = valid
        frames.append(Skeleton3DFrame(t, pos, res, val))
    return frames


# ---------------------------------------------------------------------------
# operations

def select_surgeon(frames: list[Keypoint2DFrame], cameras: list[CameraModel],
                   table_center) -> dict[str, int | None]:
    """Per-camera index of the person nearest the operating table.

    The confidence-weighted mean pixel of each person is lifted along the
    camera ray to the table center's camera-frame depth; the person whose
    lifted point is nearest ``table_center`` wins. The mean pixels of all
    cameras are undistorted in one call, and distances are measured in each
    camera's frame, where they equal the world distances.
    """
    frame_cameras = _cameras_by_id(cameras, [fr.camera_id for fr in frames])
    slot, person, mean_px = [], [], []  # per person with nonzero confidence
    for k, fr in enumerate(frames):
        for idx, p in enumerate(fr.persons):
            kp = p.all_joints()
            w = kp[:, 2]
            if w.sum() > 0:
                slot.append(k)
                person.append(idx)
                mean_px.append((kp[:, :2] * w[:, None]).sum(axis=0) / w.sum())
    if not slot:
        raise EmptySelectionError("no person detected in any camera")
    slot = np.array(slot)
    rot, t, focal, center, dist = _camera_arrays(frame_cameras)
    table = (rot @ np.asarray(table_center, dtype=float).reshape(3) + t)[slot]
    if np.any(table[:, 2] <= 0):
        raise BehindCameraError("table center is behind a camera")
    xn = _undistort((np.array(mean_px) - center[slot]) / focal[slot], dist[:, slot])
    lifted = np.column_stack([xn * table[:, 2:], table[:, 2]])
    gap = np.linalg.norm(lifted - table, axis=1)
    selection: dict[str, int | None] = {}
    for k, fr in enumerate(frames):
        rows = np.flatnonzero(slot == k)
        selection[fr.camera_id] = person[rows[np.argmin(gap[rows])]] if len(rows) else None
    return selection


def triangulate_skeleton(frames: list[Keypoint2DFrame],
                         selection: dict[str, int | None],
                         cameras: list[CameraModel]) -> Skeleton3DFrame:
    """Triangulate all 67 keypoints of the selected person in one batched
    solve (``cameras.triangulate_batch``).

    A joint is valid when observed with confidence >= 0.1 in at least two
    cameras and triangulation succeeds; failures become invalid flags. A
    selected person seen by a camera missing from ``cameras`` raises
    ``UnknownEntityError``.
    """
    if not frames:
        raise ParameterError("no keypoint frames given")
    t_s = frames[0].t_s
    if any(abs(f.t_s - t_s) > 1e-9 for f in frames):
        raise ParameterError("keypoint frames must share one timestamp")
    persons = {}
    for fr in frames:
        idx = selection.get(fr.camera_id)
        if idx is not None and idx < len(fr.persons):
            persons[fr.camera_id] = fr.persons[idx]
    kp = np.zeros((N_JOINTS, len(persons), 3))
    for k, person in enumerate(persons.values()):
        kp[:, k] = person.all_joints()
    positions, residuals, errors = triangulate_batch(
        kp[..., :2], kp[..., 2], _cameras_by_id(cameras, list(persons)))
    return Skeleton3DFrame(t_s, positions, residuals, [e is None for e in errors])


def smooth_skeleton(track: list[Skeleton3DFrame], window: int) -> list[Skeleton3DFrame]:
    """Per-joint centered moving average over valid samples only.

    A joint invalid in more than half of its (truncated) window stays invalid
    and keeps its input values. Timestamps are preserved exactly. Window
    sums run over the frames in order, as ``np.mean`` does for a window of
    up to 7, so such windows give bit-identical means.
    """
    offsets = _window_slices(len(track), window)
    if window == 1 or not track:
        return list(track)
    pos = np.array([f.positions for f in track])
    res = np.array([f.residuals_px for f in track])
    valid_in = np.array([f.valid for f in track])
    pos_sum, res_sum = np.zeros_like(pos), np.zeros_like(res)
    count, size = np.zeros_like(res), np.zeros((len(track), 1))
    for centre, near in offsets:
        pos_sum[centre] += np.where(valid_in[near, :, None], pos[near], 0.0)
        res_sum[centre] += np.where(valid_in[near], res[near], 0.0)
        count[centre] += valid_in[near]
        size[centre] += 1
    valid = count > size / 2
    # pos and res keep the input values of joints left invalid
    np.divide(pos_sum, count[..., None], out=pos, where=valid[..., None])
    np.divide(res_sum, count, out=res, where=valid)
    return [Skeleton3DFrame(f.t_s, p, r, v) for f, p, r, v in zip(track, pos, res, valid)]
