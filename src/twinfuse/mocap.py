"""Surgeon keypoint pipeline: person selection, multi-view skeleton
triangulation, and per-joint track smoothing.

Joint layout follows the 25-body + 21-left-hand + 21-right-hand convention
(67 joints total, body first)."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

# ``triangulate`` and ``unproject`` are not called here; they stay bound in
# this module because perfbench/spans.py wraps ``mocap.triangulate`` and
# ``mocap.unproject``.
from .cameras import (CameraModel, _camera_arrays, _undistort, triangulate,  # noqa: F401
                      triangulate_batch, unproject)
from .errors import (BehindCameraError, EmptySelectionError, ParameterError,
                     UnknownEntityError)
from .tracking import _window_slices

N_BODY = 25
N_HAND = 21
N_JOINTS = N_BODY + 2 * N_HAND  # 67


@dataclass(frozen=True)
class PersonDetection:
    """One person's 2D keypoints in one image: rows are (u, v, confidence)."""

    body: np.ndarray       # (25, 3)
    hand_left: np.ndarray  # (21, 3)
    hand_right: np.ndarray  # (21, 3)

    def __post_init__(self):
        for name, arr, n in (("body", self.body, N_BODY),
                             ("hand_left", self.hand_left, N_HAND),
                             ("hand_right", self.hand_right, N_HAND)):
            a = np.asarray(arr, dtype=float)
            if a.shape != (n, 3):
                raise ParameterError(f"{name} must have shape ({n}, 3), got {a.shape}")
            if np.any((a[:, 2] < 0) | (a[:, 2] > 1)):
                raise ParameterError(f"{name} confidences must be in [0, 1]")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def joint(self, j: int) -> np.ndarray:
        if j < N_BODY:
            return self.body[j]
        if j < N_BODY + N_HAND:
            return self.hand_left[j - N_BODY]
        return self.hand_right[j - N_BODY - N_HAND]

    def all_joints(self) -> np.ndarray:
        return np.vstack([self.body, self.hand_left, self.hand_right])


@dataclass(frozen=True)
class Keypoint2DFrame:
    camera_id: str
    t_s: float
    persons: tuple

    def __post_init__(self):
        object.__setattr__(self, "persons", tuple(self.persons))

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
        try:
            persons = [PersonDetection(np.array(p["body"]), np.array(p["hand_l"]),
                                       np.array(p["hand_r"])) for p in o["persons"]]
            return cls(o["camera"], float(o["t_s"]), tuple(persons))
        except KeyError as exc:
            raise ParameterError(f"keypoint frame missing key {exc}") from None


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
        for a in (pos, res, val):
            a.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "residuals_px", res)
        object.__setattr__(self, "valid", val)


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
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or not lines[0].startswith("t_s,joint_id"):
        raise ParameterError("skeleton CSV missing header")
    rows = [l.split(",") for l in lines[1:]]
    frames = []
    by_t: dict[float, list] = {}
    order = []
    for r in rows:
        t = float(r[0])
        if t not in by_t:
            by_t[t] = []
            order.append(t)
        by_t[t].append(r)
    for t in order:
        pos = np.zeros((N_JOINTS, 3))
        res = np.zeros(N_JOINTS)
        val = np.zeros(N_JOINTS, dtype=bool)
        for r in by_t[t]:
            j = int(r[1])
            pos[j] = [float(r[2]), float(r[3]), float(r[4])]
            res[j] = float(r[5])
            val[j] = bool(int(r[6]))
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
    by_id = {c.id: c for c in cameras}
    for fr in frames:
        if fr.camera_id not in by_id:
            raise UnknownEntityError(f"unknown camera id {fr.camera_id!r}")
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
    rot, t, focal, center, dist = _camera_arrays([by_id[fr.camera_id] for fr in frames])
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
    by_id = {c.id: c for c in cameras}
    persons = {}
    for fr in frames:
        idx = selection.get(fr.camera_id)
        if idx is not None and idx < len(fr.persons):
            if fr.camera_id not in by_id:
                raise UnknownEntityError(f"unknown camera id {fr.camera_id!r}")
            persons[fr.camera_id] = fr.persons[idx]
    kp = np.zeros((N_JOINTS, len(persons), 3))
    for k, person in enumerate(persons.values()):
        kp[:, k] = person.all_joints()
    positions, residuals, errors = triangulate_batch(
        kp[..., :2], kp[..., 2], [by_id[cam_id] for cam_id in persons])
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
