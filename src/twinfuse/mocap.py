"""Surgeon keypoint pipeline: person selection, multi-view skeleton
triangulation, and per-joint track smoothing.

Joint layout follows the 25-body + 21-left-hand + 21-right-hand convention
(67 joints total, body first)."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

# ``triangulate`` is not called here; it stays bound in this module because
# perfbench/spans.py wraps ``mocap.triangulate`` and ``mocap.unproject``.
from .cameras import CameraModel, triangulate, triangulate_batch, unproject  # noqa: F401
from .geometry import invert
from .errors import EmptySelectionError, ParameterError, UnknownEntityError

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
        persons = [PersonDetection(np.array(p["body"]), np.array(p["hand_l"]),
                                   np.array(p["hand_r"])) for p in o["persons"]]
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
    lifted point is nearest ``table_center`` wins.
    """
    table_center = np.asarray(table_center, dtype=float).reshape(3)
    by_id = {c.id: c for c in cameras}
    selection: dict[str, int | None] = {}
    any_person = False
    for fr in frames:
        if fr.camera_id not in by_id:
            raise UnknownEntityError(f"unknown camera id {fr.camera_id!r}")
        cam = by_id[fr.camera_id]
        if not fr.persons:
            selection[fr.camera_id] = None
            continue
        cam_from_world = invert(cam.world_from_camera)
        table_depth = cam_from_world.apply_points(table_center.reshape(1, 3))[0, 2]
        best = None
        best_dist = np.inf
        for idx, person in enumerate(fr.persons):
            kp = person.all_joints()
            w = kp[:, 2]
            if w.sum() <= 0:
                continue
            mean_px = (kp[:, :2] * w[:, None]).sum(axis=0) / w.sum()
            lifted = unproject(cam, mean_px, table_depth)
            dist = float(np.linalg.norm(lifted - table_center))
            if dist < best_dist:
                best_dist = dist
                best = idx
        selection[fr.camera_id] = best
        if best is not None:
            any_person = True
    if not any_person:
        raise EmptySelectionError("no person detected in any camera")
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
    if window < 1 or window % 2 == 0:
        raise ParameterError("window must be an odd integer >= 1")
    if window == 1 or not track:
        return list(track)
    half = window // 2
    n = len(track)
    pos = np.zeros((n, N_JOINTS, 3))
    res = np.zeros((n, N_JOINTS))
    count = np.zeros((n, N_JOINTS))
    for d in range(-half, half + 1):
        for i in range(max(0, -d), min(n, n - d)):
            f = track[i + d]
            pos[i] += np.where(f.valid[:, None], f.positions, 0.0)
            res[i] += np.where(f.valid, f.residuals_px, 0.0)
            count[i] += f.valid
    size = np.minimum(np.arange(n) + half + 1, n) - np.maximum(np.arange(n) - half, 0)
    valid = count > size[:, None] / 2
    np.divide(pos, count[..., None], out=pos, where=valid[..., None])
    np.divide(res, count, out=res, where=valid)
    out = []
    for i, f in enumerate(track):
        keep = ~valid[i]
        pos[i][keep] = f.positions[keep]
        res[i][keep] = f.residuals_px[keep]
        out.append(Skeleton3DFrame(f.t_s, pos[i], res[i], valid[i]))
    return out
