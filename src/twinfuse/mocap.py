"""Surgeon keypoint pipeline: person selection, multi-view skeleton
triangulation, and per-joint track smoothing.

Joint layout follows the 25-body + 21-left-hand + 21-right-hand convention
(67 joints total, body first)."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

# ``triangulate`` and ``unproject`` are not called here; they stay bound in
# this module because perfbench/spans.py wraps ``mocap.triangulate`` and
# ``mocap.unproject``.
from .cameras import (CameraModel, _camera_arrays, _camera_id,  # noqa: F401
                      _cameras_by_id, _normalized, triangulate,
                      triangulate_batch, unproject)
from .errors import (MALFORMED, BehindCameraError, EmptySelectionError,
                     ParameterError, _repeated, csv_rows, csv_text, finite_number,
                     non_numbers, reading)
from .geometry import _as_array, _freeze, _shaped
from .tracking import _window_slices

N_BODY = 25
N_HAND = 21
N_JOINTS = N_BODY + 2 * N_HAND  # 67
# each part of a person's keypoints: name in messages, JSON key, rows
_PARTS = (("body", "body", slice(0, N_BODY)),
          ("hand_left", "hand_l", slice(N_BODY, N_BODY + N_HAND)),
          ("hand_right", "hand_r", slice(N_BODY + N_HAND, N_JOINTS)))
_PART_SIZES = (N_BODY, N_HAND, N_HAND)


def _confidences_ok(kp: np.ndarray) -> bool:
    """Confidences of rows (u, v, confidence) all in [0, 1]."""
    conf = kp[..., 2]
    return bool((conf >= 0).all() and (conf <= 1).all())


def _checked_part(name: str, rows: slice, value) -> np.ndarray:
    """One part of a person's keypoints as an (n, 3) float array, or its
    first error: the array rule, then the confidences."""
    a = _as_array(value, f"{name} keypoints", (rows.stop - rows.start, 3))
    if not _confidences_ok(a):
        raise ParameterError(f"{name} confidences must be in [0, 1]")
    return a


def _person_by_parts(parts: list) -> np.ndarray:
    """A person's (67, 3) keypoints from its JSON parts, each part checked
    in ``_PARTS`` order, so an error names the first faulty one."""
    return np.vstack([_checked_part(name, rows, part)
                      for (name, _, rows), part in zip(_PARTS, parts)])


def _person(parts: list) -> np.ndarray:
    """``_person_by_parts(parts)``, converted and checked as one array; the
    parts are walked only when that check fails, to name the faulty one."""
    try:
        if tuple(map(len, parts)) == _PART_SIZES:
            a = _as_array(parts[0] + parts[1] + parts[2], "keypoints", (N_JOINTS, 3))
            if _confidences_ok(a):
                return a
    except (ParameterError, *MALFORMED):
        pass
    return _person_by_parts(parts)


@dataclass(frozen=True)
class Keypoint2DFrame:
    """One camera's 2D keypoints at one time: ``keypoints[p, j]`` is
    (u, v, confidence) of joint j of person p, body joints first."""

    camera_id: str
    t_s: float
    keypoints: np.ndarray  # (persons, 67, 3)

    def __post_init__(self):
        _camera_id(self.camera_id)
        if not finite_number(self.t_s, numbers.Real):
            raise ParameterError(f"keypoint frame t_s must be a finite number, "
                                 f"got {self.t_s!r}")
        kp = _as_array(self.keypoints, "keypoints", (None, N_JOINTS, 3))
        if not _confidences_ok(kp):
            raise ParameterError("keypoint confidences must be in [0, 1]")
        _freeze(self, keypoints=kp)

    def to_json(self) -> str:
        return json.dumps({
            "camera": self.camera_id,
            "t_s": self.t_s,
            "persons": [{key: person[rows].tolist() for _, key, rows in _PARTS}
                        for person in self.keypoints],
        })

    @classmethod
    def from_json(cls, text: str) -> "Keypoint2DFrame":
        o = json.loads(text)
        with reading("keypoint frame"):
            persons = []
            for p in o["persons"]:
                parts = [p[key] for _, key, _ in _PARTS]
                persons.append(_person(parts))
                if bad := non_numbers([v for rows in parts for row in rows for v in row]):
                    raise ValueError(f"keypoints must be finite numbers, got {bad[0]!r}")
            camera, t_s = o["camera"], float(o["t_s"])
            if not finite_number(o["t_s"]):  # "1.5" or true: the check names it
                t_s = o["t_s"]
            return cls(camera, t_s, np.reshape(persons, (-1, N_JOINTS, 3)))


@dataclass(frozen=True)
class Skeleton3DFrame:
    """Triangulated 67-joint skeleton at one timestamp. A valid joint's
    position and residual must be finite; an invalid joint's are free."""

    t_s: float
    positions: np.ndarray   # (67, 3) meters, undefined where invalid
    residuals_px: np.ndarray  # (67,)
    valid: np.ndarray       # (67,) bool

    def __post_init__(self):
        if not finite_number(self.t_s, numbers.Real):
            raise ParameterError(f"skeleton frame t_s must be a finite number, "
                                 f"got {self.t_s!r}")
        pos = _shaped(self.positions, "skeleton positions", (N_JOINTS, 3))
        res = _shaped(self.residuals_px, "skeleton residuals", (N_JOINTS,))
        val = _shaped(self.valid, "skeleton valid flags", (N_JOINTS,), bool)
        _as_array(pos[val], "skeleton positions of valid joints", (None, 3))
        _as_array(res[val], "skeleton residuals of valid joints", (None,))
        _freeze(self, positions=pos, residuals_px=res, valid=val)


def skeleton_track_to_csv(frames: list[Skeleton3DFrame]) -> str:
    return csv_text("t_s,joint_id,x_m,y_m,z_m,residual_px,valid", (
        row for fr in frames for row in zip(
            [float(fr.t_s)] * N_JOINTS, range(N_JOINTS), *fr.positions.T.tolist(),
            fr.residuals_px.tolist(), fr.valid.astype(int).tolist())))


def skeleton_track_from_csv(text: str) -> list[Skeleton3DFrame]:
    by_t: dict[float, dict] = {}  # rows per timestamp, in first-seen order
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
        if valid and non_numbers((x, y, z, residual)):
            raise ParameterError(f"skeleton CSV line {n}: a valid joint's "
                                 f"position and residual must be finite")
        rows = by_t.setdefault(t, {})  # joint id -> row
        if j in rows:
            raise ParameterError(f"skeleton CSV line {n}: joint {j} at "
                                 f"t_s = {t!r} given twice")
        rows[j] = (x, y, z, residual, valid)
    frames = []
    for t, rows in by_t.items():
        a = np.zeros((N_JOINTS, 5))  # x, y, z, residual, valid; absent joints 0
        a[list(rows)] = list(rows.values())
        frames.append(Skeleton3DFrame(t, a[:, :3], a[:, 3], a[:, 4] == 1))
    return frames


# ---------------------------------------------------------------------------
# operations

def _camera_ids(frames: list[Keypoint2DFrame]) -> list[str]:
    """The camera id of each frame; two frames of one camera raise
    ParameterError."""
    ids = [fr.camera_id for fr in frames]
    if len(set(ids)) < len(ids):
        raise ParameterError(f"two keypoint frames of camera {_repeated(ids)!r} "
                             f"at t = {frames[0].t_s} s")
    return ids


def select_surgeon(frames: list[Keypoint2DFrame], cameras: list[CameraModel],
                   table_center) -> dict[str, int | None]:
    """Per-camera index of the person nearest the operating table.

    The confidence-weighted mean pixel of each person is lifted along the
    camera ray to the table center's camera-frame depth; the person whose
    lifted point is nearest ``table_center`` wins. The mean pixels of all
    cameras are undistorted in one call, and distances are measured in each
    camera's frame, where they equal the world distances.
    """
    frame_cameras = _cameras_by_id(cameras, _camera_ids(frames))
    counts = [len(fr.keypoints) for fr in frames]
    kp = np.concatenate([np.zeros((0, N_JOINTS, 3))]  # all persons, in order
                        + [fr.keypoints for fr in frames])
    seen = np.flatnonzero(kp[..., 2].sum(axis=1) > 0)  # nonzero confidence
    if not len(seen):
        raise EmptySelectionError("no person detected in any camera")
    slot = np.repeat(np.arange(len(frames)), counts)[seen]  # frame of each
    person = seen - np.cumsum([0] + counts)[slot]  # its index in that frame
    kp = kp[seen]
    w = kp[..., 2]
    mean_px = (kp[..., :2] * w[..., None]).sum(axis=1) / w.sum(axis=1)[:, None]
    rot, t, focal, center, dist = _camera_arrays(frame_cameras)
    table = (rot @ _as_array(table_center, "table center", (3,)) + t)[slot]
    if np.any(table[:, 2] <= 0):
        raise BehindCameraError("table center is behind a camera")
    xn = _normalized(mean_px, focal[slot], center[slot], dist[:, slot])
    lifted = np.column_stack([xn * table[:, 2:], table[:, 2]])
    gap = np.linalg.norm(lifted - table, axis=1)
    selection: dict[str, int | None] = {}
    for k, fr in enumerate(frames):
        rows = np.flatnonzero(slot == k)
        selection[fr.camera_id] = (int(person[rows[np.argmin(gap[rows])]])
                                   if len(rows) else None)
    return selection


def triangulate_skeleton(frames: list[Keypoint2DFrame],
                         selection: dict[str, int | None],
                         cameras: list[CameraModel]) -> Skeleton3DFrame:
    """Triangulate all 67 keypoints of the selected person in one batched
    solve (``cameras.triangulate_batch``).

    A joint is valid when observed with confidence >= 0.1 in at least two
    cameras and triangulation succeeds; failures become invalid flags. A
    selected index outside a frame's persons raises ``ParameterError``, and a
    selected person seen by a camera missing from ``cameras`` raises
    ``UnknownEntityError``.
    """
    if not frames:
        raise ParameterError("no keypoint frames given")
    t_s = frames[0].t_s
    if any(abs(f.t_s - t_s) > 1e-9 for f in frames):
        raise ParameterError("keypoint frames must share one timestamp")
    _camera_ids(frames)
    persons = {}
    for fr in frames:
        idx = selection.get(fr.camera_id)
        if idx is None:
            continue
        if not 0 <= idx < len(fr.keypoints):
            raise ParameterError(f"selected person {idx} of camera {fr.camera_id!r} "
                                 f"is not in 0..{len(fr.keypoints) - 1}")
        persons[fr.camera_id] = fr.keypoints[idx]
    kp = np.reshape(list(persons.values()), (-1, N_JOINTS, 3)).transpose(1, 0, 2)
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
