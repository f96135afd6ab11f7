"""Person selection, skeleton triangulation, and per-joint smoothing."""

import json

import numpy as np
import pytest

from twinfuse.cameras import (CONFIDENCE_FLOOR, CameraIntrinsics, CameraModel,
                              PixelObservation, project, triangulate, unproject)
from twinfuse.errors import (DegenerateGeometryError, EmptySelectionError,
                             InsufficientViewsError, ParameterError,
                             UnknownEntityError)
from twinfuse.geometry import RigidTransform, invert
from twinfuse.mocap import (N_BODY, N_HAND, N_JOINTS, Keypoint2DFrame,
                            PersonDetection, Skeleton3DFrame, select_surgeon,
                            skeleton_track_from_csv, skeleton_track_to_csv,
                            smooth_skeleton, triangulate_skeleton)
from twinfuse.synth import SynthConfig, generate

from conftest import look_at_camera_pose

INTR = CameraIntrinsics(fx=900.0, fy=900.0, cx=640.0, cy=360.0,
                        width=1280, height=720)
TABLE = np.array([0.0, 0.0, 1.0])


def _cameras(n=4, radius=3.0, height=2.6):
    cams = []
    for i in range(n):
        ang = 2 * np.pi * i / n + 0.3
        pose = look_at_camera_pose(
            (radius * np.cos(ang), radius * np.sin(ang), height), TABLE,
            from_frame=f"camera:cam{i}", to_frame="world")
        cams.append(CameraModel(f"cam{i}", INTR, pose))
    return cams


def _skeleton_points(rng, center):
    """A loose 67-joint blob around a body center."""
    pts = center + rng.uniform(-0.3, 0.3, size=(N_JOINTS, 3))
    pts[:, 2] = np.clip(pts[:, 2], 0.3, 1.9)
    return pts


def _person_from_points(cam, points, confidence=1.0, noise=0.0, rng=None):
    kp = np.zeros((N_JOINTS, 3))
    for j, p in enumerate(points):
        uv = project(cam, p)
        if noise > 0:
            uv = uv + rng.normal(0, noise, size=2)
        kp[j] = [uv[0], uv[1], confidence]
    return PersonDetection(kp[:N_BODY], kp[N_BODY:N_BODY + N_HAND],
                           kp[N_BODY + N_HAND:])


def _frames(cams, persons_by_cam, t_s=0.0):
    return [Keypoint2DFrame(c.id, t_s, tuple(persons_by_cam[c.id]))
            for c in cams]


# ---------------------------------------------------------------------------
# validation / serialization

def test_person_detection_shape_checks():
    with pytest.raises(ParameterError):
        PersonDetection(np.zeros((10, 3)), np.zeros((N_HAND, 3)),
                        np.zeros((N_HAND, 3)))
    bad = np.zeros((N_BODY, 3))
    bad[0, 2] = 2.0
    with pytest.raises(ParameterError):
        PersonDetection(bad, np.zeros((N_HAND, 3)), np.zeros((N_HAND, 3)))
    for u, v in ((np.nan, 0.0), (0.0, np.inf)):
        hand = np.zeros((N_HAND, 3))
        hand[3, :2] = u, v
        with pytest.raises(ParameterError, match="hand_left keypoints must be finite"):
            PersonDetection(np.zeros((N_BODY, 3)), hand, np.zeros((N_HAND, 3)))


_PART_ROWS = {"body": N_BODY, "hand_left": N_HAND, "hand_right": N_HAND}


def _faulty_parts(faults):
    """Valid keypoints for each part, with one fault per named part: a row
    short, a NaN or inf pixel, a NaN confidence, a confidence out of range,
    or a value that is no array of numbers."""
    rng = np.random.default_rng(7)
    parts = {name: rng.uniform(0, 1, (n, 3)) for name, n in _PART_ROWS.items()}
    for name, fault in faults.items():
        a = parts[name]
        if fault == "shape":
            parts[name] = a[1:]
        elif fault == "not-numbers":
            parts[name] = "x"
        else:
            row, col, value = {"nan": (2, 0, np.nan), "inf": (3, 1, -np.inf),
                               "nan-conf": (4, 2, np.nan), "high": (5, 2, 1.5),
                               "low": (6, 2, -1e-300)}[fault]
            a[row, col] = value
    return parts


def _shape(name):
    n = _PART_ROWS[name]
    return f"{name} must have shape ({n}, 3), got ({n - 1}, 3)"


@pytest.mark.parametrize("faults, message", [
    *[({name: "shape"}, _shape(name)) for name in _PART_ROWS],
    *[({name: fault}, f"{name} keypoints must be finite")
      for name in _PART_ROWS for fault in ("nan", "inf", "nan-conf")],
    *[({name: fault}, f"{name} confidences must be in [0, 1]")
      for name in _PART_ROWS for fault in ("high", "low")],
    # the first part with any fault wins; in it, shape before values
    ({"body": "high", "hand_left": "shape"}, "body confidences must be in [0, 1]"),
    ({"body": "shape", "hand_right": "nan"}, _shape("body")),
    ({"hand_left": "shape", "hand_right": "nan"}, _shape("hand_left")),
    ({"body": "inf", "hand_left": "high"}, "body keypoints must be finite"),
    ({"hand_left": "low", "hand_right": "shape"},
     "hand_left confidences must be in [0, 1]"),
    ({"body": "nan", "hand_right": "high"}, "body keypoints must be finite"),
    ({"body": "shape", "hand_left": "not-numbers"}, _shape("body")),
    ({"hand_left": "high", "hand_right": "not-numbers"},
     "hand_left confidences must be in [0, 1]"),
])
def test_person_detection_first_error(faults, message):
    parts = _faulty_parts(faults)
    with pytest.raises(ParameterError) as exc_info:
        PersonDetection(**parts)
    assert str(exc_info.value) == message


def test_person_detection_rejects_non_numbers():
    with pytest.raises(ValueError, match="could not convert"):
        PersonDetection(**_faulty_parts({"hand_left": "not-numbers"}))


@pytest.mark.parametrize("camera", [[], {}, None])
def test_keypoint_frame_camera_must_be_a_string(camera):
    text = json.dumps({"camera": camera, "t_s": 0.0, "persons": []})
    with pytest.raises(ParameterError, match="camera id must be a string"):
        Keypoint2DFrame.from_json(text)


def test_person_joint_indexing():
    rng = np.random.default_rng(0)
    body = rng.uniform(0, 1, (N_BODY, 3))
    hl = rng.uniform(0, 1, (N_HAND, 3))
    hr = rng.uniform(0, 1, (N_HAND, 3))
    p = PersonDetection(body, hl, hr)
    joints = p.all_joints()
    assert joints.shape == (N_JOINTS, 3)
    assert np.array_equal(joints[0], body[0])
    assert np.array_equal(joints[N_BODY], hl[0])
    assert np.array_equal(joints[N_BODY + N_HAND + 5], hr[5])


def test_keypoint_frame_json_round_trip():
    rng = np.random.default_rng(1)
    p = PersonDetection(rng.uniform(0, 1, (N_BODY, 3)),
                        rng.uniform(0, 1, (N_HAND, 3)),
                        rng.uniform(0, 1, (N_HAND, 3)))
    fr = Keypoint2DFrame("cam0", 1.25, (p,))
    back = Keypoint2DFrame.from_json(fr.to_json())
    assert back.camera_id == "cam0" and back.t_s == 1.25
    assert np.array_equal(back.persons[0].body, p.body)
    assert np.array_equal(back.persons[0].hand_right, p.hand_right)


def test_skeleton_csv_round_trip():
    rng = np.random.default_rng(2)
    frames = [Skeleton3DFrame(0.1 * k, rng.normal(size=(N_JOINTS, 3)),
                              rng.uniform(0, 2, N_JOINTS),
                              rng.uniform(0, 1, N_JOINTS) > 0.3)
              for k in range(3)]
    back = skeleton_track_from_csv(skeleton_track_to_csv(frames))
    assert len(back) == 3
    for a, b in zip(frames, back):
        assert a.t_s == b.t_s
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.residuals_px, b.residuals_px)
        assert np.array_equal(a.valid, b.valid)


@pytest.mark.parametrize("row, message", [
    ("0.0,1", "expected 7 columns, got 2"),
    ("0.0,1,0.1,0.2,0.3,0.5,1,9", "expected 7 columns, got 8"),
    ("0.0,1,0.1,abc,0.3,0.5,1", "non-numeric value"),
    ("0.0,1.5,0.1,0.2,0.3,0.5,1", "non-numeric value"),
    ("0.0,67,0.1,0.2,0.3,0.5,1", "joint id 67 outside 0..66"),
    ("0.0,-1,0.1,0.2,0.3,0.5,1", "joint id -1 outside 0..66"),
    ("nan,1,0.1,0.2,0.3,0.5,1", "t_s must be finite"),
    ("inf,1,0.1,0.2,0.3,0.5,0", "t_s must be finite"),
    ("0.0,1,0.1,0.2,0.3,0.5,2", "valid must be 0 or 1, got 2"),
    ("0.0,1,0.1,0.2,0.3,0.5,-1", "valid must be 0 or 1, got -1"),
    ("0.0,1,nan,0.2,0.3,0.5,1",
     "a valid joint's position and residual must be finite"),
    ("0.0,1,0.1,0.2,0.3,inf,1",
     "a valid joint's position and residual must be finite"),
])
def test_skeleton_csv_rejects_bad_rows(row, message):
    text = "t_s,joint_id,x_m,y_m,z_m,residual_px,valid\n0.0,0,1,2,3,0.5,1\n\n"
    with pytest.raises(ParameterError, match=f"^skeleton CSV line 4: {message}$"):
        skeleton_track_from_csv(text + row + "\n")


def test_skeleton_csv_invalid_joint_is_undefined():
    text = ("t_s,joint_id,x_m,y_m,z_m,residual_px,valid\n"
            "0.0,0,1,2,3,0.5,1\n0.0,1,nan,nan,nan,inf,0\n")
    (frame,) = skeleton_track_from_csv(text)
    assert frame.valid[:2].tolist() == [True, False]
    assert np.isnan(frame.positions[1]).all()


# ---------------------------------------------------------------------------
# select_surgeon

def test_select_nearest_person_to_table():
    cams = _cameras()
    rng = np.random.default_rng(0)
    near = _skeleton_points(rng, TABLE)
    far = _skeleton_points(rng, TABLE + [1.8, 1.2, 0.0])
    persons = {c.id: [_person_from_points(c, far),
                      _person_from_points(c, near)] for c in cams}
    sel = select_surgeon(_frames(cams, persons), cams, TABLE)
    assert all(sel[c.id] == 1 for c in cams)


def test_select_empty_camera_gets_none():
    cams = _cameras()
    rng = np.random.default_rng(1)
    near = _skeleton_points(rng, TABLE)
    persons = {c.id: [_person_from_points(c, near)] for c in cams}
    persons[cams[0].id] = []
    sel = select_surgeon(_frames(cams, persons), cams, TABLE)
    assert sel[cams[0].id] is None
    assert all(sel[c.id] == 0 for c in cams[1:])


def test_select_no_person_anywhere():
    cams = _cameras()
    with pytest.raises(EmptySelectionError):
        select_surgeon(_frames(cams, {c.id: [] for c in cams}), cams, TABLE)


def test_select_unknown_camera_id():
    cams = _cameras()
    near = _skeleton_points(np.random.default_rng(2), TABLE)
    frames = _frames(cams, {c.id: [_person_from_points(c, near)] for c in cams})
    with pytest.raises(UnknownEntityError, match="'cam0'"):
        select_surgeon(frames, cams[1:], TABLE)


def _select_reference(frames, cameras, table_center):
    """The per-person ``unproject`` loop that select_surgeon replaced."""
    by_id = {c.id: c for c in cameras}
    selection = {}
    for fr in frames:
        cam = by_id[fr.camera_id]
        if not fr.persons:
            selection[fr.camera_id] = None
            continue
        table_depth = invert(cam.world_from_camera).apply_points(
            table_center.reshape(1, 3))[0, 2]
        best, best_dist = None, np.inf
        for idx, person in enumerate(fr.persons):
            kp = person.all_joints()
            w = kp[:, 2]
            if w.sum() <= 0:
                continue
            mean_px = (kp[:, :2] * w[:, None]).sum(axis=0) / w.sum()
            dist = np.linalg.norm(unproject(cam, mean_px, table_depth) - table_center)
            if dist < best_dist:
                best, best_dist = idx, dist
        selection[fr.camera_id] = best
    return selection


def test_select_matches_per_person_unproject():
    bundle = generate(SynthConfig(seed=0, duration_s=1.0, include_bystander=True))
    table = np.asarray(bundle.table_center, dtype=float)
    for per_cam in bundle.keypoint_frames:
        assert max(len(fr.persons) for fr in per_cam) == 2
        assert (select_surgeon(per_cam, bundle.cameras, table)
                == _select_reference(per_cam, bundle.cameras, table))


# ---------------------------------------------------------------------------
# triangulate_skeleton

def test_skeleton_noiseless_recovery():
    cams = _cameras()
    rng = np.random.default_rng(0)
    points = _skeleton_points(rng, TABLE)
    persons = {c.id: [_person_from_points(c, points)] for c in cams}
    frames = _frames(cams, persons)
    sel = select_surgeon(frames, cams, TABLE)
    out = triangulate_skeleton(frames, sel, cams)
    assert out.valid.all()
    assert np.max(np.linalg.norm(out.positions - points, axis=1)) < 1e-6
    assert np.max(out.residuals_px) < 1e-6


def test_skeleton_low_confidence_joint_invalid():
    cams = _cameras()
    rng = np.random.default_rng(1)
    points = _skeleton_points(rng, TABLE)
    persons = {}
    for c in cams:
        p = _person_from_points(c, points)
        body = np.array(p.body)
        body[3, 2] = 0.05  # below the confidence floor in every view
        persons[c.id] = [PersonDetection(body, p.hand_left, p.hand_right)]
    frames = _frames(cams, persons)
    out = triangulate_skeleton(frames, select_surgeon(frames, cams, TABLE), cams)
    assert not out.valid[3]
    assert out.valid[4]


def test_skeleton_single_view_joint_invalid():
    cams = _cameras()
    rng = np.random.default_rng(2)
    points = _skeleton_points(rng, TABLE)
    persons = {}
    for i, c in enumerate(cams):
        p = _person_from_points(c, points)
        body = np.array(p.body)
        if i > 0:
            body[7, 2] = 0.0  # joint 7 seen only by cam0
        persons[c.id] = [PersonDetection(body, p.hand_left, p.hand_right)]
    frames = _frames(cams, persons)
    out = triangulate_skeleton(frames, select_surgeon(frames, cams, TABLE), cams)
    assert not out.valid[7]


def test_skeleton_timestamp_mismatch():
    cams = _cameras()
    rng = np.random.default_rng(3)
    points = _skeleton_points(rng, TABLE)
    persons = {c.id: [_person_from_points(c, points)] for c in cams}
    frames = _frames(cams, persons)
    frames[1] = Keypoint2DFrame(frames[1].camera_id, 99.0, frames[1].persons)
    with pytest.raises(ParameterError):
        triangulate_skeleton(frames, {c.id: 0 for c in cams}, cams)


def test_skeleton_bundle_ground_truth(default_bundle):
    # the synthetic generator's own noiseless skeleton triangulates back
    cams = default_bundle.cameras
    per_cam = default_bundle.keypoint_frames[0]
    truth = default_bundle.skeleton_true[0]
    sel = select_surgeon(per_cam, cams, default_bundle.table_center)
    out = triangulate_skeleton(per_cam, sel, cams)
    mask = out.valid & truth.valid
    assert mask.sum() >= 0.8 * N_JOINTS
    err = np.linalg.norm(out.positions[mask] - truth.positions[mask], axis=1)
    assert np.median(err) < 0.02


def test_skeleton_batch_matches_per_joint_triangulate(default_bundle):
    cams = default_bundle.cameras
    per_cam = default_bundle.keypoint_frames[3]
    sel = select_surgeon(per_cam, cams, default_bundle.table_center)
    out = triangulate_skeleton(per_cam, sel, cams)
    persons = {fr.camera_id: fr.persons[sel[fr.camera_id]] for fr in per_cam
               if sel[fr.camera_id] is not None}
    for j in range(N_JOINTS):
        obs = [PixelObservation(cid, *p.all_joints()[j]) for cid, p in persons.items()
               if p.all_joints()[j, 2] >= CONFIDENCE_FLOOR]
        try:
            point, res = triangulate(obs, cams)
        except (DegenerateGeometryError, InsufficientViewsError):
            assert not out.valid[j]
            continue
        assert out.valid[j]
        assert np.linalg.norm(out.positions[j] - point) < 1e-9
        assert abs(out.residuals_px[j] - res) < 1e-9


def test_skeleton_near_parallel_joint_invalid_others_unchanged():
    cams = _cameras()
    pose = cams[0].world_from_camera
    cams.append(CameraModel("near", INTR, RigidTransform(
        pose.q, pose.t + [0, 1e-6, 0], from_frame="camera:near", to_frame="world")))
    rng = np.random.default_rng(4)
    points = _skeleton_points(rng, TABLE)
    persons = {c.id: [_person_from_points(c, points, noise=0.5, rng=rng)]
               for c in cams}
    frames = _frames(cams, persons)
    sel = {c.id: 0 for c in cams}
    base = triangulate_skeleton(frames, sel, cams)
    for c in cams[1:-1]:  # joint 5 keeps only cam0 and its near twin
        p = persons[c.id][0]
        body = np.array(p.body)
        body[5, 2] = 0.0
        persons[c.id] = [PersonDetection(body, p.hand_left, p.hand_right)]
    out = triangulate_skeleton(_frames(cams, persons), sel, cams)
    assert base.valid.all()
    assert not out.valid[5]
    others = np.arange(N_JOINTS) != 5
    assert out.valid[others].all()
    assert np.array_equal(out.positions[others], base.positions[others])
    assert np.array_equal(out.residuals_px[others], base.residuals_px[others])


def test_skeleton_unknown_camera_id():
    cams = _cameras()
    points = _skeleton_points(np.random.default_rng(5), TABLE)
    frames = _frames(cams, {c.id: [_person_from_points(c, points)] for c in cams})
    with pytest.raises(UnknownEntityError, match="'cam2'"):
        triangulate_skeleton(frames, {c.id: 0 for c in cams},
                             [c for c in cams if c.id != "cam2"])


# ---------------------------------------------------------------------------
# smooth_skeleton

def _jitter_track(rng, n=41, sigma=0.005):
    base = np.tile(TABLE, (N_JOINTS, 1))
    frames = []
    for k in range(n):
        pos = base + rng.normal(0, sigma, size=(N_JOINTS, 3))
        frames.append(Skeleton3DFrame(k / 30.0, pos, np.zeros(N_JOINTS),
                                      np.ones(N_JOINTS, dtype=bool)))
    return frames


def test_smooth_reduces_jitter_at_least_2x():
    rng = np.random.default_rng(0)
    track = _jitter_track(rng)
    out = smooth_skeleton(track, 5)
    # interior samples only: full windows of 5; jitter about the static truth
    base = np.tile(TABLE, (N_JOINTS, 1))
    raw = np.array([f.positions - base for f in track[2:-2]])
    smo = np.array([f.positions - base for f in out[2:-2]])
    assert raw.std() / smo.std() >= 2.0


def test_smooth_window_one_identity():
    rng = np.random.default_rng(1)
    track = _jitter_track(rng, n=5)
    out = smooth_skeleton(track, 1)
    assert all(np.array_equal(a.positions, b.positions)
               for a, b in zip(track, out))


def test_smooth_majority_invalid_stays_invalid():
    rng = np.random.default_rng(2)
    track = _jitter_track(rng, n=5)
    # joint 0 valid only in the middle frame
    frames = []
    for i, f in enumerate(track):
        val = np.array(f.valid)
        if i != 2:
            val[0] = False
        frames.append(Skeleton3DFrame(f.t_s, f.positions, f.residuals_px, val))
    out = smooth_skeleton(frames, 5)
    assert not out[2].valid[0]
    assert out[2].valid[1]


def test_smooth_preserves_timestamps():
    rng = np.random.default_rng(3)
    track = _jitter_track(rng, n=7)
    out = smooth_skeleton(track, 3)
    assert [f.t_s for f in out] == [f.t_s for f in track]


def _smooth_reference(track, window):
    """The per-joint loop that smooth_skeleton replaced."""
    if window == 1 or not track:
        return list(track)
    half = window // 2
    n = len(track)
    out = []
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        size = hi - lo
        pos = np.array(track[i].positions)
        res = np.array(track[i].residuals_px)
        val = np.zeros(N_JOINTS, dtype=bool)
        for j in range(N_JOINTS):
            vals = [track[k] for k in range(lo, hi) if track[k].valid[j]]
            if len(vals) <= size / 2:
                continue
            pos[j] = np.mean([f.positions[j] for f in vals], axis=0)
            res[j] = np.mean([f.residuals_px[j] for f in vals])
            val[j] = True
        out.append(Skeleton3DFrame(track[i].t_s, pos, res, val))
    return out


@pytest.mark.parametrize("window", [1, 3, 5, 7])
def test_smooth_matches_reference_loop(window):
    rng = np.random.default_rng(window)
    track = [Skeleton3DFrame(k / 30.0, rng.normal(0, 2.0, size=(N_JOINTS, 3)),
                             rng.gamma(2.0, 0.7, size=N_JOINTS),
                             rng.random(N_JOINTS) > 0.3)
             for k in range(23)]
    out = smooth_skeleton(track, window)
    ref = _smooth_reference(track, window)
    assert len(out) == len(ref)
    for a, b in zip(out, ref):
        assert a.t_s == b.t_s
        assert np.array_equal(a.valid, b.valid)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.residuals_px, b.residuals_px)


def test_smooth_invalid_window():
    with pytest.raises(ParameterError):
        smooth_skeleton([], 4)
