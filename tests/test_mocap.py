"""Person selection, skeleton triangulation, and per-joint smoothing."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfuse.cameras import (CONFIDENCE_FLOOR, CameraIntrinsics, CameraModel,
                              PixelObservation, project, triangulate, unproject)
from twinfuse.errors import (DegenerateGeometryError, EmptySelectionError,
                             InsufficientViewsError, ParameterError,
                             UnknownEntityError)
from twinfuse.geometry import RigidTransform, invert
from twinfuse.mocap import (N_BODY, N_HAND, N_JOINTS, Keypoint2DFrame,
                            Skeleton3DFrame, _person, _person_by_parts,
                            select_surgeon,
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
    return kp


def _frames(cams, persons_by_cam, t_s=0.0):
    return [Keypoint2DFrame(c.id, t_s,
                            np.reshape(persons_by_cam[c.id], (-1, N_JOINTS, 3)))
            for c in cams]


# ---------------------------------------------------------------------------
# validation / serialization

def test_person_detection_shape_checks():
    for shape in ((N_JOINTS, 3), (1, 10, 3), (2, N_JOINTS, 2)):
        with pytest.raises(ParameterError, match=re.escape(
                f"keypoints must be an (N, 67, 3) array, got shape {shape}")):
            Keypoint2DFrame("cam0", 0.0, np.zeros(shape))
    for row, col, value, message in (
            (0, 2, 2.0, "keypoint confidences must be in [0, 1]"),
            (30, 2, -0.1, "keypoint confidences must be in [0, 1]"),
            (3, 0, np.nan, "keypoints must be finite"),
            (60, 1, np.inf, "keypoints must be finite")):
        kp = np.zeros((2, N_JOINTS, 3))
        kp[1, row, col] = value
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            Keypoint2DFrame("cam0", 0.0, kp)
    empty = Keypoint2DFrame("cam0", 0.0, np.zeros((0, N_JOINTS, 3)))
    assert empty.keypoints.shape == (0, N_JOINTS, 3)


_PART_ROWS = {"body": N_BODY, "hand_left": N_HAND, "hand_right": N_HAND}
_JSON_KEYS = {"body": "body", "hand_left": "hand_l", "hand_right": "hand_r"}


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


def _keypoint_json(parts):
    """A keypoint file with a valid person, then one made of ``parts``."""
    persons = [{_JSON_KEYS[name]: np.asarray(a).tolist() for name, a in p.items()}
               for p in (_faulty_parts({}), parts)]
    return json.dumps({"camera": "cam0", "t_s": 0.0, "persons": persons})


def _shape(name):
    n = _PART_ROWS[name]
    return f"{name} keypoints must be a ({n}, 3) array, got shape ({n - 1}, 3)"


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
    with pytest.raises(ParameterError) as exc_info:
        Keypoint2DFrame.from_json(_keypoint_json(_faulty_parts(faults)))
    assert str(exc_info.value) == message


def test_person_detection_rejects_non_numbers():
    text = _keypoint_json(_faulty_parts({"hand_left": "not-numbers"}))
    with pytest.raises(ParameterError, match="^hand_left keypoints: could not convert "
                       "string to float: 'x'$"):
        Keypoint2DFrame.from_json(text)


# faults that the one-array check of a person must hand to the part walk
_PERSON_FAULTS = (
    lambda p, rng: p[rng.integers(3)].pop(),  # a part one row short
    lambda p, rng: p[2].append(p[1].pop()),  # 25 + 20 + 22 rows: 67 in all
    lambda p, rng: p[rng.integers(3)][3].pop(),  # a row of two values
    lambda p, rng: p[rng.integers(3)][2].append(0.5),  # a row of four values
    lambda p, rng: p[rng.integers(3)].__setitem__(1, [1.0, [2.0], 0.5]),
    lambda p, rng: p.__setitem__(rng.integers(3), "x" * 21),
    lambda p, rng: p.__setitem__(rng.integers(3), 5),
    lambda p, rng: p.__setitem__(rng.integers(3), {"u": 1}),
)
_VALUE_FAULTS = (np.nan, np.inf, -np.inf, 1.5, -1e-300, "x", "0.5", True, None,
                 10 ** 400, [0.5])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_person_check_matches_part_walk(seed):
    """The one-array check of a person's three parts returns what the part
    walk returns, or raises what it raises, on valid and faulty persons."""
    rng = np.random.default_rng(seed)
    parts = [rng.uniform(0, 1, (n, 3)).tolist() for n in _PART_ROWS.values()]
    for _ in range(rng.integers(0, 3)):  # up to two faulty values
        part = parts[rng.integers(3)]
        part[rng.integers(len(part))][rng.integers(3)] = \
            _VALUE_FAULTS[rng.integers(len(_VALUE_FAULTS))]
    if rng.random() < 0.5:  # and a fault in the layout
        _PERSON_FAULTS[rng.integers(len(_PERSON_FAULTS))](parts, rng)

    def outcome(check):
        try:
            return check(parts).tobytes()
        except Exception as exc:  # the message is the outcome
            return type(exc), str(exc)
    assert outcome(_person) == outcome(_person_by_parts)


@pytest.mark.parametrize("camera", [[], {}, None])
def test_keypoint_frame_camera_must_be_a_string(camera):
    text = json.dumps({"camera": camera, "t_s": 0.0, "persons": []})
    with pytest.raises(ParameterError, match="camera id must be a string"):
        Keypoint2DFrame.from_json(text)


def test_person_joint_indexing():
    """A keypoint file's parts stack body first, then the left and right hand."""
    parts = _faulty_parts({})
    kp = Keypoint2DFrame.from_json(_keypoint_json(parts)).keypoints
    assert kp.shape == (2, N_JOINTS, 3)
    assert np.array_equal(kp[1], np.vstack([parts["body"], parts["hand_left"],
                                            parts["hand_right"]]))


def test_keypoint_frame_json_round_trip():
    rng = np.random.default_rng(1)
    kp = rng.uniform(0, 1, (2, N_JOINTS, 3))
    text = Keypoint2DFrame("cam0", 1.25, kp).to_json()
    back = Keypoint2DFrame.from_json(text)
    assert back.camera_id == "cam0" and back.t_s == 1.25
    assert np.array_equal(back.keypoints, kp)
    person = json.loads(text)["persons"][1]
    assert list(person) == ["body", "hand_l", "hand_r"]
    assert person["hand_r"] == kp[1, N_BODY + N_HAND:].tolist()
    empty = Keypoint2DFrame("cam0", 0.0, np.zeros((0, N_JOINTS, 3))).to_json()
    assert Keypoint2DFrame.from_json(empty).keypoints.shape == (0, N_JOINTS, 3)


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


@pytest.mark.parametrize("t_s", [np.nan, np.inf, "0.1", True, None])
def test_skeleton_frame_rejects_non_finite_time(t_s):
    # before the check, scene.save wrote a NaN frame that scene.load refused
    with pytest.raises(ParameterError) as exc_info:
        Skeleton3DFrame(t_s, np.zeros((N_JOINTS, 3)), np.zeros(N_JOINTS),
                        np.ones(N_JOINTS, dtype=bool))
    assert str(exc_info.value) == (f"skeleton frame t_s must be a finite "
                                   f"number, got {t_s!r}")


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
    ("0.0,0,4,5,6,0.1,0", "joint 0 at t_s = 0.0 given twice"),
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
    # the frame keeps an invalid joint's values as given, a valid joint's
    # only finite, and its flags only as one per joint
    Skeleton3DFrame(0.0, frame.positions, frame.residuals_px, frame.valid)
    valid = frame.valid.copy()
    valid[1] = True
    for positions, residuals, message in (
            (frame.positions, frame.residuals_px, "skeleton positions of valid joints"),
            (np.nan_to_num(frame.positions), frame.residuals_px,
             "skeleton residuals of valid joints")):
        with pytest.raises(ParameterError, match=f"^{message} must be finite$"):
            Skeleton3DFrame(0.0, positions, residuals, valid)
    with pytest.raises(ParameterError, match=re.escape(
            "skeleton valid flags must be a (67,) array, got shape (1, 67)")):
        Skeleton3DFrame(0.0, frame.positions, frame.residuals_px, frame.valid[None])
    with pytest.raises(ParameterError, match="^skeleton positions: could not convert"):
        Skeleton3DFrame(0.0, "x", frame.residuals_px, frame.valid)


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


@pytest.mark.parametrize("table", [[np.nan, 0.0, 1.0], [0.0, 1.0], np.tile(TABLE, (2, 1))],
                         ids=["nan", "two-coordinates", "two-centres"])
def test_select_refuses_a_bad_table_center(table):
    """With a bystander in every camera: a NaN centre made every gap NaN, and
    argmin picked the bystander, person 0, without an error."""
    cams = _cameras()
    rng = np.random.default_rng(0)
    near = _skeleton_points(rng, TABLE)
    far = _skeleton_points(rng, TABLE + [1.8, 1.2, 0.0])
    persons = {c.id: [_person_from_points(c, far),
                      _person_from_points(c, near)] for c in cams}
    with pytest.raises(ParameterError, match="table center"):
        select_surgeon(_frames(cams, persons), cams, table)


def _select_reference(frames, cameras, table_center):
    """The per-person ``unproject`` loop that select_surgeon replaced."""
    by_id = {c.id: c for c in cameras}
    selection = {}
    for fr in frames:
        cam = by_id[fr.camera_id]
        if not len(fr.keypoints):
            selection[fr.camera_id] = None
            continue
        table_depth = invert(cam.world_from_camera).apply_points(
            table_center.reshape(1, 3))[0, 2]
        best, best_dist = None, np.inf
        for idx, kp in enumerate(fr.keypoints):
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
        assert max(len(fr.keypoints) for fr in per_cam) == 2
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
    persons = {c.id: [_person_from_points(c, points)] for c in cams}
    for (p,) in persons.values():
        p[3, 2] = 0.05  # below the confidence floor in every view
    frames = _frames(cams, persons)
    out = triangulate_skeleton(frames, select_surgeon(frames, cams, TABLE), cams)
    assert not out.valid[3]
    assert out.valid[4]


def test_skeleton_single_view_joint_invalid():
    cams = _cameras()
    rng = np.random.default_rng(2)
    points = _skeleton_points(rng, TABLE)
    persons = {c.id: [_person_from_points(c, points)] for c in cams}
    for c in cams[1:]:
        persons[c.id][0][7, 2] = 0.0  # joint 7 seen only by cam0
    frames = _frames(cams, persons)
    out = triangulate_skeleton(frames, select_surgeon(frames, cams, TABLE), cams)
    assert not out.valid[7]


def test_skeleton_timestamp_mismatch():
    cams = _cameras()
    rng = np.random.default_rng(3)
    points = _skeleton_points(rng, TABLE)
    persons = {c.id: [_person_from_points(c, points)] for c in cams}
    frames = _frames(cams, persons)
    frames[1] = Keypoint2DFrame(frames[1].camera_id, 99.0, frames[1].keypoints)
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
    persons = {fr.camera_id: fr.keypoints[sel[fr.camera_id]] for fr in per_cam
               if sel[fr.camera_id] is not None}
    for j in range(N_JOINTS):
        obs = [PixelObservation(cid, *p[j]) for cid, p in persons.items()
               if p[j, 2] >= CONFIDENCE_FLOOR]
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
        persons[c.id][0][5, 2] = 0.0
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


def test_skeleton_selected_index_outside_persons():
    # -1 would pick each camera's last person (the bystander); an index past
    # the end would drop the camera
    bundle = generate(SynthConfig(seed=0, duration_s=0.2, include_bystander=True))
    frames = bundle.keypoint_frames[0]
    cam, persons = frames[0].camera_id, len(frames[0].keypoints)
    for index in (-1, persons):
        selection = {**select_surgeon(frames, bundle.cameras, bundle.table_center),
                     cam: index}
        with pytest.raises(ParameterError, match=re.escape(
                f"selected person {index} of camera {cam!r} is not in "
                f"0..{persons - 1}")):
            triangulate_skeleton(frames, selection, bundle.cameras)


@pytest.mark.parametrize("solve", [
    lambda frames, cams: select_surgeon(frames, cams, TABLE),
    lambda frames, cams: triangulate_skeleton(frames, {c.id: 0 for c in cams},
                                              cams),
], ids=["select", "triangulate"])
def test_one_camera_given_twice(solve):
    cams = _cameras()
    points = _skeleton_points(np.random.default_rng(6), TABLE)
    frames = _frames(cams, {c.id: [_person_from_points(c, points)] for c in cams})
    with pytest.raises(ParameterError,
                       match="two keypoint frames of camera 'cam1' at t = 0.0 s"):
        solve(frames + [frames[1]], cams)
    with pytest.raises(ParameterError, match="two cameras with id 'cam1'"):
        solve(frames, cams + [cams[1]])


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
