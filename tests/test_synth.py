"""Synthetic ground-truth generator: determinism, noise levels, export."""

import os

import numpy as np
import pytest

from twinfuse.errors import ParameterError
from twinfuse.fusion import MarkerSet
from twinfuse.geometry import invert
from twinfuse import synth
from twinfuse.mocap import (N_BODY, N_HAND, N_JOINTS, Keypoint2DFrame,
                            PersonDetection, Skeleton3DFrame)
from twinfuse.synth import (SynthConfig, export_bundle, generate, pose_error,
                            project_visible, true_relative_scan_pose)

from conftest import quat_angle_deg

SHORT = SynthConfig(seed=3, duration_s=0.5)


def test_config_validation():
    with pytest.raises(ParameterError):
        SynthConfig(marker_count=0)
    with pytest.raises(ParameterError):
        SynthConfig(visibility_min=10, visibility_max=5)
    with pytest.raises(ParameterError):
        SynthConfig(scan_sigma_m=-1.0)
    with pytest.raises(ParameterError):
        SynthConfig(duration_s=0.0)
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        SynthConfig(seed=-1)


@pytest.mark.parametrize("field, value, want", [
    ("seed", "zero", "an int"),
    ("seed", True, "an int"),
    ("marker_count", "5", "an int"),
    ("camera_count", 5.0, "an int"),
    ("duration_s", "2", "a number"),
    ("pixel_sigma_px", False, "a number"),
    ("room_extent_m", (7.0, 5.0), "3 positive numbers"),
    ("room_extent_m", (7.0, 5.0, 0.0), "3 positive numbers"),
    ("room_extent_m", (7.0, "5", 3.0), "3 positive numbers"),
    ("include_bystander", 1, "true or false"),
])
def test_config_rejects_wrong_type(field, value, want):
    with pytest.raises(ParameterError) as exc_info:
        SynthConfig(**{field: value})
    assert str(exc_info.value) == f"{field} must be {want}, got {value!r}"


def test_config_accepts_int_for_float_fields():
    cfg = SynthConfig(duration_s=2, room_extent_m=[7, 5, 3])
    assert cfg.duration_s == 2 and tuple(cfg.room_extent_m) == (7, 5, 3)


def test_config_json_round_trip():
    cfg = SynthConfig(seed=9, scan_count=3, skeleton_jitter_m=0.004)
    assert SynthConfig.from_json(cfg.to_json()) == cfg


def test_bundle_structure(default_bundle):
    b = default_bundle
    cfg = b.config
    assert len(b.scans) == cfg.scan_count
    assert len(b.cameras) == cfg.camera_count
    assert len(b.markers.positions) == cfg.marker_count
    for scan in b.scans:
        n = len(scan.markers.positions)
        assert cfg.visibility_min <= n <= cfg.visibility_max
        assert set(scan.markers.positions) <= set(b.markers.positions)
        assert scan.cloud.frame == scan.name
    n_samples = int(round(cfg.duration_s * cfg.rate_hz)) + 1
    assert len(b.instrument_track_true) == n_samples
    assert len(b.skeleton_true) == n_samples
    assert len(b.keypoint_frames) == n_samples
    assert all(len(per_cam) == cfg.camera_count for per_cam in b.keypoint_frames)


def test_same_seed_bit_identical():
    a = generate(SHORT)
    b = generate(SHORT)
    assert np.array_equal(a.room_cloud.points, b.room_cloud.points)
    for sa, sb in zip(a.scans, b.scans):
        assert np.array_equal(sa.cloud.points, sb.cloud.points)
        assert sa.markers.to_json() == sb.markers.to_json()
    assert a.instrument_track_noisy.to_csv() == b.instrument_track_noisy.to_csv()
    for fa, fb in zip(a.keypoint_frames, b.keypoint_frames):
        assert all(x.to_json() == y.to_json() for x, y in zip(fa, fb))
    assert {c: a.marker_pixels[c] for c in a.marker_pixels} == b.marker_pixels


def test_different_seeds_differ():
    a = generate(SHORT)
    b = generate(SynthConfig(seed=4, duration_s=0.5))
    assert not np.array_equal(a.scans[0].cloud.points, b.scans[0].cloud.points)


def test_entity_substreams_stable_under_more_scans():
    # adding scans must not perturb existing per-scan noise streams
    a = generate(SynthConfig(seed=5, scan_count=3, duration_s=0.5))
    b = generate(SynthConfig(seed=5, scan_count=5, duration_s=0.5))
    for i in range(3):
        assert np.array_equal(a.scans[i].cloud.points, b.scans[i].cloud.points)


def test_scan_clouds_match_true_poses(default_bundle):
    # denoised: transforming a scan cloud by its truth pose recovers the room
    b = default_bundle
    scan = b.scans[0]
    back = b.scan_poses[scan.name].apply_points(scan.cloud.points)
    err = np.linalg.norm(back - b.room_cloud.points, axis=1)
    # errors are pure scan noise: sigma * sqrt(3) per point on average
    assert np.percentile(err, 99) < 5 * b.config.scan_sigma_m * np.sqrt(3)


def test_scan_markers_match_truth(default_bundle):
    b = default_bundle
    for scan in b.scans:
        world = b.scan_poses[scan.name].apply_points(
            np.array(list(scan.markers.positions.values())))
        truth = np.array([b.markers.positions[k] for k in scan.markers.positions])
        assert np.max(np.linalg.norm(world - truth, axis=1)) < 6 * b.config.scan_sigma_m


def test_floor_is_dominant_plane_at_z0(default_bundle):
    pts = default_bundle.room_cloud.points
    floor = np.abs(pts[:, 2]) < 1e-9
    assert floor.sum() > 0.3 * len(pts)


def test_marker_pixels_reproject(default_bundle):
    b = default_bundle
    for cam in b.cameras:
        entries = b.marker_pixels[cam.id]
        assert len(entries) >= 6  # enough for PnP per camera
        ids = [mid for mid, _, _ in entries]
        truth = np.array([b.markers.positions[mid] for mid in ids])
        uv, mask = project_visible(cam, truth)
        noisy = np.array([[u, v] for _, u, v in entries])
        assert mask.all()
        err = np.linalg.norm(noisy - uv, axis=1)
        assert np.max(err) < 6 * b.config.pixel_sigma_px


def test_instrument_noise_level(default_bundle):
    b = default_bundle
    d = b.instrument_track_noisy.translations - b.instrument_track_true.translations
    assert 0 < d.std() < 3 * b.config.tracker_sigma_m
    angs = [quat_angle_deg(qa, qb) for qa, qb in
            zip(b.instrument_track_noisy.quats, b.instrument_track_true.quats)]
    assert 0 < max(angs) < 6 * b.config.tracker_rot_sigma_deg


def test_skeleton_true_valid_and_shaped(default_bundle):
    for fr in default_bundle.skeleton_true:
        assert fr.valid.all()
        assert fr.positions.shape == (N_JOINTS, 3)


def test_bystander_adds_second_person():
    cfg = SynthConfig(seed=1, duration_s=0.2, include_bystander=True)
    b = generate(cfg)
    assert all(len(fr.persons) == 2
               for per_cam in b.keypoint_frames for fr in per_cam)


# ---------------------------------------------------------------------------
# skeletons and 2D keypoints: the block generator against one frame at a time

def _skeleton_at_time(t, root, amp):
    """One frame's true skeleton, as the per-frame generator made it."""
    sway = amp * np.array([np.sin(2 * np.pi * 0.5 * t),
                           np.cos(2 * np.pi * 0.3 * t),
                           0.2 * np.sin(2 * np.pi * 0.9 * t)])
    body = synth._BODY25_TEMPLATE + root + sway
    left = body[7] + synth._HAND_OFFSETS @ np.diag([1.0, 1.0, -1.0])
    right = body[4] + synth._HAND_OFFSETS @ np.diag([-1.0, 1.0, -1.0])
    return np.vstack([body, left, right])


def _per_frame_skeletons(config, cameras):
    """(skeleton_true, keypoint_frames) made one frame, camera and person at
    a time, with one noise draw each: the reference for ``generate``."""
    n_samples = int(round(config.duration_s * config.rate_hz)) + 1
    times = np.arange(n_samples) / config.rate_hz
    table = synth.TABLE_CENTER
    surgeon_root = table * np.array([1, 1, 0]) + np.array([0.0, -0.55, 0.0])
    bystander_root = table * np.array([1, 1, 0]) + np.array([-1.2, 1.6, 0.0])
    skel_rng = synth._rng(config.seed, "skeleton")
    skeleton_true = []
    keypoint_frames = []
    for t in times:
        joints = _skeleton_at_time(t, surgeon_root, config.skeleton_motion_amp_m)
        if config.skeleton_jitter_m > 0:
            joints = joints + skel_rng.normal(0.0, config.skeleton_jitter_m,
                                              size=joints.shape)
        skeleton_true.append(Skeleton3DFrame(float(t), joints,
                                             np.zeros(N_JOINTS),
                                             np.ones(N_JOINTS, dtype=bool)))
        persons_3d = [joints]
        if config.include_bystander:
            persons_3d.append(_skeleton_at_time(t, bystander_root,
                                                config.skeleton_motion_amp_m))
        per_cam = []
        for cam in cameras:
            detections = []
            for p3d in persons_3d:
                uv, mask = project_visible(cam, p3d)
                uv = uv + skel_rng.normal(0.0, config.pixel_sigma_px, size=uv.shape)
                conf = np.where(mask, 0.9, 0.0)
                kp = np.column_stack([uv, conf])
                kp[~mask, :2] = 0.0
                detections.append(PersonDetection(kp[:N_BODY],
                                                  kp[N_BODY:N_BODY + N_HAND],
                                                  kp[N_BODY + N_HAND:]))
            per_cam.append(Keypoint2DFrame(cam.id, float(t), tuple(detections)))
        keypoint_frames.append(per_cam)
    return skeleton_true, keypoint_frames


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_skeletons(bundle, reference):
    skeleton_true, keypoint_frames = reference
    assert len(bundle.skeleton_true) == len(skeleton_true)
    for got, want in zip(bundle.skeleton_true, skeleton_true):
        assert type(got.t_s) is float and got.t_s == want.t_s
        for name in ("positions", "residuals_px", "valid"):
            assert _same_bits(getattr(got, name), getattr(want, name))
    assert len(bundle.keypoint_frames) == len(keypoint_frames)
    for got_cams, want_cams in zip(bundle.keypoint_frames, keypoint_frames):
        assert len(got_cams) == len(want_cams)
        for got, want in zip(got_cams, want_cams):
            assert got.camera_id == want.camera_id
            assert type(got.t_s) is float and got.t_s == want.t_s
            assert len(got.persons) == len(want.persons)
            for p, q in zip(got.persons, want.persons):
                for name in ("body", "hand_left", "hand_right"):
                    assert _same_bits(getattr(p, name), getattr(q, name))


@pytest.mark.parametrize("cameras", [1, 5])
@pytest.mark.parametrize("bystander", [False, True])
@pytest.mark.parametrize("frames", [1, 64, 65, 130])
def test_block_generator_matches_per_frame(frames, bystander, cameras):
    config = SynthConfig(seed=frames, duration_s=max(frames - 1, 0.3) / 30,
                         camera_count=cameras, include_bystander=bystander)
    bundle = generate(config)
    assert len(bundle.skeleton_true) == frames
    _assert_same_skeletons(bundle, _per_frame_skeletons(config, bundle.cameras))


@pytest.mark.parametrize("overrides", [
    {"skeleton_jitter_m": 0.01},
    {"pixel_sigma_px": 0.0},
    {"skeleton_jitter_m": 0.003, "pixel_sigma_px": 0.0},
], ids=["jitter", "no-pixel-noise", "jitter-no-pixel-noise"])
def test_block_generator_matches_per_frame_noise(overrides):
    config = SynthConfig(seed=4, duration_s=70 / 30, include_bystander=True,
                         **overrides)
    bundle = generate(config)
    _assert_same_skeletons(bundle, _per_frame_skeletons(config, bundle.cameras))


def test_project_visible_stacked_matches_rows():
    cam = synth._camera_rig(5)[4]
    rng = np.random.default_rng(5)
    # around the table, plus points behind the camera and outside the image
    points = synth.TABLE_CENTER + rng.uniform(-1.5, 1.5, size=(3, 2, N_JOINTS, 3))
    points[0, 0, :5] = cam.world_from_camera.apply_points(
        rng.uniform(-1, 1, size=(5, 3)) * [1, 1, 0] - [0, 0, 1])
    points[1, 1, :5] = cam.world_from_camera.apply_points(
        [[8.0, 0, 1], [0, 5.0, 1], [-9.0, -6.0, 2], [0, 0, 0.01], [0.1, 0, 0.06]])
    uv, mask = project_visible(cam, points)
    assert uv.shape == (3, 2, N_JOINTS, 2) and mask.shape == (3, 2, N_JOINTS)
    assert not mask[0, 0, :5].any() and not mask[1, 1, :5].any()
    assert mask.sum() > mask.size // 2
    for f in range(3):
        for p in range(2):
            row_uv, row_mask = project_visible(cam, points[f, p])
            assert _same_bits(uv[f, p], row_uv)
            assert _same_bits(mask[f, p], row_mask)
    one_uv, one_mask = project_visible(cam, points[2, 0, 7])
    assert one_uv.shape == (1, 2) and one_mask.shape == (1,)
    assert np.array_equal(one_uv[0], uv[2, 0, 7]) and one_mask[0] == mask[2, 0, 7]


def test_true_relative_scan_pose_identity(default_bundle):
    rel = true_relative_scan_pose(default_bundle, "scan2", "scan2")
    assert np.linalg.norm(rel.t) < 1e-12
    assert quat_angle_deg(rel.q, [1, 0, 0, 0]) < 1e-9


def test_pose_error_units(default_bundle):
    b = default_bundle
    p = b.scan_poses["scan0"]
    q = p.with_frames(p.from_frame, p.to_frame)
    t_mm, r_deg = pose_error(p, q)
    assert t_mm == 0.0 and r_deg < 1e-5


def test_export_bundle_layout(tmp_path, default_bundle):
    export_bundle(default_bundle, tmp_path)
    cfg = default_bundle.config
    scans = sorted(os.listdir(tmp_path / "scans"))
    assert len([s for s in scans if s.endswith(".ply")]) == cfg.scan_count
    assert len([s for s in scans if s.endswith("_markers.json")]) == cfg.scan_count
    cams = sorted(os.listdir(tmp_path / "cameras"))
    assert len([c for c in cams if c.endswith("_intrinsics.json")]) == cfg.camera_count
    assert (tmp_path / "reference_markers.json").exists()
    assert (tmp_path / "instrument_track.csv").exists()
    assert (tmp_path / "truth.json").exists()
    assert (tmp_path / "config.json").exists()
    n_kp = len(os.listdir(tmp_path / "keypoints"))
    assert n_kp == len(default_bundle.keypoint_frames) * cfg.camera_count
    # exported marker set parses back
    ref = MarkerSet.from_json((tmp_path / "reference_markers.json").read_text())
    assert set(ref.positions) == set(default_bundle.markers.positions)


def test_export_deterministic_bytes(tmp_path):
    b = generate(SHORT)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    export_bundle(b, d1)
    export_bundle(generate(SHORT), d2)
    for root, _, files in os.walk(d1):
        rel = os.path.relpath(root, d1)
        for name in files:
            p1 = os.path.join(root, name)
            p2 = os.path.join(d2, rel, name)
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read(), name
