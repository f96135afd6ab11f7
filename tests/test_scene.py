"""Scene assembly, time sampling, validation, and directory round trips."""

import json
import os

import numpy as np
import pytest

from twinfuse.errors import ManifestError, TwinfuseError
from twinfuse.geometry import PointCloud, RigidTransform
from twinfuse.mocap import N_JOINTS, Skeleton3DFrame
from twinfuse.scene import (DynamicNode, SkeletonNode, StaticNode, TwinScene,
                            assemble, load, sample_at, save, scenes_equal,
                            validate)
from twinfuse.tracking import PoseTrack

from conftest import quat_angle_deg, random_transform

REF = "reference"


def _static(rng, name="room"):
    cloud = PointCloud(rng.uniform(-2, 2, size=(30, 3)).astype(np.float32)
                       .astype(float), frame=REF)
    pose = random_transform(rng, from_frame=name, to_frame=REF)
    return StaticNode(name, cloud, pose)


def _dynamic(rng, name="drill", n=8):
    times = np.cumsum(rng.uniform(0.02, 0.05, n))
    quats = np.array([random_transform(rng).q for _ in range(n)])
    trans = rng.normal(size=(n, 3))
    cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(12, 3)).astype(np.float32)
                       .astype(float), frame=REF)
    return DynamicNode(name, cloud, PoseTrack(REF, times, quats, trans))


def _skeleton(rng, name="surgeon", n=6):
    frames = []
    for k in range(n):
        frames.append(Skeleton3DFrame(
            0.1 * (k + 1), rng.normal(size=(N_JOINTS, 3)),
            rng.uniform(0, 1, N_JOINTS), rng.uniform(0, 1, N_JOINTS) > 0.2))
    return SkeletonNode(name, tuple(frames))


def _scene(seed=0):
    rng = np.random.default_rng(seed)
    return assemble([_static(rng)], [_dynamic(rng)], [_skeleton(rng)])


# ---------------------------------------------------------------------------
# assemble / validate

def test_assemble_computes_time_range():
    scene = _scene()
    track = scene.dynamic_nodes[0].track
    sk = scene.skeleton_nodes[0].frames
    lo = min(track.times[0], sk[0].t_s)
    hi = max(track.times[-1], sk[-1].t_s)
    assert scene.time_range == (lo, hi)


def test_assemble_static_only_no_time_range():
    rng = np.random.default_rng(1)
    scene = assemble([_static(rng)])
    assert scene.time_range is None


def test_assemble_rejects_duplicate_names():
    rng = np.random.default_rng(2)
    with pytest.raises(TwinfuseError, match="duplicate"):
        assemble([_static(rng, "x")], [_dynamic(rng, "x")])


def test_assemble_rejects_frame_mismatch():
    rng = np.random.default_rng(3)
    node = _dynamic(rng)
    bad = DynamicNode(node.name, node.asset,
                      PoseTrack("other", node.track.times, node.track.quats,
                                node.track.translations))
    with pytest.raises(TwinfuseError, match="frame"):
        assemble([], [bad])


def test_validate_clean_scene_empty():
    assert validate(_scene()) == []


def test_validate_reports_bad_quaternion():
    scene = _scene()
    node = scene.dynamic_nodes[0]
    quats = np.array(node.track.quats)
    quats[0] = [2.0, 0, 0, 0]
    track = object.__new__(PoseTrack)
    object.__setattr__(track, "frame", node.track.frame)
    object.__setattr__(track, "times", node.track.times)
    object.__setattr__(track, "quats", quats)
    object.__setattr__(track, "translations", node.track.translations)
    broken = TwinScene(scene.reference_frame, scene.static_nodes,
                       (DynamicNode(node.name, node.asset, track),),
                       scene.skeleton_nodes, scene.time_range)
    assert any("non-unit quaternion" in v for v in validate(broken))


def test_validate_reports_shrunk_time_range():
    scene = _scene()
    lo, hi = scene.time_range
    broken = TwinScene(scene.reference_frame, scene.static_nodes,
                       scene.dynamic_nodes, scene.skeleton_nodes,
                       (lo, hi - 0.01))
    assert any("time_range" in v for v in validate(broken))


# ---------------------------------------------------------------------------
# sample_at

def test_sample_exact_timestamp():
    scene = _scene()
    track = scene.dynamic_nodes[0].track
    snap = sample_at(scene, float(track.times[3]))
    assert not snap.clamped
    pose = snap.poses["drill"]
    assert np.array_equal(pose.t, track.translations[3])
    assert quat_angle_deg(pose.q, track.quats[3]) < 1e-9


def test_sample_interpolates_translation():
    times = np.array([0.0, 1.0])
    quats = np.tile([1.0, 0, 0, 0], (2, 1))
    trans = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    node = DynamicNode("d", "asset.ply", PoseTrack(REF, times, quats, trans))
    scene = assemble([], [node])
    snap = sample_at(scene, 0.25)
    assert np.allclose(snap.poses["d"].t, [0.25, 0, 0])


def test_sample_slerp_rotation():
    from twinfuse.geometry import quat_from_axis_angle
    times = np.array([0.0, 1.0])
    quats = np.array([[1.0, 0, 0, 0],
                      quat_from_axis_angle([0, 0, 1], np.pi / 2)])
    trans = np.zeros((2, 3))
    node = DynamicNode("d", "asset.ply", PoseTrack(REF, times, quats, trans))
    scene = assemble([], [node])
    snap = sample_at(scene, 0.5)
    expected = quat_from_axis_angle([0, 0, 1], np.pi / 4)
    assert quat_angle_deg(snap.poses["d"].q, expected) < 1e-9


def test_sample_clamps_out_of_range():
    scene = _scene()
    lo, hi = scene.time_range
    snap = sample_at(scene, hi + 5.0)
    assert snap.clamped and snap.t_s == hi
    snap = sample_at(scene, lo - 5.0)
    assert snap.clamped and snap.t_s == lo


def test_sample_static_pose_constant():
    scene = _scene()
    lo, hi = scene.time_range
    p1 = sample_at(scene, lo).poses["room"]
    p2 = sample_at(scene, hi).poses["room"]
    assert np.array_equal(p1.t, p2.t) and np.array_equal(p1.q, p2.q)


def test_sample_skeleton_interpolation():
    scene = _scene()
    frames = scene.skeleton_nodes[0].frames
    t = 0.5 * (frames[0].t_s + frames[1].t_s)
    snap = sample_at(scene, t)
    sk = snap.skeletons["surgeon"]
    both = frames[0].valid & frames[1].valid
    assert np.array_equal(sk.valid, both)
    mid = 0.5 * (frames[0].positions + frames[1].positions)
    assert np.allclose(sk.positions[both], mid[both])


def test_sample_returns_stored_samples_at_and_past_node_ends():
    scene = _scene()
    track = scene.dynamic_nodes[0].track
    frames = scene.skeleton_nodes[0].frames
    assert sample_at(scene, frames[2].t_s).skeletons["surgeon"] is frames[2]
    # inside the scene's time range, each node clamps to its own end samples
    late = sample_at(scene, frames[-1].t_s)
    assert track.times[-1] < late.t_s and not late.clamped
    assert np.array_equal(late.poses["drill"].t, track.translations[-1])
    assert np.array_equal(late.poses["drill"].q, track.quats[-1])
    early = sample_at(scene, float(track.times[0]))
    assert early.t_s < frames[0].t_s and not early.clamped
    assert early.skeletons["surgeon"] is frames[0]


# ---------------------------------------------------------------------------
# save / load round trips

def test_round_trip_100_random_scenes(tmp_path):
    for seed in range(100):
        scene = _scene(seed)
        d = tmp_path / f"s{seed}"
        save(scene, d)
        assert scenes_equal(scene, load(d))


def test_round_trip_idempotent_bytes(tmp_path):
    scene = _scene(7)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save(scene, d1)
    save(load(d1), d2)
    for name in sorted(os.listdir(d1)):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_round_trip_string_assets(tmp_path):
    rng = np.random.default_rng(0)
    node = StaticNode("table", "assets/table.ply",
                      random_transform(rng, "table", REF))
    scene = assemble([node])
    save(scene, tmp_path)
    back = load(tmp_path)
    assert back.static_nodes[0].asset == "assets/table.ply"
    assert scenes_equal(scene, back)


# ---------------------------------------------------------------------------
# mutation detection

def _mutate_manifest(directory, fn):
    path = os.path.join(directory, "scene.json")
    with open(path) as f:
        manifest = json.load(f)
    fn(manifest)
    with open(path, "w") as f:
        json.dump(manifest, f)


def test_load_rejects_missing_manifest(tmp_path):
    with pytest.raises(ManifestError):
        load(tmp_path)


def test_load_rejects_malformed_json(tmp_path):
    save(_scene(), tmp_path)
    with open(tmp_path / "scene.json", "a") as f:
        f.write("{garbage")
    with pytest.raises(ManifestError, match="line"):
        load(tmp_path)


def test_load_rejects_unknown_version(tmp_path):
    save(_scene(), tmp_path)
    _mutate_manifest(tmp_path, lambda m: m.update(version="99"))
    with pytest.raises(ManifestError, match="version"):
        load(tmp_path)


def test_load_rejects_missing_asset(tmp_path):
    save(_scene(), tmp_path)
    os.remove(tmp_path / "room.ply")
    with pytest.raises(ManifestError, match="asset"):
        load(tmp_path)


def test_load_rejects_missing_track(tmp_path):
    save(_scene(), tmp_path)
    os.remove(tmp_path / "drill_track.csv")
    with pytest.raises(ManifestError, match="track"):
        load(tmp_path)


def test_load_rejects_missing_pose_field(tmp_path):
    save(_scene(), tmp_path)
    def drop_pose(m):
        del m["static"][0]["pose"]["q_wxyz"]
    _mutate_manifest(tmp_path, drop_pose)
    with pytest.raises(ManifestError, match="missing field"):
        load(tmp_path)


def test_scenes_equal_detects_point_change(tmp_path):
    a = _scene(11)
    save(a, tmp_path)
    b = load(tmp_path)
    pts = np.array(b.static_nodes[0].asset.points)
    pts[0, 0] += 0.001
    mutated = TwinScene(
        b.reference_frame,
        (StaticNode(b.static_nodes[0].name, PointCloud(pts, frame=REF),
                    b.static_nodes[0].pose),),
        b.dynamic_nodes, b.skeleton_nodes, b.time_range)
    assert not scenes_equal(a, mutated)


def test_scenes_equal_detects_renamed_node():
    a = _scene(12)
    renamed = TwinScene(
        a.reference_frame,
        (StaticNode("other", a.static_nodes[0].asset, a.static_nodes[0].pose),),
        a.dynamic_nodes, a.skeleton_nodes, a.time_range)
    assert not scenes_equal(a, renamed)
