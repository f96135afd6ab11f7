"""Scene assembly, time sampling, validation, and directory round trips."""

import json
import os

import numpy as np
import pytest

from twinfuse.errors import ManifestError, ParameterError, TwinfuseError
from twinfuse.geometry import PointCloud, RigidTransform
from twinfuse.mocap import N_JOINTS, Skeleton3DFrame
from twinfuse.scene import (DynamicNode, SkeletonNode, StaticNode, TwinScene,
                            _time_span, assemble, load, sample_at, save,
                            scenes_equal, validate)
from twinfuse.tracking import PoseTrack, smooth_track

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


_BAD_NAMES = ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"]


def _name_message(name):
    return (f"node name {name!r} is empty, '.' or '..', or holds a path "
            f"separator or NUL")


@pytest.mark.parametrize("kind", [StaticNode, DynamicNode, SkeletonNode])
@pytest.mark.parametrize("name", _BAD_NAMES)
def test_validate_and_assemble_refuse_names_that_are_no_file_name(kind, name):
    rng = np.random.default_rng(3)
    make = {StaticNode: _static, DynamicNode: _dynamic, SkeletonNode: _skeleton}
    nodes = [[make[k](rng, name)] if k is kind else []
             for k in (StaticNode, DynamicNode, SkeletonNode)]
    scene = TwinScene(REF, *nodes, _time_span(nodes[1], nodes[2]))
    assert validate(scene) == [_name_message(name)]
    with pytest.raises(TwinfuseError) as exc_info:
        assemble(*nodes)
    assert str(exc_info.value) == _name_message(name)


@pytest.mark.parametrize("name", ["../escaped", ".."])
def test_save_refuses_names_that_are_no_file_name(tmp_path, name):
    """A scene built without ``assemble`` writes nothing, inside the
    directory or beside it."""
    scene = TwinScene(REF, (_static(np.random.default_rng(5), name),))
    with pytest.raises(TwinfuseError) as exc_info:
        save(scene, tmp_path / "scene")
    assert str(exc_info.value) == _name_message(name)
    assert os.listdir(tmp_path) == []


def test_validate_keeps_plain_and_non_ascii_names():
    rng = np.random.default_rng(4)
    scene = assemble([_static(rng, "salle\u00e9"), _static(rng, "room.v2"),
                      _static(rng, "..room")])
    assert validate(scene) == []


def test_assemble_rejects_frame_mismatch():
    rng = np.random.default_rng(3)
    node = _dynamic(rng)
    bad = DynamicNode(node.name, node.asset,
                      PoseTrack("other", node.track.times, node.track.quats,
                                node.track.translations))
    with pytest.raises(TwinfuseError, match="frame"):
        assemble([], [bad])


def test_assemble_rejects_unordered_skeleton_frames():
    rng = np.random.default_rng(4)
    node = _skeleton(rng)
    frames = node.frames
    unordered = SkeletonNode(node.name, (frames[1], frames[0]) + frames[2:])
    with pytest.raises(TwinfuseError, match="^skeleton node 'surgeon': "
                                           "non-monotonic timestamps$"):
        assemble([], [], [unordered])


def test_unit_quaternion_tolerance_is_the_track_tolerance():
    # PoseTrack accepts a norm within UNIT_QUATERNION_TOL of 1, so the scene
    # checks must accept it too
    quats = np.array([[1.0 + 1e-7, 0, 0, 0], [1.0, 0, 0, 0]])
    node = DynamicNode("d", "asset.ply",
                       PoseTrack(REF, [0.0, 1.0], quats, np.zeros((2, 3))))
    scene = assemble([], [node])
    assert validate(scene) == []


def test_validate_clean_scene_empty():
    assert validate(_scene()) == []


def test_validate_reports_shrunk_time_range():
    scene = _scene()
    lo, hi = scene.time_range
    broken = TwinScene(scene.reference_frame, scene.static_nodes,
                       scene.dynamic_nodes, scene.skeleton_nodes,
                       (lo, hi - 0.01))
    assert any("time_range" in v for v in validate(broken))


@pytest.mark.parametrize("widen", [True, False], ids=["wider", "none-with-track"])
def test_validate_requires_the_exact_time_range(tmp_path, widen):
    # save does not write time_range, so only the exact span survives a
    # round trip; None with tracks would never clamp in sample_at
    scene = _scene()
    lo, hi = scene.time_range
    broken = TwinScene(scene.reference_frame, scene.static_nodes,
                       scene.dynamic_nodes, scene.skeleton_nodes,
                       (lo - 1.0, hi + 1.0) if widen else None)
    assert validate(broken) == ["time_range is not the span of the track "
                                "timestamps"]
    save(scene, tmp_path)
    assert validate(scene) == [] and scenes_equal(scene, load(tmp_path))


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


def test_sample_at_stored_times_returns_the_stored_poses(default_bundle):
    track = smooth_track(default_bundle.instrument_track_noisy, 5)
    scene = assemble(dynamic_nodes=[DynamicNode("drill", "drill.ply", track)])
    for i, t in enumerate(track.times):
        pose = sample_at(scene, t).poses["drill"]
        assert np.array_equal(pose.q, track.quats[i])
        assert np.array_equal(pose.t, track.translations[i])


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


def test_sample_refuses_nan_time():
    scene = _scene()
    with pytest.raises(ParameterError, match="sample time must not be NaN"):
        sample_at(scene, float("nan"))
    # a string used to raise numpy's TypeError
    for t in ("1.0", None, True):
        with pytest.raises(ParameterError, match=f"^sample time must be a number, got {t!r}$"):
            sample_at(scene, t)
    lo, hi = scene.time_range
    assert sample_at(scene, np.inf).t_s == hi and sample_at(scene, -np.inf).t_s == lo


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


def _set_quat(q):
    def set_quat(m):
        m["static"][0]["pose"]["q_wxyz"] = q
    return set_quat


@pytest.mark.parametrize("mutate, message", [
    (lambda m: m.pop("reference_frame"),
     "manifest missing field 'reference_frame'"),
    (lambda m: m["dynamic"][0].pop("name"),
     "dynamic node missing field 'name'"),
    (lambda m: m["dynamic"][0].pop("asset"),
     "node 'drill' missing field 'asset'"),
    (lambda m: m["dynamic"][0].pop("track"),
     "node 'drill' missing field 'track'"),
    (lambda m: m["skeletons"][0].pop("track"),
     "skeleton 'surgeon' missing field 'track'"),
    (_set_quat([0, 0, 0, 0]),
     "static node 'room' pose: cannot normalize zero/non-finite quaternion"),
    (_set_quat([float("nan"), 0, 0, 0]),
     "static node 'room' pose: cannot normalize zero/non-finite quaternion"),
    (_set_quat([1, 0, 0]),
     "static node 'room' pose: q must have shape (4,), got (3,)"),
    (lambda m: m.update(static=5), "manifest field 'static' is not a list"),
    (lambda m: m.update(skeletons={}),
     "manifest field 'skeletons' is not a list"),
    (lambda m: m["dynamic"][0].update(asset=5),
     "node 'drill' field 'asset' is not a str"),
    (lambda m: m["skeletons"][0].update(track=["a.csv"]),
     "skeleton 'surgeon' field 'track' is not a str"),
    (lambda m: m["static"][0].update(name=5),
     "static node field 'name' is not a str"),
], ids=["no-reference-frame", "node-no-name", "node-no-asset",
        "node-no-track", "skeleton-no-track", "zero-quat", "nan-quat",
        "short-quat", "static-not-list", "skeletons-not-list",
        "asset-not-string", "track-not-string", "name-not-string"])
def test_load_rejects_malformed_manifest(tmp_path, mutate, message):
    save(_scene(), tmp_path)
    _mutate_manifest(tmp_path, mutate)
    with pytest.raises(ManifestError) as exc_info:
        load(tmp_path)
    assert str(exc_info.value) == f"{tmp_path / 'scene.json'}: {message}"


@pytest.mark.parametrize("kind", ["static", "dynamic", "skeletons"])
@pytest.mark.parametrize("name", ["..", "../escaped", "a/b", ""])
def test_load_refuses_names_that_are_no_file_name(tmp_path, kind, name):
    save(_scene(), tmp_path)
    _mutate_manifest(tmp_path, lambda m: m[kind][0].update(name=name))
    with pytest.raises(ManifestError) as exc_info:
        load(tmp_path)
    assert str(exc_info.value) == f"{tmp_path / 'scene.json'}: {_name_message(name)}"


@pytest.mark.parametrize("kind, key, owner", [
    ("static", "asset", "node 'room' asset"),
    ("dynamic", "asset", "node 'drill' asset"),
    ("dynamic", "track", "node 'drill' track"),
    ("skeletons", "track", "skeleton 'surgeon' track"),
])
@pytest.mark.parametrize("where", ["absolute", "parent"])
def test_load_refuses_paths_outside_the_scene_directory(tmp_path, kind, key,
                                                        owner, where):
    """The file is there, moved beside the scene directory; load refuses it
    rather than read outside the directory."""
    directory = tmp_path / "scene"
    save(_scene(), directory)
    original = json.loads((directory / "scene.json").read_text())[kind][0][key]
    os.replace(directory / original, tmp_path / original)
    rel = str(tmp_path / original) if where == "absolute" else f"sub/../../{original}"
    _mutate_manifest(directory, lambda m: m[kind][0].update({key: rel}))
    with pytest.raises(ManifestError) as exc_info:
        load(directory)
    assert str(exc_info.value) == (f"{directory / 'scene.json'}: {owner} path "
                                   f"{rel!r} is outside the scene directory")


def test_load_accepts_relative_paths_that_stay_inside(tmp_path):
    scene = _scene()
    save(scene, tmp_path)
    os.makedirs(tmp_path / "meshes")
    os.replace(tmp_path / "room.ply", tmp_path / "meshes" / "room.ply")
    _mutate_manifest(tmp_path, lambda m: m["static"][0].update(
        asset="./meshes/../meshes/room.ply"))
    assert scenes_equal(load(tmp_path), scene)


def test_load_rejects_unordered_skeleton_csv(tmp_path):
    save(_scene(), tmp_path)
    csv = tmp_path / "surgeon_skeleton.csv"
    header, *rows = csv.read_text().splitlines()
    # the first frame's rows moved after the second frame's
    rows = rows[N_JOINTS:2 * N_JOINTS] + rows[:N_JOINTS] + rows[2 * N_JOINTS:]
    csv.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ManifestError) as exc_info:
        load(tmp_path)
    assert str(exc_info.value) == (f"{tmp_path / 'scene.json'}: skeleton node "
                                   f"'surgeon': non-monotonic timestamps")


def test_load_rejects_non_object_manifest(tmp_path):
    (tmp_path / "scene.json").write_text("[]")
    with pytest.raises(ManifestError) as exc_info:
        load(tmp_path)
    assert str(exc_info.value) == (f"{tmp_path / 'scene.json'}: "
                                   f"manifest is not a JSON object")


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


def test_scenes_equal_detects_pose_and_track_frames():
    a = _scene(13)
    room, drill = a.static_nodes[0], a.dynamic_nodes[0]
    moved_room = StaticNode(room.name, room.asset,
                            room.pose.with_frames(room.pose.from_frame, "other"))
    track = drill.track
    moved_drill = DynamicNode(drill.name, drill.asset, PoseTrack(
        "other", track.times, track.quats, track.translations))
    for static, dynamic in (((moved_room,), a.dynamic_nodes),
                            (a.static_nodes, (moved_drill,))):
        assert not scenes_equal(a, TwinScene(a.reference_frame, static, dynamic,
                                             a.skeleton_nodes, a.time_range))


def test_round_trip_keeps_poses_bit_for_bit(tmp_path):
    rng = np.random.default_rng(0)
    nodes = [StaticNode(f"n{i}", "asset.ply",
                        RigidTransform(rng.normal(size=4), rng.normal(size=3),
                                       f"n{i}", REF)) for i in range(20)]
    save(assemble(nodes), tmp_path)
    assert scenes_equal(assemble(nodes), load(tmp_path))
