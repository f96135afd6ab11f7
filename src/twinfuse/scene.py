"""Digital-twin scene model: static and dynamic nodes in one reference frame,
time sampling, validation, and directory-based serialization."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ManifestError, ParameterError, TwinfuseError
from .geometry import PointCloud, RigidTransform, quat_slerp
from .mocap import Skeleton3DFrame, skeleton_track_from_csv, skeleton_track_to_csv
from .ply import load_ply, save_ply
from .tracking import PoseTrack

MANIFEST_VERSION = "1"
MANIFEST_NAME = "scene.json"


@dataclass(frozen=True)
class StaticNode:
    name: str
    asset: PointCloud | str  # in-memory cloud, or an opaque asset path
    pose: RigidTransform


@dataclass(frozen=True)
class DynamicNode:
    name: str
    asset: PointCloud | str
    track: PoseTrack


@dataclass(frozen=True)
class SkeletonNode:
    name: str
    frames: tuple  # of Skeleton3DFrame, strictly increasing t_s

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))


@dataclass(frozen=True)
class TwinScene:
    reference_frame: str
    static_nodes: tuple = ()
    dynamic_nodes: tuple = ()
    skeleton_nodes: tuple = ()
    time_range: tuple | None = None  # (t_min, t_max) or None if no tracks

    def __post_init__(self):
        object.__setattr__(self, "static_nodes", tuple(self.static_nodes))
        object.__setattr__(self, "dynamic_nodes", tuple(self.dynamic_nodes))
        object.__setattr__(self, "skeleton_nodes", tuple(self.skeleton_nodes))

    def node_names(self) -> list[str]:
        return ([n.name for n in self.static_nodes]
                + [n.name for n in self.dynamic_nodes]
                + [n.name for n in self.skeleton_nodes])


def _track_end_times(scene: TwinScene) -> list[float]:
    """First and last timestamp of every non-empty dynamic track and skeleton."""
    times = []
    for node in scene.dynamic_nodes:
        if len(node.track):
            times += [node.track.times[0], node.track.times[-1]]
    for node in scene.skeleton_nodes:
        if node.frames:
            times += [node.frames[0].t_s, node.frames[-1].t_s]
    return times


def assemble(static_nodes=(), dynamic_nodes=(), skeleton_nodes=(),
             reference_frame: str = "reference") -> TwinScene:
    """Build and validate a scene; rejects duplicate names and frame mixups."""
    scene = TwinScene(reference_frame, tuple(static_nodes), tuple(dynamic_nodes),
                      tuple(skeleton_nodes), time_range=None)
    names = scene.node_names()
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise TwinfuseError(f"duplicate node names: {sorted(dupes)}")
    for node in scene.dynamic_nodes:
        if node.track.frame != reference_frame:
            raise TwinfuseError(
                f"node {node.name!r}: track frame {node.track.frame!r} "
                f"!= reference frame {reference_frame!r}")
    for node in scene.static_nodes:
        if node.pose.to_frame != reference_frame:
            raise TwinfuseError(
                f"node {node.name!r}: pose maps into {node.pose.to_frame!r}, "
                f"expected {reference_frame!r}")
    times = _track_end_times(scene)
    time_range = (float(min(times)), float(max(times))) if times else None
    return TwinScene(reference_frame, scene.static_nodes, scene.dynamic_nodes,
                     scene.skeleton_nodes, time_range)


@dataclass(frozen=True)
class SceneSnapshot:
    t_s: float
    clamped: bool
    poses: dict          # name -> RigidTransform (static + dynamic)
    skeletons: dict      # name -> Skeleton3DFrame


def _bracket(times, t: float) -> tuple[int, int, float]:
    """Samples ``i0 <= i1`` around time t and the weight ``alpha`` of i1;
    ``i0 == i1`` at a sample time and before the first or after the last."""
    i = int(np.searchsorted(times, t))
    if i < len(times) and times[i] == t:
        return i, i, 0.0
    i0, i1 = max(0, i - 1), min(len(times) - 1, i)
    if i0 == i1:
        return i0, i1, 0.0
    return i0, i1, (t - times[i0]) / (times[i1] - times[i0])


def _interp_pose(track: PoseTrack, t: float) -> RigidTransform:
    i0, i1, alpha = _bracket(track.times, t)
    if i0 == i1:
        return track.pose_at_index(i0)
    trans = (1 - alpha) * track.translations[i0] + alpha * track.translations[i1]
    q = quat_slerp(track.quats[i0], track.quats[i1], alpha)
    return RigidTransform(q, trans, from_frame="body", to_frame=track.frame)


def _interp_skeleton(frames, t: float) -> Skeleton3DFrame:
    i0, i1, alpha = _bracket([f.t_s for f in frames], t)
    a, b = frames[i0], frames[i1]
    if i0 == i1:
        return a
    pos = (1 - alpha) * a.positions + alpha * b.positions
    res = (1 - alpha) * a.residuals_px + alpha * b.residuals_px
    return Skeleton3DFrame(t, pos, res, a.valid & b.valid)


def sample_at(scene: TwinScene, t: float) -> SceneSnapshot:
    """Scene state at time t: static poses unchanged, dynamic poses
    lerp/slerp-interpolated, exact samples returned at exact timestamps.
    Times outside the range are clamped (flagged)."""
    clamped = False
    if scene.time_range is not None:
        lo, hi = scene.time_range
        if t < lo or t > hi:
            clamped = True
            t = min(max(t, lo), hi)
    poses = {n.name: n.pose for n in scene.static_nodes}
    skeletons = {}
    for node in scene.dynamic_nodes:
        if len(node.track) == 0:
            continue
        poses[node.name] = _interp_pose(node.track, t)
    for node in scene.skeleton_nodes:
        if node.frames:
            skeletons[node.name] = _interp_skeleton(node.frames, t)
    return SceneSnapshot(t, clamped, poses, skeletons)


def validate(scene: TwinScene, base_dir=None) -> list[str]:
    """List of invariant violations; empty iff the scene is consistent."""
    violations = []
    names = scene.node_names()
    for n in sorted({n for n in names if names.count(n) > 1}):
        violations.append(f"duplicate node name: {n!r}")
    for node in scene.static_nodes:
        if node.pose.to_frame != scene.reference_frame:
            violations.append(
                f"static node {node.name!r}: pose frame {node.pose.to_frame!r} "
                f"!= {scene.reference_frame!r}")
        if abs(np.linalg.norm(node.pose.q) - 1.0) > 1e-9:
            violations.append(f"static node {node.name!r}: non-unit quaternion")
        if isinstance(node.asset, str) and base_dir is not None:
            if not os.path.exists(os.path.join(base_dir, node.asset)):
                violations.append(f"static node {node.name!r}: missing asset "
                                  f"{node.asset!r}")
    for node in scene.dynamic_nodes:
        if node.track.frame != scene.reference_frame:
            violations.append(
                f"dynamic node {node.name!r}: track frame {node.track.frame!r} "
                f"!= {scene.reference_frame!r}")
        if len(node.track) > 1 and np.any(np.diff(node.track.times) <= 0):
            violations.append(f"dynamic node {node.name!r}: non-monotonic timestamps")
        norms = np.linalg.norm(node.track.quats, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            violations.append(f"dynamic node {node.name!r}: non-unit quaternion(s)")
        if isinstance(node.asset, str) and base_dir is not None:
            if not os.path.exists(os.path.join(base_dir, node.asset)):
                violations.append(f"dynamic node {node.name!r}: missing asset "
                                  f"{node.asset!r}")
    for node in scene.skeleton_nodes:
        ts = [f.t_s for f in node.frames]
        if len(ts) > 1 and np.any(np.diff(ts) <= 0):
            violations.append(f"skeleton node {node.name!r}: non-monotonic timestamps")
    if scene.time_range is not None:
        lo, hi = scene.time_range
        times = _track_end_times(scene)
        if times and (lo > min(times) or hi < max(times)):
            violations.append("time_range does not span all track timestamps")
    return violations


# ---------------------------------------------------------------------------
# serialization

def _pose_to_obj(t: RigidTransform) -> dict:
    return {"t_m": [float(x) for x in t.t], "q_wxyz": [float(x) for x in t.q],
            "from_frame": t.from_frame, "to_frame": t.to_frame}


def _pose_from_obj(o: dict) -> RigidTransform:
    return RigidTransform(np.asarray(o["q_wxyz"], dtype=float),
                          np.asarray(o["t_m"], dtype=float),
                          from_frame=o.get("from_frame", "src"),
                          to_frame=o.get("to_frame", "dst"))


def save(scene: TwinScene, directory) -> None:
    """Write manifest + assets. In-memory clouds become PLY files (float32);
    string assets are recorded as opaque relative paths."""
    os.makedirs(directory, exist_ok=True)

    def write_asset(name, asset):
        if isinstance(asset, PointCloud):
            rel = f"{name}.ply"
            save_ply(os.path.join(directory, rel), asset)
            return rel
        return asset

    manifest = {"version": MANIFEST_VERSION,
                "reference_frame": scene.reference_frame,
                "static": [], "dynamic": [], "skeletons": []}
    for node in scene.static_nodes:
        manifest["static"].append({
            "name": node.name,
            "asset": write_asset(node.name, node.asset),
            "cloud": isinstance(node.asset, PointCloud),
            "pose": _pose_to_obj(node.pose),
        })
    for node in scene.dynamic_nodes:
        rel_track = f"{node.name}_track.csv"
        with open(os.path.join(directory, rel_track), "w", newline="") as f:
            f.write(node.track.to_csv())
        manifest["dynamic"].append({
            "name": node.name,
            "asset": write_asset(node.name, node.asset),
            "cloud": isinstance(node.asset, PointCloud),
            "track": rel_track,
            "track_frame": node.track.frame,
        })
    for node in scene.skeleton_nodes:
        rel = f"{node.name}_skeleton.csv"
        with open(os.path.join(directory, rel), "w", newline="") as f:
            f.write(skeleton_track_to_csv(list(node.frames)))
        manifest["skeletons"].append({"name": node.name, "track": rel})
    with open(os.path.join(directory, MANIFEST_NAME), "w") as f:
        json.dump(manifest, f, indent=2)


def load(directory) -> TwinScene:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path) as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise ManifestError(f"no manifest at {path}")
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: malformed JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}")
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise ManifestError(f"{path}: unknown manifest version {version!r} "
                            f"(supported: {MANIFEST_VERSION!r})")
    ref = manifest["reference_frame"]

    def read_asset(entry):
        if entry.get("cloud"):
            ply_path = os.path.join(directory, entry["asset"])
            if not os.path.exists(ply_path):
                raise ManifestError(f"{path}: node {entry['name']!r} references "
                                    f"missing asset {ply_path}")
            return load_ply(ply_path, frame=ref)
        return entry["asset"]

    static = []
    for entry in manifest.get("static", []):
        try:
            pose = _pose_from_obj(entry["pose"])
        except KeyError as exc:
            raise ManifestError(f"{path}: static node {entry.get('name')!r} "
                                f"missing field {exc}")
        static.append(StaticNode(entry["name"], read_asset(entry), pose))
    dynamic = []
    for entry in manifest.get("dynamic", []):
        track_path = os.path.join(directory, entry["track"])
        if not os.path.exists(track_path):
            raise ManifestError(f"{path}: node {entry['name']!r} references "
                                f"missing track {track_path}")
        with open(track_path) as f:
            track = PoseTrack.from_csv(f.read(), frame=entry.get("track_frame", ref))
        dynamic.append(DynamicNode(entry["name"], read_asset(entry), track))
    skeletons = []
    for entry in manifest.get("skeletons", []):
        track_path = os.path.join(directory, entry["track"])
        if not os.path.exists(track_path):
            raise ManifestError(f"{path}: skeleton {entry['name']!r} references "
                                f"missing track {track_path}")
        with open(track_path) as f:
            frames = skeleton_track_from_csv(f.read())
        skeletons.append(SkeletonNode(entry["name"], tuple(frames)))
    return assemble(static, dynamic, skeletons, reference_frame=ref)


# ---------------------------------------------------------------------------
# structural equality (used by round-trip tests and determinism checks)

def _clouds_equal(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if len(a) != len(b) or a.frame != b.frame:
        return False
    if not np.array_equal(a.points.astype(np.float32), b.points.astype(np.float32)):
        return False
    ca = a.colors if a.colors is not None else None
    cb = b.colors if b.colors is not None else None
    if (ca is None) != (cb is None):
        return False
    return ca is None or np.array_equal(ca, cb)


def scenes_equal(a: TwinScene, b: TwinScene) -> bool:
    """Structural equality; cloud coordinates compared at float32 (the PLY
    storage precision)."""
    if a.reference_frame != b.reference_frame or a.time_range != b.time_range:
        return False
    if (len(a.static_nodes) != len(b.static_nodes)
            or len(a.dynamic_nodes) != len(b.dynamic_nodes)
            or len(a.skeleton_nodes) != len(b.skeleton_nodes)):
        return False
    for na, nb in zip(a.static_nodes, b.static_nodes):
        if na.name != nb.name or not _clouds_equal(na.asset, nb.asset):
            return False
        if not (np.array_equal(na.pose.q, nb.pose.q)
                and np.array_equal(na.pose.t, nb.pose.t)):
            return False
    for na, nb in zip(a.dynamic_nodes, b.dynamic_nodes):
        if na.name != nb.name or not _clouds_equal(na.asset, nb.asset):
            return False
        if not (np.array_equal(na.track.times, nb.track.times)
                and np.array_equal(na.track.quats, nb.track.quats)
                and np.array_equal(na.track.translations, nb.track.translations)):
            return False
    for na, nb in zip(a.skeleton_nodes, b.skeleton_nodes):
        if na.name != nb.name or len(na.frames) != len(nb.frames):
            return False
        for fa, fb in zip(na.frames, nb.frames):
            if fa.t_s != fb.t_s or not np.array_equal(fa.valid, fb.valid):
                return False
            if not (np.array_equal(fa.positions, fb.positions)
                    and np.array_equal(fa.residuals_px, fb.residuals_px)):
                return False
    return True
