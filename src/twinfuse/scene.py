"""Digital-twin scene model: static and dynamic nodes in one reference frame,
time sampling, validation, and directory-based serialization."""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (MALFORMED, ManifestError, ParameterError, TwinfuseError,
                     finite_number, parse_file, write_file)
from .geometry import PointCloud, RigidTransform, _freeze, quat_slerp
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
        _freeze(self, frames=tuple(self.frames))


@dataclass(frozen=True)
class TwinScene:
    reference_frame: str
    static_nodes: tuple = ()
    dynamic_nodes: tuple = ()
    skeleton_nodes: tuple = ()
    time_range: tuple | None = None  # (t_min, t_max) or None if no tracks

    def __post_init__(self):
        _freeze(self, static_nodes=tuple(self.static_nodes),
                dynamic_nodes=tuple(self.dynamic_nodes),
                skeleton_nodes=tuple(self.skeleton_nodes))

    def node_names(self) -> list[str]:
        return ([n.name for n in self.static_nodes]
                + [n.name for n in self.dynamic_nodes]
                + [n.name for n in self.skeleton_nodes])


def _time_span(dynamic_nodes, skeleton_nodes) -> tuple | None:
    """(first, last) timestamp over every non-empty dynamic track and
    skeleton, or None when there is none."""
    times = []
    for node in dynamic_nodes:
        if len(node.track):
            times += [node.track.times[0], node.track.times[-1]]
    for node in skeleton_nodes:
        if node.frames:
            times += [node.frames[0].t_s, node.frames[-1].t_s]
    return (float(min(times)), float(max(times))) if times else None


def assemble(static_nodes=(), dynamic_nodes=(), skeleton_nodes=(),
             reference_frame: str = "reference") -> TwinScene:
    """Scene of the nodes, its time range spanning every track; raises
    TwinfuseError with the first violation ``validate`` finds."""
    dynamic_nodes, skeleton_nodes = tuple(dynamic_nodes), tuple(skeleton_nodes)
    scene = TwinScene(reference_frame, static_nodes, dynamic_nodes,
                      skeleton_nodes, _time_span(dynamic_nodes, skeleton_nodes))
    violations = validate(scene)
    if violations:
        raise TwinfuseError(violations[0])
    return scene


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
    Times outside the range, infinite ones too, are clamped (flagged); NaN
    and a value that is not a number raise ParameterError."""
    if not (finite_number(t, numbers.Real) or t in (-np.inf, np.inf)):
        raise ParameterError("sample time must not be NaN" if t != t
                             else f"sample time must be a number, got {t!r}")
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


def _name_violation(name) -> str | None:
    """The violation of a node name that cannot name a file inside the scene
    directory, where ``save`` writes ``<name>.ply`` and the like."""
    if isinstance(name, str) and (name in ("", ".", "..")
                                  or any(c in name for c in "/\\\0")):
        return (f"node name {name!r} is empty, '.' or '..', or holds a path "
                f"separator or NUL")
    return None


def _unencodable(name: str, file_name: str) -> str | None:
    """The violation of a file name of node ``name`` that the file system
    encoding cannot encode, as a non-ASCII name under an ASCII locale."""
    try:
        os.fsencode(file_name)
    except UnicodeEncodeError:
        return (f"node {name!r}: file name {file_name!r} cannot be encoded in "
                f"the file system encoding {sys.getfilesystemencoding()!r}")
    return None


def validate(scene: TwinScene, base_dir=None) -> list[str]:
    """List of invariant violations; empty iff the scene is consistent.
    Unit quaternions and a dynamic track's time order are the node types'
    own invariants (``RigidTransform`` normalises, ``PoseTrack`` raises)."""
    names = scene.node_names()
    violations = [v for v in map(_name_violation, names) if v]
    for n in sorted({n for n in names if names.count(n) > 1}):
        violations.append(f"duplicate node name: {n!r}")
    placed = ([("static", n, "pose", n.pose.to_frame) for n in scene.static_nodes]
              + [("dynamic", n, "track", n.track.frame) for n in scene.dynamic_nodes])
    for kind, node, held, frame in placed:
        if frame != scene.reference_frame:
            violations.append(f"{kind} node {node.name!r}: {held} frame {frame!r} "
                              f"!= {scene.reference_frame!r}")
        if isinstance(node.asset, str) and base_dir is not None:
            if not os.path.exists(os.path.join(base_dir, node.asset)):
                violations.append(f"{kind} node {node.name!r}: missing asset "
                                  f"{node.asset!r}")
    for node in scene.skeleton_nodes:
        ts = [f.t_s for f in node.frames]
        if len(ts) > 1 and np.any(np.diff(ts) <= 0):
            violations.append(f"skeleton node {node.name!r}: non-monotonic timestamps")
    # save does not write time_range: load recomputes it
    if scene.time_range != _time_span(scene.dynamic_nodes, scene.skeleton_nodes):
        violations.append("time_range is not the span of the track timestamps")
    return violations


# ---------------------------------------------------------------------------
# serialization

def save(scene: TwinScene, directory) -> None:
    """Write manifest + assets. In-memory clouds become PLY files (float32);
    string assets are recorded as opaque relative paths. A node name that
    ``validate`` refuses as a file name raises TwinfuseError before anything
    is written, also for a scene built without ``assemble``; one whose file
    name the file system encoding cannot encode raises ManifestError."""
    if bad := [v for v in map(_name_violation, scene.node_names()) if v]:
        raise TwinfuseError(bad[0])
    named = [(n.name, f"{n.name}.ply") for n in (*scene.static_nodes, *scene.dynamic_nodes)
             if isinstance(n.asset, PointCloud)]
    named += [(n.name, f"{n.name}_track.csv") for n in scene.dynamic_nodes]
    named += [(n.name, f"{n.name}_skeleton.csv") for n in scene.skeleton_nodes]
    if bad := [v for name, rel in named if (v := _unencodable(name, rel))]:
        raise ManifestError(bad[0])
    os.makedirs(directory, exist_ok=True)

    def entry(node, **fields):
        """Manifest entry of a static or dynamic node; a cloud asset is
        saved as ``<name>.ply``."""
        cloud = isinstance(node.asset, PointCloud)
        if cloud:
            save_ply(os.path.join(directory, f"{node.name}.ply"), node.asset)
        return {"name": node.name, "asset": f"{node.name}.ply" if cloud
                else node.asset, "cloud": cloud, **fields}

    manifest = {"version": MANIFEST_VERSION,
                "reference_frame": scene.reference_frame,
                "static": [], "dynamic": [], "skeletons": []}
    for node in scene.static_nodes:
        manifest["static"].append(entry(node, pose={
            **node.pose.to_dict(), "from_frame": node.pose.from_frame,
            "to_frame": node.pose.to_frame}))
    for node in scene.dynamic_nodes:
        rel_track = f"{node.name}_track.csv"
        write_file(os.path.join(directory, rel_track), node.track.to_csv())
        manifest["dynamic"].append(entry(node, track=rel_track,
                                         track_frame=node.track.frame))
    for node in scene.skeleton_nodes:
        rel = f"{node.name}_skeleton.csv"
        write_file(os.path.join(directory, rel), skeleton_track_to_csv(list(node.frames)))
        manifest["skeletons"].append({"name": node.name, "track": rel})
    write_file(os.path.join(directory, MANIFEST_NAME), json.dumps(manifest, indent=2))


def load(directory) -> TwinScene:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        manifest = parse_file(path, json.loads)
    except FileNotFoundError:
        raise ManifestError(f"no manifest at {path}")
    except ParameterError as exc:
        raise ManifestError(str(exc)) from None
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path}: manifest is not a JSON object")
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise ManifestError(f"{path}: unknown manifest version {version!r} "
                            f"(supported: {MANIFEST_VERSION!r})")

    def field(obj, key, owner, expected=object):
        if not isinstance(obj, dict) or key not in obj:
            raise ManifestError(f"{path}: {owner} missing field {key!r}")
        if not isinstance(obj[key], expected):
            raise ManifestError(f"{path}: {owner} field {key!r} is not a "
                                f"{expected.__name__}")
        return obj[key]

    ref = field(manifest, "reference_frame", "manifest")
    for key in ("static", "dynamic", "skeletons"):
        if not isinstance(manifest.get(key, []), list):
            raise ManifestError(f"{path}: manifest field {key!r} is not a list")

    def read_name(entry, owner):
        name = field(entry, "name", owner, str)
        if violation := _name_violation(name):
            raise ManifestError(f"{path}: {violation}")
        return name

    def inside(rel, owner):
        """``rel`` joined to the directory; absolute or leaving it is refused."""
        norm = os.path.normpath(rel)
        if os.path.isabs(rel) or norm == os.pardir or norm.startswith(os.pardir + os.sep):
            raise ManifestError(f"{path}: {owner} path {rel!r} is outside "
                                f"the scene directory")
        return os.path.join(directory, rel)

    def encodable(rel, name):
        """Refuse ``rel``, a file of node ``name`` that ``load`` opens, if the
        file system encoding cannot encode it."""
        if violation := _unencodable(name, rel):
            raise ManifestError(f"{path}: {violation}")

    def read_asset(entry, name):
        asset = field(entry, "asset", f"node {name!r}", str)
        ply_path = inside(asset, f"node {name!r} asset")
        if entry.get("cloud"):
            encodable(asset, name)
            if not os.path.exists(ply_path):
                raise ManifestError(f"{path}: node {name!r} references "
                                    f"missing asset {ply_path}")
            return load_ply(ply_path, frame=ref)
        return asset

    def read_track(entry, name, kind, parse):
        rel = field(entry, "track", f"{kind} {name!r}", str)
        track_path = inside(rel, f"{kind} {name!r} track")
        encodable(rel, name)
        if not os.path.exists(track_path):
            raise ManifestError(f"{path}: {kind} {name!r} references "
                                f"missing track {track_path}")
        return parse_file(track_path, parse)

    static = []
    for entry in manifest.get("static", []):
        name = read_name(entry, "static node")
        obj = field(entry, "pose", f"static node {name!r}", dict)
        try:
            pose = RigidTransform.from_dict(obj, obj.get("from_frame", "src"),
                                            obj.get("to_frame", "dst"))
        except KeyError as exc:
            raise ManifestError(f"{path}: static node {name!r} "
                                f"missing field {exc}")
        except MALFORMED as exc:
            raise ManifestError(f"{path}: static node {name!r} pose: {exc}")
        static.append(StaticNode(name, read_asset(entry, name), pose))
    dynamic = []
    for entry in manifest.get("dynamic", []):
        name = read_name(entry, "dynamic node")
        frame = entry.get("track_frame", ref)
        track = read_track(entry, name, "node",
                           lambda text: PoseTrack.from_csv(text, frame=frame))
        dynamic.append(DynamicNode(name, read_asset(entry, name), track))
    skeletons = []
    for entry in manifest.get("skeletons", []):
        name = read_name(entry, "skeleton")
        frames = read_track(entry, name, "skeleton", skeleton_track_from_csv)
        skeletons.append(SkeletonNode(name, tuple(frames)))
    try:
        return assemble(static, dynamic, skeletons, reference_frame=ref)
    except TwinfuseError as exc:
        raise ManifestError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# structural equality (used by round-trip tests and determinism checks)

def _equal(a, b, as_float32=False) -> bool:
    """Equality of dataclasses field by field (``compare=False`` fields
    skipped), of tuples item by item, and of arrays and scalars by value;
    the arrays of a PointCloud compare at float32."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _equal(getattr(a, f.name), getattr(b, f.name), isinstance(a, PointCloud))
            for f in dataclasses.fields(a) if f.compare)
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(_equal(x, y, as_float32) for x, y in zip(a, b)))
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return bool(a == b)
    if as_float32:
        a, b = np.asarray(a, dtype=np.float32), np.asarray(b, dtype=np.float32)
    return bool(np.array_equal(a, b))


def scenes_equal(a: TwinScene, b: TwinScene) -> bool:
    """Structural equality of every node, frame and sample; cloud coordinates
    compared at float32 (the PLY storage precision)."""
    return _equal(a, b)
