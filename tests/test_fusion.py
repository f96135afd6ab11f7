"""Marker-based scan registration, cloud fusion, and post-processing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from twinfuse.errors import InsufficientCorrespondencesError, ParameterError
from twinfuse.fusion import (OUTLIER_K, MarkerSet, ScanRecord,
                             finalize_reference, fuse_scans, match_markers,
                             register_scan, remove_statistical_outliers,
                             voxel_downsample)
from twinfuse.geometry import PointCloud, RigidTransform, apply, invert, ransac_plane_inliers
from twinfuse import metrics
from twinfuse.metrics import _PARALLEL_MIN_PAIRS, _kd_tree, _nn_distances, chamfer
from twinfuse.synth import (SynthConfig, generate, pose_error,
                            true_relative_scan_pose)

from conftest import random_transform

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _markers(ids, offset=0.0, frame="a"):
    rng = np.random.default_rng(42)
    pos = rng.uniform(-1, 1, size=(26, 3))
    return MarkerSet(frame, {i: pos[ord(i) - ord("A")] + offset for i in ids})


# ---------------------------------------------------------------------------
# match_markers / register_scan

def test_match_identical_sets():
    a = _markers("ABCDE")
    b = _markers("ABCDE", frame="b")
    assert len(match_markers(a, b)) == 5


def test_match_subset_intersection():
    src = _markers("ABCDEFGHIJKLMN")            # 14 ids
    dst = _markers("ABCDEFGHIJKLMNOPQRSTU", frame="b")  # 21 ids
    pairs = match_markers(src, dst)
    assert len(pairs) == 14


def test_match_disjoint_sets():
    with pytest.raises(InsufficientCorrespondencesError):
        match_markers(_markers("ABC"), _markers("DEF", frame="b"))


def test_match_orders_by_id():
    src = _markers("CBA")
    dst = _markers("ABC", frame="b")
    pairs = match_markers(src, dst)
    expected = [src.positions[i] for i in "ABC"]
    assert all(np.array_equal(p[0], e) for p, e in zip(pairs, expected))


def test_register_scan_identity():
    markers = _markers("ABCDEF", frame="s")
    scan = ScanRecord("s", PointCloud(np.zeros((1, 3)), frame="s"), markers)
    t, rmse = register_scan(scan, MarkerSet("ref", markers.positions))
    assert rmse < 1e-9
    assert np.linalg.norm(t.t) < 1e-12


def test_register_scan_pose_recovery():
    # 13 visible markers, 2.5 mm noise on the moving side
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ref_pos = rng.uniform(-2, 2, size=(13, 3))
        truth = random_transform(rng, from_frame="ref", to_frame="s")
        ids = [f"M{i:02d}" for i in range(13)]
        ref = MarkerSet("ref", dict(zip(ids, ref_pos)))
        src_pos = truth.apply_points(ref_pos) + rng.normal(0, 0.0025, (13, 3))
        scan = ScanRecord("s", PointCloud(np.zeros((1, 3)), frame="s"),
                          MarkerSet("s", dict(zip(ids, src_pos))))
        t, _ = register_scan(scan, ref)
        t_mm, r_deg = pose_error(t, invert(truth))
        assert t_mm < 3.0 and r_deg < 0.2


def test_register_scan_rmse_band():
    # both marker sets noisy at 2.5 mm: RMSE lands in the 4-9 mm band
    vals = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        true_pos = rng.uniform(-2, 2, size=(13, 3))
        ids = [f"M{i:02d}" for i in range(13)]
        ref = MarkerSet("ref", dict(zip(
            ids, true_pos + rng.normal(0, 0.0025, (13, 3)))))
        truth = random_transform(rng, from_frame="ref", to_frame="s")
        src_pos = truth.apply_points(true_pos) + rng.normal(0, 0.0025, (13, 3))
        scan = ScanRecord("s", PointCloud(np.zeros((1, 3)), frame="s"),
                          MarkerSet("s", dict(zip(ids, src_pos))))
        _, rmse = register_scan(scan, ref)
        vals.append(rmse)
    assert 4.0 <= np.mean(vals) <= 9.0


@given(seeds)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_register_scan_rmse_rigid_invariance(seed):
    rng = np.random.default_rng(seed)
    ids = [f"M{i:02d}" for i in range(8)]
    ref_pos = rng.uniform(-1, 1, size=(8, 3))
    src_pos = ref_pos + rng.normal(0, 0.003, size=(8, 3))
    ref = MarkerSet("ref", dict(zip(ids, ref_pos)))
    scan = ScanRecord("s", PointCloud(np.zeros((1, 3)), frame="s"),
                      MarkerSet("s", dict(zip(ids, src_pos))))
    _, rmse = register_scan(scan, ref)
    g = random_transform(rng, "x", "y")
    ref_g = MarkerSet("ref", dict(zip(ids, g.apply_points(ref_pos))))
    scan_g = ScanRecord("s", PointCloud(np.zeros((1, 3)), frame="s"),
                        MarkerSet("s", dict(zip(ids, g.apply_points(src_pos)))))
    _, rmse_g = register_scan(scan_g, ref_g)
    assert abs(rmse - rmse_g) < 1e-9


# ---------------------------------------------------------------------------
# fuse_scans

def test_fuse_single_scan_passthrough():
    markers = _markers("ABC", frame="s")
    cloud = PointCloud(np.random.default_rng(0).normal(size=(10, 3)), frame="s")
    fused, report = fuse_scans([ScanRecord("s", cloud, markers)])
    assert report.rows == []
    assert report.reference_name == "s"
    assert np.array_equal(fused.points, cloud.points)


def test_fuse_synthetic_bundle(default_bundle):
    fused, report = fuse_scans(default_bundle.scans)
    assert len(report.rows) == 7
    for row in report.rows:
        truth = true_relative_scan_pose(default_bundle, row.name,
                                        report.reference_name)
        t_mm, r_deg = pose_error(row.transform, truth)
        assert t_mm < 5.0 and r_deg < 0.3
        assert row.rmse_mm >= 0 and row.chamfer_mm >= 0
    assert len(fused) == sum(len(s.cloud) for s in default_bundle.scans)


def test_fuse_reference_has_most_markers():
    counts = [12, 13, 13, 14, 12, 13, 12, 11]
    all_ids = [f"M{i:02d}" for i in range(21)]
    rng = np.random.default_rng(1)
    true_pos = rng.uniform(-2, 2, size=(21, 3))
    cloud_pts = rng.uniform(-2, 2, size=(30, 3))
    scans = []
    for i, n in enumerate(counts):
        ids = all_ids[:n]  # nested subsets: common count = min(n, ref count)
        frame = f"scan{i}"
        markers = MarkerSet(frame, {m: true_pos[all_ids.index(m)] for m in ids})
        scans.append(ScanRecord(frame, PointCloud(cloud_pts, frame=frame), markers))
    fused, report = fuse_scans(scans)
    assert report.reference_name == "scan3"  # the 14-marker scan
    assert [r.n_markers for r in report.rows] == [12, 13, 13, 12, 13, 12, 11]
    assert all(r.rmse_mm < 1e-9 for r in report.rows)


def test_fuse_determinism(default_bundle):
    f1, r1 = fuse_scans(default_bundle.scans)
    f2, r2 = fuse_scans(default_bundle.scans)
    assert np.array_equal(f1.points, f2.points)
    assert r1.to_json() == r2.to_json()


def test_fuse_report_table_shape(default_bundle):
    _, report = fuse_scans(default_bundle.scans)
    table = report.render_table()
    assert "RMSE (mm)" in table and "CD (mm)" in table and "# Markers" in table
    assert report.reference_name in table


def test_fuse_failure_names_scan():
    good = _markers("ABCDEF", frame="s0")
    bad = _markers("XYZ", frame="s1")
    scans = [ScanRecord("s0", PointCloud(np.zeros((1, 3)), frame="s0"), good),
             ScanRecord("s1", PointCloud(np.zeros((1, 3)), frame="s1"), bad)]
    with pytest.raises(InsufficientCorrespondencesError, match="s1"):
        fuse_scans(scans)


def test_fuse_empty_input():
    with pytest.raises(ParameterError):
        fuse_scans([])


@pytest.mark.parametrize("empty", ["s0", "s1"])  # the reference, another scan
def test_fuse_empty_scan_names_scan(empty):
    scans = [ScanRecord(name, PointCloud(np.zeros((0 if name == empty else 5, 3)),
                                         frame=name),
                        _markers("ABCDEF"[:6 - i], frame=name))
             for i, name in enumerate(["s0", "s1"])]
    with pytest.raises(ParameterError,
                       match=f"scan '{empty}': chamfer requires non-empty clouds"):
        fuse_scans(scans)


# ---------------------------------------------------------------------------
# finalize_reference

def test_finalize_centered_room_is_identity():
    from twinfuse.synth import _room_points
    room = PointCloud(_room_points(), frame="fused")
    final, t = finalize_reference(room)
    assert np.linalg.norm(t.t) < 0.005
    from twinfuse.geometry import rotation_angle_deg
    assert rotation_angle_deg(t.q, [1, 0, 0, 0]) < 0.1


def test_finalize_recovers_offset():
    from twinfuse.synth import _room_points
    room_pts = _room_points()
    base, _ = finalize_reference(PointCloud(room_pts, frame="fused"))
    offset = RigidTransform([1, 0, 0, 0], [1.0, 2.0, 0.5], "fused", "fused")
    moved, _ = finalize_reference(apply(offset, PointCloud(room_pts, frame="fused")))
    assert np.max(np.linalg.norm(base.points - moved.points, axis=1)) < 0.005


def test_finalize_floor_inliers_near_zero(default_bundle):
    fused, _ = fuse_scans(default_bundle.scans)
    final, _ = finalize_reference(fused)
    inliers = ransac_plane_inliers(final.points)
    z = np.abs(final.points[inliers][:, 2])
    assert np.mean(z <= 0.015) >= 0.99


# ---------------------------------------------------------------------------
# post-processing

def test_voxel_tiny_voxel_is_identity():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, size=(30, 3))
    out = voxel_downsample(PointCloud(pts), 1e-6)
    assert np.allclose(np.sort(out.points, axis=0), np.sort(pts, axis=0))


def test_voxel_cube_collapses_to_centroid():
    corners = np.array([[x, y, z] for x in (0.0, 0.01)
                        for y in (0.0, 0.01) for z in (0.0, 0.01)])
    out = voxel_downsample(PointCloud(corners), 0.1)
    assert len(out) == 1
    assert np.allclose(out.points[0], [0.005, 0.005, 0.005])


def test_voxel_output_near_inputs():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(200, 3))
    voxel = 0.25
    out = voxel_downsample(PointCloud(pts), voxel)
    assert len(out) <= len(pts)
    for p in out.points:
        assert np.min(np.linalg.norm(pts - p, axis=1)) <= voxel * np.sqrt(3) / 2


def test_voxel_invalid_size():
    with pytest.raises(ParameterError):
        voxel_downsample(PointCloud([[0, 0, 0]]), 0.0)


def test_voxel_averages_colors():
    cloud = PointCloud([[0.0, 0, 0], [0.01, 0, 0]],
                       colors=[[0, 0, 0], [200, 100, 50]])
    out = voxel_downsample(cloud, 1.0)
    assert len(out) == 1
    assert np.array_equal(out.colors[0], [100, 50, 25])


def _voxel_reference(cloud, voxel_m):
    """Voxel centroids grouped by np.unique over (N, 3) key rows."""
    keys = np.floor(cloud.points / voxel_m).astype(np.int64)
    _, first_idx, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
    rank = np.empty(len(first_idx), dtype=np.int64)
    rank[np.argsort(first_idx, kind="stable")] = np.arange(len(first_idx))
    groups = rank[np.ravel(inverse)]
    n_vox = len(first_idx)
    counts = np.bincount(groups, minlength=n_vox).astype(float)

    def means(values):
        return np.column_stack([np.bincount(groups, weights=values[:, axis],
                                            minlength=n_vox) / counts
                                for axis in range(3)])

    colors = None
    if cloud.colors is not None:
        colors = np.clip(np.round(means(cloud.colors.astype(float))),
                         0, 255).astype(np.uint8)
    return means(cloud.points), colors


def _assert_voxel_exact(cloud, voxel_m):
    out = voxel_downsample(cloud, voxel_m)
    points, colors = _voxel_reference(cloud, voxel_m)
    assert out.points.tobytes() == points.tobytes()
    if colors is None:
        assert out.colors is None
    else:
        assert out.colors.tobytes() == colors.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, n=st.integers(1, 300),
       voxel_m=st.floats(1e-3, 2.0), scale=st.floats(1e-3, 10.0),
       with_colors=st.booleans())
def test_voxel_matches_row_unique_bit_for_bit(seed, n, voxel_m, scale,
                                              with_colors):
    # points centered on the origin (negative coordinates), about half of
    # them repeats of earlier points
    rng = np.random.default_rng(seed)
    base = rng.normal(scale=scale, size=(n, 3))
    pts = base[rng.integers(0, max(1, n // 2), size=n)]
    colors = rng.integers(0, 256, size=(n, 3)) if with_colors else None
    _assert_voxel_exact(PointCloud(pts, colors=colors), voxel_m)


def test_voxel_far_from_origin_matches_row_unique():
    # keys near 2**60 fit in int64; packed, they fit only after the offset
    rng = np.random.default_rng(5)
    pts = 2.0 ** 60 + rng.integers(-3, 3, size=(200, 3)) * 256.0
    _assert_voxel_exact(PointCloud(pts), 1.0)
    _assert_voxel_exact(PointCloud([[-2.0 ** 63, 0, 0]]), 1.0)


@pytest.mark.parametrize("voxel_m", [float("nan"), float("inf"), -1.0])
def test_voxel_non_finite_or_negative_size(voxel_m):
    with pytest.raises(ParameterError, match="finite positive"):
        voxel_downsample(PointCloud(np.zeros((50, 3))), voxel_m)


@pytest.mark.parametrize("voxel_m", [True, "0.1"])
def test_voxel_size_must_be_a_number(voxel_m):
    with pytest.raises(ParameterError) as exc_info:
        voxel_downsample(PointCloud(np.zeros((50, 3))), voxel_m)
    assert str(exc_info.value) == (
        f"voxel size must be a finite positive number, got {voxel_m!r}")


@pytest.mark.parametrize("points, voxel_m", [
    pytest.param(np.random.default_rng(6).uniform(0, 1, size=(50, 3)), 1e-300,
                 id="keys-overflow"),
    pytest.param([[1e300, 0, 0]], 1e-300, id="keys-infinite"),
    pytest.param([[2.0 ** 63, 0, 0]], 1.0, id="key-at-2**63"),
    pytest.param([[0, 0, 0], [1e6, 1e6, 1e6]], 0.1, id="packed-overflow"),
])
def test_voxel_keys_beyond_int64(points, voxel_m):
    with pytest.raises(ParameterError, match="int64 voxel keys"):
        voxel_downsample(PointCloud(points), voxel_m)


def test_outlier_removal_drops_lone_point():
    grid = np.array([[x, y, 0.0] for x in np.arange(0, 0.5, 0.05)
                     for y in np.arange(0, 0.5, 0.05)])
    pts = np.concatenate([grid, [[5.0, 5.0, 5.0]]])
    out = remove_statistical_outliers(PointCloud(pts))
    assert len(out) == len(grid)
    assert not any(np.allclose(p, [5, 5, 5]) for p in out.points)


def test_outlier_removal_keeps_uniform_grid():
    # on a 10 x 10 grid only the four corners have neighbours far enough
    # away to exceed mean + OUTLIER_STD_RATIO * std
    grid = np.array([[x, y, 0.0] for x in np.arange(0, 1.0, 0.1)
                     for y in np.arange(0, 1.0, 0.1)])
    out = remove_statistical_outliers(PointCloud(grid))
    assert np.array_equal(out.points, np.delete(grid, [0, 9, 90, 99], axis=0))


def test_outlier_removal_subset_and_params():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(60, 3))
    out = remove_statistical_outliers(PointCloud(pts))
    in_rows = {tuple(p) for p in pts}
    assert all(tuple(p) in in_rows for p in out.points)
    with pytest.raises(ParameterError, match="16 points too small for k=16"):
        remove_statistical_outliers(PointCloud(pts[:OUTLIER_K]))


@pytest.fixture(scope="module")
def dense_room(default_bundle):
    """The fused synth room, each scan with two extra copies of its points
    jittered by the scan noise."""
    rng = np.random.default_rng(7)
    scans = []
    for scan in default_bundle.scans:
        pts = scan.cloud.points
        jittered = [pts + rng.normal(0.0, default_bundle.config.scan_sigma_m,
                                     size=pts.shape) for _ in range(2)]
        scans.append(ScanRecord(scan.name, PointCloud(
            np.concatenate([pts] + jittered), frame=scan.cloud.frame),
            scan.markers))
    fused, _ = fuse_scans(scans)
    return fused


# The kNN references below build scipy's default (balanced) kd-tree and query
# it in input order on one thread; twinfuse builds sliding-midpoint trees,
# queries in leaf order on every CPU and writes each block back. Every check
# runs at the default block size and at 4,999 (point, neighbour) pairs per
# block, where a query takes many blocks and a short last one.
SMALL_BLOCK_PAIRS = 4999


def _block_sizes(monkeypatch):
    for pairs in (metrics._QUERY_BLOCK_PAIRS, SMALL_BLOCK_PAIRS):
        monkeypatch.setattr(metrics, "_QUERY_BLOCK_PAIRS", pairs)
        yield


def test_outlier_removal_matches_serial_query(dense_room, monkeypatch):
    pts = dense_room.points
    assert len(pts) * 17 >= _PARALLEL_MIN_PAIRS  # the threaded query
    d, _ = cKDTree(pts).query(pts, k=17, workers=1)
    mean_d = d[:, 1:].mean(axis=1)
    keep = mean_d <= mean_d.mean() + 2.0 * mean_d.std()
    assert 0 < keep.sum() < len(pts)
    for _ in _block_sizes(monkeypatch):
        out = remove_statistical_outliers(dense_room)
        assert out.points.tobytes() == pts[keep].tobytes()


@pytest.mark.parametrize("k", [1, 17])
def test_nn_distance_blocks_match_one_query(dense_room, monkeypatch, k):
    pts = dense_room.points
    query = pts[::2] + 0.003 if k == 1 else pts
    expected, _ = cKDTree(pts).query(query, k=k, workers=1)
    row_stat = None
    if k == 17:  # the outlier filter's per-row mean
        row_stat = lambda d: d[:, 1:].mean(axis=1)  # noqa: E731
        expected = row_stat(expected)
    tree = _kd_tree(pts)
    leaf_order = _kd_tree(query).indices
    assert not np.array_equal(leaf_order, np.arange(len(query)))
    assert len(query) * k > 2 * SMALL_BLOCK_PAIRS  # several small blocks
    for _ in _block_sizes(monkeypatch):
        for order in (None, leaf_order):
            got = _nn_distances(query, tree, k, order, row_stat)
            assert got.tobytes() == expected.tobytes()


def test_chamfer_matches_serial_query(dense_room, monkeypatch):
    a = dense_room.points[::2]
    b = dense_room.points[1::3] + 0.004
    assert min(len(a), len(b)) >= _PARALLEL_MIN_PAIRS  # threaded queries
    d_ab, _ = cKDTree(b).query(a, k=1, workers=1)
    d_ba, _ = cKDTree(a).query(b, k=1, workers=1)
    cutoff = 0.005
    assert (d_ab > cutoff).any() and (d_ba > cutoff).any()
    near_ab, near_ba = d_ab[d_ab <= cutoff], d_ba[d_ba <= cutoff]
    expected = (0.5 * (float(near_ab.mean()) + float(near_ba.mean())) * 1000.0,
                len(near_ab) + len(near_ba),
                len(a) + len(b) - len(near_ab) - len(near_ba))
    for _ in _block_sizes(monkeypatch):
        assert chamfer(PointCloud(a), PointCloud(b), cutoff) == expected


# ---------------------------------------------------------------------------
# MarkerSet serialization

def test_marker_set_json_round_trip():
    m = _markers("ABCD", frame="ref")
    back = MarkerSet.from_json(m.to_json())
    assert back.frame == m.frame
    assert set(back.positions) == set(m.positions)
    for k in m.positions:
        assert np.array_equal(back.positions[k], m.positions[k])


@pytest.mark.parametrize("ids, repeated", [
    (["M01", "M02", "M01"], "M01"),
    ([1, "2", "1"], "1"),  # ids are stored as strings
])
def test_marker_set_json_id_given_twice(ids, repeated):
    markers = [{"id": mid, "position_m": [float(k), 0.0, 1.0]}
               for k, mid in enumerate(ids)]
    text = json.dumps({"frame": "ref", "markers": markers})
    with pytest.raises(ParameterError, match=f"^two markers with id '{repeated}'$"):
        MarkerSet.from_json(text)


def test_marker_set_ids_equal_as_strings():
    with pytest.raises(ParameterError, match="^two markers with id '1'$"):
        MarkerSet("ref", {1: [0.0, 0.0, 1.0], "1": [1.0, 0.0, 1.0]})


def test_scan_record_frame_check():
    with pytest.raises(Exception, match="frame"):
        ScanRecord("s", PointCloud([[0, 0, 0]], frame="x"), _markers("ABC", frame="y"))
