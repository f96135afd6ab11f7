"""Marker RMSE, Chamfer distance, and reprojection statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfuse.cameras import CameraIntrinsics, CameraModel, project
from twinfuse.errors import (InsufficientCorrespondencesError, NoOverlapError,
                             ParameterError)
from twinfuse.fusion import MarkerSet
from twinfuse.geometry import PointCloud
from twinfuse.metrics import (chamfer, chamfer_one_sided, marker_rmse,
                              render_reprojection_table, reprojection_stats)

from conftest import look_at_camera_pose, random_transform

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# marker_rmse

def test_rmse_identical_sets_zero():
    m = MarkerSet("ref", {"A": np.zeros(3), "B": np.ones(3)})
    assert marker_rmse(m, m) == 0.0


def test_rmse_known_value():
    # residuals of 3 mm and 4 mm: RMS = sqrt((9 + 16) / 2) = sqrt(12.5) mm
    a = MarkerSet("ref", {"A": np.zeros(3), "B": np.zeros(3)})
    b = MarkerSet("ref", {"A": np.array([0.003, 0, 0]),
                          "B": np.array([0, 0.004, 0])})
    assert marker_rmse(a, b) == pytest.approx(np.sqrt(12.5), abs=1e-9)


def test_rmse_uses_common_ids_only():
    a = MarkerSet("ref", {"A": np.zeros(3), "X": np.full(3, 100.0)})
    b = MarkerSet("ref", {"A": np.array([0.001, 0, 0]), "Y": np.zeros(3)})
    assert marker_rmse(a, b) == pytest.approx(1.0, abs=1e-9)


def test_rmse_no_common_ids():
    a = MarkerSet("ref", {"A": np.zeros(3)})
    b = MarkerSet("ref", {"B": np.zeros(3)})
    with pytest.raises(InsufficientCorrespondencesError):
        marker_rmse(a, b)


@given(seeds)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_rmse_symmetric_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    ids = [f"M{i}" for i in range(6)]
    a = MarkerSet("ref", {i: rng.normal(size=3) for i in ids})
    b = MarkerSet("ref", {i: rng.normal(size=3) for i in ids})
    assert marker_rmse(a, b) == marker_rmse(b, a) >= 0.0


# ---------------------------------------------------------------------------
# chamfer

def test_chamfer_identical_clouds_zero():
    pts = np.random.default_rng(0).normal(size=(40, 3))
    cd, used, filt = chamfer(PointCloud(pts), PointCloud(pts), 0.1)
    assert cd == 0.0 and used == 80 and filt == 0


def test_chamfer_known_shift():
    # b is a copy of a shifted 2 mm along x with the grid much coarser
    # than the shift: every nearest neighbor is the shifted twin
    grid = np.array([[x, y, 0.0] for x in np.arange(0, 1.0, 0.1)
                     for y in np.arange(0, 1.0, 0.1)])
    a = PointCloud(grid)
    b = PointCloud(grid + [0.002, 0.0, 0.0])
    cd, used, filt = chamfer(a, b, 0.1)
    assert cd == pytest.approx(2.0, abs=1e-9)
    assert used == 2 * len(grid) and filt == 0


def test_chamfer_symmetric():
    rng = np.random.default_rng(1)
    a = PointCloud(rng.normal(size=(30, 3)))
    b = PointCloud(rng.normal(size=(25, 3)))
    assert chamfer(a, b, 10.0)[0] == chamfer(b, a, 10.0)[0]


def test_chamfer_cutoff_filters_outliers():
    base = np.random.default_rng(2).uniform(0, 0.2, size=(20, 3))
    a = PointCloud(np.concatenate([base, [[50.0, 0, 0]]]))
    b = PointCloud(base)
    cd, used, filt = chamfer(a, b, 0.1)
    assert cd == pytest.approx(0.0, abs=1e-9)
    assert filt == 1 and used == 40


def test_chamfer_all_filtered():
    a = PointCloud([[0.0, 0, 0]])
    b = PointCloud([[10.0, 0, 0]])
    with pytest.raises(NoOverlapError):
        chamfer(a, b, 0.1)


def test_chamfer_parameter_checks():
    cloud = PointCloud([[0.0, 0, 0]])
    with pytest.raises(ParameterError):
        chamfer(cloud, cloud, 0.0)
    with pytest.raises(Exception):
        chamfer(PointCloud(np.zeros((0, 3))), cloud, 0.1)


@pytest.mark.parametrize("max_dist_m", [float("nan"), float("inf")])
def test_chamfer_non_finite_cutoff(max_dist_m):
    cloud = PointCloud([[0.0, 0, 0]])
    with pytest.raises(ParameterError, match="finite positive"):
        chamfer(cloud, cloud, max_dist_m)
    with pytest.raises(ParameterError, match="finite positive"):
        chamfer_one_sided(cloud, cloud, max_dist_m)


@given(seeds)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_chamfer_rigid_invariance(seed):
    rng = np.random.default_rng(seed)
    a = PointCloud(rng.normal(size=(25, 3)))
    b = PointCloud(rng.normal(size=(25, 3)))
    g = random_transform(rng, "world", "world")
    cd1 = chamfer(a, b, 100.0)[0]
    cd2 = chamfer(PointCloud(g.apply_points(a.points)),
                  PointCloud(g.apply_points(b.points)), 100.0)[0]
    assert cd1 == pytest.approx(cd2, rel=1e-9)


def test_chamfer_one_sided_asymmetry():
    # a is a subset of b: a->b distance is zero, b->a is not
    b_pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    a = PointCloud(b_pts[:1])
    b = PointCloud(b_pts)
    assert chamfer_one_sided(a, b) == 0.0
    assert chamfer_one_sided(b, a) == pytest.approx(1000.0, abs=1e-9)


def test_chamfer_one_sided_optional_cutoff():
    a = PointCloud([[0.0, 0, 0], [5.0, 0, 0]])
    b = PointCloud([[0.0, 0, 0]])
    assert chamfer_one_sided(a, b) == pytest.approx(2500.0, abs=1e-9)
    assert chamfer_one_sided(a, b, max_dist_m=1.0) == 0.0


# ---------------------------------------------------------------------------
# reprojection_stats

def _camera(cam_id="cam0"):
    intr = CameraIntrinsics(fx=900.0, fy=900.0, cx=640.0, cy=360.0,
                            width=1280, height=720)
    pose = look_at_camera_pose([0.0, 0.0, 3.0], [0.0, 0.0, 0.0],
                               from_frame=f"camera:{cam_id}", to_frame="world")
    return CameraModel(cam_id, intr, pose)


def test_reprojection_exact_points_zero():
    cam = _camera()
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, size=(10, 3))
    mean, std = reprojection_stats(cam, pts, [project(cam, p) for p in pts])
    assert mean < 1e-9 and std < 1e-9


def test_reprojection_known_residuals():
    cam = _camera()
    pts = np.array([[0.0, 0, 0], [0.2, 0, 0], [0.0, 0.2, 0], [0.1, 0.1, 0]])
    shifts = np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    pixels = [project(cam, p) + s for p, s in zip(pts, shifts)]
    mean, std = reprojection_stats(cam, pts, pixels)
    norms = np.array([5.0, 1.0, 2.0, 0.0])
    assert mean == pytest.approx(norms.mean(), abs=1e-9)
    assert std == pytest.approx(norms.std(), abs=1e-9)


def test_reprojection_multi_camera():
    cams = [_camera("cam0"), _camera("cam1")]
    cams[1] = CameraModel("cam1", cams[1].intrinsics,
                          look_at_camera_pose([2.0, 1.0, 3.0], [0, 0, 0],
                                              from_frame="camera:cam1",
                                              to_frame="world"))
    p = np.array([0.05, -0.1, 0.2])
    for c in cams:
        mean, _ = reprojection_stats(c, [p], [project(c, p)])
        assert mean < 1e-9


def test_reprojection_empty_observations():
    assert reprojection_stats(_camera(), np.zeros((0, 3)),
                              np.zeros((0, 2))) == (0.0, 0.0)


def test_reprojection_table_layout():
    table = render_reprojection_table(
        {"cam0": (0.5, 0.1), "cam1": (0.7, 0.3)})
    lines = table.strip().splitlines()
    assert lines[0].split() == ["Camera", "cam0", "cam1", "Mean"]
    assert "0.60" in lines[2]  # mean of the per-camera means
    assert "0.20" in lines[3]


@pytest.mark.parametrize("max_dist_m", [True, "0.1", None])
def test_chamfer_cutoff_must_be_a_number(max_dist_m):
    cloud = PointCloud([[0.0, 0, 0]])
    with pytest.raises(ParameterError) as exc_info:
        chamfer(cloud, cloud, max_dist_m)
    assert str(exc_info.value) == (
        f"max_dist_m must be a finite positive number, got {max_dist_m!r}")


def test_chamfer_cutoff_accepts_numpy_scalars():
    cloud = PointCloud([[0.0, 0, 0]])
    for max_dist_m in (np.float32(0.1), np.float64(0.1), np.int64(1)):
        assert chamfer(cloud, cloud, max_dist_m) == (0.0, 2, 0)
        assert chamfer_one_sided(cloud, cloud, max_dist_m) == 0.0
