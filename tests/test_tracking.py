"""Sphere fits, marker-array registration, ICP, and pose-track smoothing."""

import itertools
import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from twinfuse import tracking
from twinfuse.errors import (AmbiguityError, CorrespondenceError, DegenerateGeometryError,
                             InsufficientCorrespondencesError, NoOverlapError,
                             ParameterError, positive_number)
from twinfuse.geometry import PointCloud, RigidTransform, compose, invert, kabsch
from twinfuse.tracking import (MAX_CANDIDATES, MarkerArrayGeometry, PoseTrack,
                               _consistent_permutations,
                               fit_sphere_fixed_radius, icp,
                               register_marker_array, smooth_track)
from twinfuse.geometry import quat_normalize
from twinfuse.synth import SynthConfig, generate, pose_error

from conftest import (assert_jacobian_matches, captured_model, quat_angle_deg, random_transform,
                      transforms_close)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

RADIUS = 0.0015  # 3 mm diameter marker hemispheres

# an asymmetric four-marker array: all pairwise distances distinct
ARRAY = MarkerArrayGeometry(np.array([
    [0.000, 0.000, 0.000],
    [0.110, 0.000, 0.000],
    [0.030, 0.085, 0.000],
    [0.060, 0.030, 0.070],
]), radius_m=RADIUS)


def _hemisphere_points(center, radius, rng, n=60, noise=0.0):
    """Sample the +z hemisphere of a sphere around an arbitrary axis."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    pts = []
    while len(pts) < n:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if v @ axis > 0.05:
            pts.append(center + radius * v)
    pts = np.asarray(pts)
    if noise > 0:
        pts = pts + rng.normal(0, noise, size=pts.shape)
    return pts


# ---------------------------------------------------------------------------
# sphere fitting

def test_sphere_fit_exact():
    rng = np.random.default_rng(0)
    center = np.array([0.1, -0.05, 0.3])
    pts = _hemisphere_points(center, RADIUS, rng)
    c, rms = fit_sphere_fixed_radius(pts, RADIUS)
    assert np.linalg.norm(c - center) < 1e-10
    assert rms < 1e-10


def test_sphere_fit_noise_accuracy():
    errs = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        center = rng.uniform(-0.2, 0.2, size=3)
        pts = _hemisphere_points(center, RADIUS, rng, n=80, noise=5e-5)
        c, _ = fit_sphere_fixed_radius(pts, RADIUS)
        errs.append(np.linalg.norm(c - center) * 1000.0)
    assert max(errs) < 0.1  # mm


def test_sphere_fit_matches_scipy():
    # within 1e-9 m of an independent LM solve run to machine precision from
    # the true centre; residuals in metres would stop the fit up to 2e-8 m short
    for seed in range(100):
        rng = np.random.default_rng(seed)
        center = rng.uniform(-0.2, 0.2, size=3)
        pts = _hemisphere_points(center, RADIUS, rng, n=80, noise=5e-5)
        c, _ = fit_sphere_fixed_radius(pts, RADIUS)
        ref = least_squares(lambda x: np.linalg.norm(pts - x, axis=1) - RADIUS,
                            center, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert np.linalg.norm(c - ref.x) < 1e-9


@given(seeds)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_sphere_fit_jacobian_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    center = rng.uniform(-0.2, 0.2, size=3)
    pts = _hemisphere_points(center, RADIUS, rng, n=40, noise=5e-5)
    model, (x,) = captured_model(
        tracking, lambda: fit_sphere_fixed_radius(pts, RADIUS))
    # a candidate centre at least r/2 from every sample, as a fit's is: much
    # closer, central differences with h = 1e-7 lose their last digits
    candidate = x + rng.normal(0, 5e-4, size=3)
    while np.linalg.norm(pts - candidate, axis=1).min() < RADIUS / 2:
        candidate = x + rng.normal(0, 5e-4, size=3)
    assert_jacobian_matches(model, candidate, 1e-7)

    def one_wrong_sign(x, rows):
        r, jac = model(x, rows)
        return r, jac * [-1.0, 1.0, 1.0]

    with pytest.raises(AssertionError):
        assert_jacobian_matches(one_wrong_sign, candidate, 1e-7)


def test_sphere_fit_monotone_cost():
    # the solver only ever accepts steps that lower the cost; verify the fit
    # from a biased start still lands on the center
    rng = np.random.default_rng(3)
    center = np.zeros(3)
    pts = _hemisphere_points(center, RADIUS, rng, n=50)
    c, rms = fit_sphere_fixed_radius(pts, RADIUS)
    assert np.linalg.norm(c - center) < 1e-9 and rms < 1e-9


def test_sphere_fit_parameter_checks():
    with pytest.raises(ParameterError):
        fit_sphere_fixed_radius(np.zeros((3, 3)), RADIUS)
    with pytest.raises(ParameterError):
        fit_sphere_fixed_radius(np.zeros((10, 3)), 0.0)
    pts = _hemisphere_points(np.zeros(3), RADIUS, np.random.default_rng(0))
    for radius_m in (float("nan"), float("inf"), True):
        with pytest.raises(ParameterError, match="radius must be a finite positive"):
            fit_sphere_fixed_radius(pts, radius_m)
    pts[7, 1] = np.nan
    with pytest.raises(ParameterError, match="points must be finite"):
        fit_sphere_fixed_radius(pts, RADIUS)


@pytest.mark.parametrize("pts", [
    np.tile([0.1, -0.05, 0.3], (4, 1)),
    RADIUS * np.vstack([np.zeros(3), np.eye(3)[:2], -np.eye(3)[:2]])],
    ids=["four identical points", "a point at the centroid"])
def test_sphere_fit_refuses_a_start_on_a_point(pts):
    """The residuals are undefined at a centre on a point: a fit that starts
    there raises, where it used to warn and return a made-up centre."""
    assert (pts == pts.mean(axis=0)).all(axis=1).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateGeometryError):
            fit_sphere_fixed_radius(pts, RADIUS)


def test_sphere_fit_refuses_points_without_spread():
    """Copies of one point whose float centroid misses the point by rounding,
    and points on one line, hold no sphere: the fit used to return a
    confident made-up centre for them."""
    for seed in range(200):
        p = np.random.default_rng(seed).uniform(-1, 1, 3)
        with pytest.raises(DegenerateGeometryError, match="collinear"):
            fit_sphere_fixed_radius(np.tile(p, (5, 1)), RADIUS)
    with pytest.raises(DegenerateGeometryError, match="collinear"):
        fit_sphere_fixed_radius(np.vstack([np.zeros((3, 3)), [0.001, 0, 0]]), RADIUS)


def _far_motion(rng, distance_m, frame):
    """A random rotation and a translation of length ``distance_m``."""
    t = rng.normal(size=3)
    return RigidTransform(quat_normalize(rng.normal(size=4)),
                          distance_m * t / np.linalg.norm(t), frame, frame)


# Each fit stops within about 4e-10 m of its optimum (see the sphere fit's
# residual units), so two fits of one point set agree to 1e-9 m.
@pytest.mark.parametrize("distance_m", [1.0, 1e3, 1e5])
@given(seeds)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_sphere_fit_is_equivariant_under_a_rigid_motion(distance_m, seed):
    rng = np.random.default_rng(seed)
    pts = _hemisphere_points(rng.uniform(-0.2, 0.2, size=3), RADIUS, rng,
                             n=40, noise=5e-5)
    motion = _far_motion(rng, distance_m, "reference")
    c, rms = fit_sphere_fixed_radius(pts, RADIUS)
    moved, moved_rms = fit_sphere_fixed_radius(motion.apply_points(pts), RADIUS)
    assert np.linalg.norm(moved - motion.apply_points(c)) < 1e-9
    assert abs(moved_rms - rms) < 1e-9


@given(seeds)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_sphere_fit_does_not_depend_on_point_order(seed):
    rng = np.random.default_rng(seed)
    pts = _hemisphere_points(rng.uniform(-0.2, 0.2, size=3), RADIUS, rng,
                             n=40, noise=5e-5)
    c, rms = fit_sphere_fixed_radius(pts, RADIUS)
    shuffled, shuffled_rms = fit_sphere_fixed_radius(rng.permutation(pts), RADIUS)
    assert np.linalg.norm(shuffled - c) < 1e-9
    assert abs(shuffled_rms - rms) < 1e-9


# ---------------------------------------------------------------------------
# marker-array registration

def test_array_registration_exact():
    rng = np.random.default_rng(0)
    truth = random_transform(rng, "array", "model", t_scale=0.3)
    centers = truth.apply_points(ARRAY.markers)
    t, rmse = register_marker_array(centers, ARRAY)
    assert rmse < 1e-9
    assert np.linalg.norm(t.t - truth.t) < 1e-9
    assert quat_angle_deg(t.q, truth.q) < 1e-7


def _noisy_array_centres(rng):
    truth = random_transform(rng, "array", "model", t_scale=0.3)
    return truth.apply_points(ARRAY.markers) + rng.normal(0, 5e-5, size=ARRAY.markers.shape)


@pytest.mark.parametrize("distance_m", [1.0, 1e3, 1e5])
@given(seeds)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_array_registration_is_equivariant_under_a_rigid_motion(distance_m, seed):
    rng = np.random.default_rng(seed)
    centers = _noisy_array_centres(rng)
    motion = _far_motion(rng, distance_m, "model")
    t, rmse = register_marker_array(centers, ARRAY)
    moved, moved_rmse = register_marker_array(motion.apply_points(centers), ARRAY)
    assert transforms_close(moved, compose(motion, t), tol_t_m=1e-9, tol_deg=1e-7)
    assert abs(moved_rmse - rmse) < 1e-6  # mm


@given(seeds)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_array_registration_does_not_depend_on_centre_order(seed):
    rng = np.random.default_rng(seed)
    centers = _noisy_array_centres(rng)
    t, rmse = register_marker_array(centers, ARRAY)
    shuffled, shuffled_rmse = register_marker_array(rng.permutation(centers), ARRAY)
    assert transforms_close(shuffled, t, tol_t_m=1e-12, tol_deg=1e-9)
    assert abs(shuffled_rmse - rmse) < 1e-9  # mm


def test_array_registration_shuffled_centers():
    rng = np.random.default_rng(1)
    truth = random_transform(rng, "array", "model", t_scale=0.3)
    centers = truth.apply_points(ARRAY.markers)[[2, 0, 3, 1]]
    t, rmse = register_marker_array(centers, ARRAY)
    assert rmse < 1e-9
    assert np.linalg.norm(t.t - truth.t) < 1e-9
    assert quat_angle_deg(t.q, truth.q) < 1e-7


def test_array_registration_noise_accuracy():
    t_errs, r_errs = [], []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        truth = random_transform(rng, "array", "model", t_scale=0.3)
        centers = truth.apply_points(ARRAY.markers)
        centers = centers + rng.normal(0, 5e-5, size=centers.shape)
        t, _ = register_marker_array(centers, ARRAY)
        t_mm, r_deg = pose_error(t, truth)
        t_errs.append(t_mm)
        r_errs.append(r_deg)
    assert np.mean(t_errs) < 0.1 and np.mean(r_errs) < 0.05
    assert max(t_errs) < 0.25 and max(r_errs) < 0.2


def test_array_registration_ambiguous_geometry():
    # an equilateral triangle admits multiple distance-consistent matches
    tri = MarkerArrayGeometry(np.array([
        [0.0, 0.0, 0.0], [0.06, 0.0, 0.0], [0.03, 0.06 * np.sqrt(3) / 2, 0.0],
    ]), radius_m=RADIUS)
    with pytest.raises(AmbiguityError) as exc_info:
        register_marker_array(tri.markers, tri)
    assert len(exc_info.value.candidates) > 1


def test_array_registration_inconsistent_distances():
    centers = ARRAY.markers.copy()
    centers[0] = centers[0] + [0.02, 0.0, 0.0]
    with pytest.raises(CorrespondenceError):
        register_marker_array(centers, ARRAY)


def test_array_registration_count_mismatch():
    with pytest.raises(InsufficientCorrespondencesError):
        register_marker_array(ARRAY.markers[:3], ARRAY)


def _reference_permutations(scan_centers, array_markers, tol_m):
    """The full enumeration the tree search replaces: every permutation in
    itertools order, kept where all pairwise distances agree within tol_m."""
    n = len(scan_centers)
    d_scan = np.linalg.norm(scan_centers[:, None] - scan_centers[None, :], axis=2)
    d_arr = np.linalg.norm(array_markers[:, None] - array_markers[None, :], axis=2)
    perms = np.array(list(itertools.permutations(range(n))))
    ok = np.all(np.abs(d_scan - d_arr[perms[:, :, None], perms[:, None, :]])
                <= tol_m, axis=(1, 2))
    return [tuple(int(i) for i in p) for p in perms[ok]]


def _square_with_apex():
    return np.array([[0.04, 0.0, 0.0], [0.0, 0.04, 0.0], [-0.04, 0.0, 0.0],
                     [0.0, -0.04, 0.0], [0.0, 0.0, 0.05]])


def _regular_hexagon():
    a = np.arange(6) * np.pi / 3
    return np.column_stack([0.05 * np.cos(a), 0.05 * np.sin(a), np.zeros(6)])


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("tol_m", [1e-4, 5e-4, 5e-3, 3e-2])
def test_tree_search_matches_enumeration_random(n, tol_m):
    for seed in range(3):
        rng = np.random.default_rng(1000 * n + seed)
        markers = rng.uniform(-0.06, 0.06, size=(n, 3))
        truth = random_transform(rng, "array", "model", t_scale=0.3)
        centers = truth.apply_points(markers)[rng.permutation(n)]
        centers = centers + rng.normal(0, 1e-4, size=centers.shape)
        expected = _reference_permutations(centers, markers, tol_m)
        assert _consistent_permutations(centers, markers, tol_m) == expected


@pytest.mark.parametrize("markers, n_candidates", [
    (_square_with_apex(), 8), (_regular_hexagon(), 12)])
def test_tree_search_matches_enumeration_symmetric(markers, n_candidates):
    rng = np.random.default_rng(4)
    array = MarkerArrayGeometry(markers, radius_m=RADIUS)
    truth = random_transform(rng, "array", "model", t_scale=0.3)
    centers = truth.apply_points(markers)[rng.permutation(len(markers))]
    centers = centers + rng.normal(0, 5e-5, size=centers.shape)
    expected = _reference_permutations(centers, markers, 0.0005)
    assert len(expected) == n_candidates
    with pytest.raises(AmbiguityError) as exc_info:
        register_marker_array(centers, array)
    assert exc_info.value.candidates == expected


def test_array_registration_twelve_markers():
    # 12! = 479,001,600 permutations: only a pruned search finishes
    rng = np.random.default_rng(12)
    array = MarkerArrayGeometry(rng.uniform(-0.08, 0.08, size=(12, 3)),
                                radius_m=RADIUS)
    truth = random_transform(rng, "array", "model", t_scale=0.3)
    shuffle = rng.permutation(12)
    centers = truth.apply_points(array.markers)[shuffle]
    centers = centers + rng.normal(0, 5e-5, size=centers.shape)
    assert _consistent_permutations(centers, array.markers, 0.0005) == [
        tuple(int(i) for i in shuffle)]
    t, rmse = register_marker_array(centers, array)
    t_mm, r_deg = pose_error(t, truth)
    assert rmse < 0.2 and t_mm < 0.2 and r_deg < 0.2


@pytest.mark.parametrize("n", [8, 12])
def test_array_registration_crowded_markers_stops_at_cap(n):
    # inside a 0.2 mm cube every pairwise distance agrees within the 0.5 mm
    # signature tolerance, so all n! permutations are consistent; listing the
    # 479,001,600 of 12 markers would not finish
    rng = np.random.default_rng(n)
    array = MarkerArrayGeometry(rng.uniform(0.0, 2e-4, size=(n, 3)), radius_m=1e-6)
    with pytest.raises(AmbiguityError,
                       match=f"^at least {MAX_CANDIDATES} distance-consistent") as exc_info:
        register_marker_array(array.markers, array)
    assert exc_info.value.candidates == list(
        itertools.islice(itertools.permutations(range(n)), MAX_CANDIDATES))


def _plain_tree(scan_centers, array_markers, tol_m):
    """The interpretation tree without forward checking: each centre tries
    the unused markers in ascending order, checked against earlier centres
    only, up to MAX_CANDIDATES candidates."""
    n = len(scan_centers)
    d_scan = np.linalg.norm(scan_centers[:, None] - scan_centers[None, :], axis=2)
    d_arr = np.linalg.norm(array_markers[:, None] - array_markers[None, :], axis=2)
    out = []

    def extend(perm):
        if len(perm) == n:
            out.append(tuple(perm))
            return
        i = len(perm)
        for a in range(n):
            if len(out) == MAX_CANDIDATES:
                return
            if a not in perm and all(abs(d_scan[i, j] - d_arr[a, b]) <= tol_m
                                     for j, b in enumerate(perm)):
                extend(perm + [a])

    extend([])
    return out


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("layout", ["distinct", "crowded", "cluster"])
def test_forward_checking_matches_plain_tree(n, layout):
    for seed in range(3):
        rng = np.random.default_rng(100 * n + seed)
        markers = rng.uniform(-0.06, 0.06, size=(n, 3))
        if layout == "crowded":  # every distance agrees with every other
            markers = rng.uniform(0.0, 2e-4, size=(n, 3))
        elif layout == "cluster":  # all but two markers inside a 0.2 mm cube
            markers[2:] = rng.uniform(0.0, 2e-4, size=(n - 2, 3))
        truth = random_transform(rng, "array", "model", t_scale=0.3)
        centers = truth.apply_points(markers)[rng.permutation(n)]
        centers = centers + rng.normal(0, 1e-4, size=centers.shape)
        assert (_consistent_permutations(centers, markers, 0.0005)
                == _plain_tree(centers, markers, 0.0005))


def _cube_and_far_marker(n, far_m):
    rng = np.random.default_rng(n)
    return np.vstack([rng.uniform(0.0, 2e-4, size=(n - 1, 3)), [[far_m, 0, 0]]])


def test_array_registration_cube_and_far_marker_fails_fast():
    # n - 1 markers agree with each other, and the far one matches nothing:
    # the plain tree walks (n - 1)! branches before it gives up
    array = MarkerArrayGeometry(_cube_and_far_marker(12, 0.05), radius_m=1e-6)
    start = time.perf_counter()
    with pytest.raises(CorrespondenceError):
        register_marker_array(_cube_and_far_marker(12, 0.06), array)
    assert time.perf_counter() - start < 1.0


def test_array_registration_stops_at_branch_budget(monkeypatch):
    monkeypatch.setattr(tracking, "MAX_BRANCHES", 50)
    array = MarkerArrayGeometry(np.random.default_rng(8).uniform(
        0.0, 2e-4, size=(8, 3)), radius_m=1e-6)
    with pytest.raises(AmbiguityError,
                       match="^marker matching tried more than 50 assignments$"):
        register_marker_array(array.markers, array)


def test_array_geometry_validation():
    with pytest.raises(ParameterError):
        MarkerArrayGeometry(np.zeros((2, 3)))
    with pytest.raises(ParameterError):
        # two markers closer than one diameter
        MarkerArrayGeometry(np.array([[0, 0, 0], [0.001, 0, 0],
                                      [0.05, 0.05, 0.0]]), radius_m=RADIUS)


@pytest.mark.parametrize("markers, radius_m, message", [
    (ARRAY.markers, float("nan"), "marker radius must be a finite positive number"),
    (ARRAY.markers, True, "marker radius must be a finite positive number"),
    (ARRAY.markers, "x", "marker radius must be a finite positive number"),
    (np.where(np.eye(4, 3, dtype=bool), np.nan, ARRAY.markers), RADIUS,
     "markers must be finite"),
    (np.arange(12.0).reshape(6, 2) * 0.05, RADIUS, r"markers must be an \(N, 3\) array"),
], ids=["nan-radius", "bool-radius", "str-radius", "nan-coordinate", "two-coordinates"])
def test_array_geometry_rejects_bad_values(markers, radius_m, message):
    with pytest.raises(ParameterError, match=message):
        MarkerArrayGeometry(markers, radius_m=radius_m)


def test_array_geometry_json_round_trip():
    back = MarkerArrayGeometry.from_json(ARRAY.to_json())
    assert back.radius_m == ARRAY.radius_m
    assert np.array_equal(back.markers, ARRAY.markers)


def test_array_geometry_numpy_scalar_radius_json_round_trip():
    geom = MarkerArrayGeometry(ARRAY.markers, np.float32(RADIUS))
    assert type(geom.radius_m) is float
    back = MarkerArrayGeometry.from_json(geom.to_json())
    assert back.radius_m == geom.radius_m


@pytest.mark.parametrize("key", ["radius_m", "markers", "position_m"])
def test_array_geometry_json_missing_key(key):
    obj = json.loads(ARRAY.to_json())
    if key == "position_m":
        del obj["markers"][1][key]
    else:
        del obj[key]
    with pytest.raises(ParameterError, match=f"marker array missing key '{key}'"):
        MarkerArrayGeometry.from_json(json.dumps(obj))


@pytest.mark.parametrize("edit", [
    lambda o: {**o, "markers": 5},
    lambda o: {**o, "radius_m": "x"},
    lambda o: [1],
    lambda o: {**o, "markers": [{"position_m": ["a", 0, 0]}] + o["markers"][1:]},
    lambda o: {**o, "markers": [{"position_m": ["1", 0, 0]}] + o["markers"][1:]},
    lambda o: {**o, "markers": [{"position_m": [True, 0, 0]}] + o["markers"][1:]},
], ids=["markers-not-list", "radius-not-number", "top-level-list",
        "non-numeric-position", "string-position", "bool-position"])
def test_array_geometry_json_malformed(edit):
    obj = edit(json.loads(ARRAY.to_json()))
    with pytest.raises(ParameterError):
        MarkerArrayGeometry.from_json(json.dumps(obj))


# An int JSON reads exactly but a float cannot hold.
HUGE = 10 ** 400


def _array_json(edit):
    obj = json.loads(ARRAY.to_json())
    edit(obj)
    return json.dumps(obj)


@pytest.mark.parametrize("call", [
    lambda: MarkerArrayGeometry.from_json(_array_json(
        lambda o: o["markers"][1]["position_m"].__setitem__(0, HUGE))),
    lambda: MarkerArrayGeometry.from_json(_array_json(
        lambda o: o.update(radius_m=HUGE))),
    lambda: positive_number(HUGE, "voxel size"),
], ids=["marker-position", "marker-radius", "positive-number"])
def test_int_too_large_for_a_float_is_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


# ---------------------------------------------------------------------------
# ICP

def _instrument_cloud(rng, n=400):
    """An elongated L-shaped cloud with no rotational symmetry."""
    shaft = np.column_stack([rng.uniform(0, 0.12, n // 2),
                             rng.normal(0, 0.004, n // 2),
                             rng.normal(0, 0.004, n // 2)])
    tip = np.column_stack([rng.normal(0.12, 0.004, n // 2),
                           rng.uniform(0, 0.04, n // 2),
                           rng.normal(0, 0.004, n // 2)])
    return np.concatenate([shaft, tip])


def test_icp_identity_when_aligned():
    rng = np.random.default_rng(0)
    pts = _instrument_cloud(rng)
    cloud = PointCloud(pts, frame="model")
    init = RigidTransform([1, 0, 0, 0], np.zeros(3), "model", "model")
    result = icp(cloud, cloud, init)
    assert result.rms_m < 1e-9
    assert np.linalg.norm(result.transform.t) < 1e-9


def test_icp_recovers_small_offset():
    # 5 mm translation offset, exact same geometry: recovery within 0.1 mm
    rng = np.random.default_rng(1)
    pts = _instrument_cloud(rng)
    dst = PointCloud(pts, frame="model")
    src = PointCloud(pts - [0.005, 0.0, 0.0], frame="model")
    init = RigidTransform([1, 0, 0, 0], np.zeros(3), "model", "model")
    result = icp(src, dst, init)
    assert np.linalg.norm(result.transform.t - [0.005, 0, 0]) < 1e-4
    assert quat_angle_deg(result.transform.q, [1, 0, 0, 0]) < 0.05
    assert result.rms_m < 1e-4


def test_icp_history_non_increasing():
    rng = np.random.default_rng(2)
    pts = _instrument_cloud(rng)
    dst = PointCloud(pts, frame="model")
    src = PointCloud(pts - [0.004, 0.003, -0.002], frame="model")
    init = RigidTransform([1, 0, 0, 0], np.zeros(3), "model", "model")
    result = icp(src, dst, init)
    hist = np.asarray(result.rms_history)
    assert len(hist) >= 1
    assert np.all(np.diff(hist) <= 1e-15)


def test_icp_uses_initialization():
    rng = np.random.default_rng(3)
    pts = _instrument_cloud(rng)
    truth = random_transform(rng, "model", "model", t_scale=0.002)
    dst = PointCloud(truth.apply_points(pts), frame="model")
    src = PointCloud(pts, frame="model")
    result = icp(src, dst, truth)  # perfect init converges immediately
    assert result.rms_m < 1e-9


def test_icp_cutoff_respected():
    rng = np.random.default_rng(4)
    pts = _instrument_cloud(rng)
    dst = PointCloud(pts, frame="model")
    src = PointCloud(pts + [1.0, 0, 0], frame="model")  # 1 m away
    init = RigidTransform([1, 0, 0, 0], np.zeros(3), "model", "model")
    with pytest.raises(NoOverlapError):
        icp(src, dst, init)


def test_icp_empty_cloud():
    cloud = PointCloud(np.zeros((0, 3)), frame="model")
    full = PointCloud(np.zeros((5, 3)), frame="model")
    init = RigidTransform([1, 0, 0, 0], np.zeros(3), "model", "model")
    with pytest.raises(ParameterError):
        icp(cloud, full, init)


# ---------------------------------------------------------------------------
# smoothing

def _track(times, quats, trans):
    return PoseTrack("reference", np.asarray(times), np.asarray(quats),
                     np.asarray(trans))


def test_mean_quaternion_hemisphere_alignment():
    # q and -q are one rotation: each window mean is its centre sample
    q = quat_normalize(np.array([0.9, 0.1, -0.3, 0.2]))
    quats = np.array([q if i % 2 == 0 else -q for i in range(9)])
    out = smooth_track(_track(np.arange(9.0), quats, np.zeros((9, 3))), 5)
    assert np.allclose(out.quats, quats, rtol=0, atol=1e-15)


def test_smooth_window_one_is_identity():
    rng = np.random.default_rng(0)
    n = 10
    quats = np.array([random_transform(rng).q for _ in range(n)])
    track = _track(np.arange(n, dtype=float), quats, rng.normal(size=(n, 3)))
    out = smooth_track(track, 1)
    assert out is track


def test_smooth_constant_track_unchanged():
    n = 9
    q = np.tile([1.0, 0, 0, 0], (n, 1))
    t = np.tile([1.0, 2.0, 3.0], (n, 1))
    out = smooth_track(_track(np.arange(n, dtype=float), q, t), 5)
    assert np.allclose(out.translations, t)
    assert all(quat_angle_deg(out.quats[i], q[i]) < 1e-9 for i in range(n))


def test_smooth_reduces_jitter():
    rng = np.random.default_rng(1)
    n = 200
    base = np.column_stack([np.linspace(0, 1, n), np.zeros(n), np.zeros(n)])
    noisy = base + rng.normal(0, 0.002, size=(n, 3))
    q = np.tile([1.0, 0, 0, 0], (n, 1))
    track = _track(np.arange(n, dtype=float), q, noisy)
    out = smooth_track(track, 7)
    raw_res = noisy - base
    out_res = out.translations - base
    assert out_res[10:-10].std() < raw_res[10:-10].std() / 2


def test_smooth_translation_window_average():
    trans = np.array([[0.0, 0, 0], [3.0, 0, 0], [6.0, 0, 0]])
    q = np.tile([1.0, 0, 0, 0], (3, 1))
    out = smooth_track(_track([0.0, 1.0, 2.0], q, trans), 3)
    assert np.allclose(out.translations[1], [3.0, 0, 0])
    assert np.allclose(out.translations[0], [1.5, 0, 0])  # truncated edge


def test_smooth_invalid_window():
    track = _track([0.0], [[1.0, 0, 0, 0]], [[0.0, 0, 0]])
    with pytest.raises(ParameterError):
        smooth_track(track, 2)
    with pytest.raises(ParameterError):
        smooth_track(track, 0)
    # 2.5 used to raise a raw TypeError, and True to run as window 1
    for window in (2.5, 3.0, True, "3", None):
        with pytest.raises(ParameterError, match="^window must be an odd integer >= 1$"):
            smooth_track(track, window)
    assert len(smooth_track(track, np.int64(3))) == 1


def test_smooth_output_quats_unit():
    rng = np.random.default_rng(2)
    n = 30
    quats = np.array([random_transform(rng).q for _ in range(n)])
    track = _track(np.arange(n, dtype=float), quats, rng.normal(size=(n, 3)))
    out = smooth_track(track, 5)
    assert np.allclose(np.linalg.norm(out.quats, axis=1), 1.0, atol=1e-12)


def _smooth_track_reference(track, window):
    """The per-sample loop and quaternion mean that smooth_track replaced."""
    def mean_quaternion(quats, anchor):
        q = np.array(quats, dtype=float)
        flip = (q @ anchor) < 0
        q[flip] = -q[flip]
        return quat_normalize(q.mean(axis=0))

    if window == 1 or len(track) == 0:
        return track
    half = window // 2
    n = len(track)
    new_t = np.empty_like(track.translations)
    new_q = np.empty_like(track.quats)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        new_t[i] = track.translations[lo:hi].mean(axis=0)
        new_q[i] = mean_quaternion(track.quats[lo:hi], track.quats[i])
    return PoseTrack(track.frame, track.times, new_q, new_t)


@pytest.fixture(scope="module")
def smoothing_tracks():
    rng = np.random.default_rng(11)
    n = 40
    quats = np.array([random_transform(rng).q for _ in range(n)])
    random_track = _track(np.arange(n, dtype=float), quats, rng.normal(size=(n, 3)))
    instrument = generate(SynthConfig(seed=1, duration_s=1.0)).instrument_track_noisy
    return {"random": random_track, "instrument": instrument}


@pytest.mark.parametrize("name", ["random", "instrument"])
@pytest.mark.parametrize("window", [1, 3, 5, 7, 9, 11])
def test_smooth_track_matches_reference_loop(smoothing_tracks, name, window):
    track = smoothing_tracks[name]
    out = smooth_track(track, window)
    ref = _smooth_track_reference(track, window)
    assert np.array_equal(out.times, ref.times)
    assert np.array_equal(out.translations, ref.translations)
    assert np.max(np.abs(out.quats - ref.quats)) <= 4.5e-16


# ---------------------------------------------------------------------------
# PoseTrack CSV

def test_pose_track_csv_round_trip_exact():
    rng = np.random.default_rng(3)
    n = 20
    quats = np.array([random_transform(rng).q for _ in range(n)])
    track = _track(np.cumsum(rng.uniform(0.01, 0.05, n)), quats,
                   rng.normal(size=(n, 3)))
    back = PoseTrack.from_csv(track.to_csv())
    assert np.array_equal(back.times, track.times)
    assert np.array_equal(back.quats, track.quats)
    assert np.array_equal(back.translations, track.translations)


def test_pose_track_validation():
    with pytest.raises(ParameterError):
        _track([0.0, 0.0], [[1.0, 0, 0, 0]] * 2, [[0.0, 0, 0]] * 2)
    with pytest.raises(ParameterError):
        _track([0.0], [[2.0, 0, 0, 0]], [[0.0, 0, 0]])
    with pytest.raises(ParameterError):
        PoseTrack.from_csv("bogus,header\n1,2\n")


@pytest.mark.parametrize("field", ["times", "quats", "translations"])
def test_pose_track_rejects_non_finite(field):
    arrays = {"times": np.arange(3.0), "quats": np.tile([1.0, 0, 0, 0], (3, 1)),
              "translations": np.zeros((3, 3))}
    arrays[field][1, ...] = np.nan
    with pytest.raises(ParameterError, match="finite"):
        PoseTrack("reference", **arrays)


def test_pose_track_csv_rejects_bad_rows():
    header = "t_s,tx_m,ty_m,tz_m,qw,qx,qy,qz\n"
    with pytest.raises(ParameterError, match="line 4: expected 8 columns, got 2"):
        PoseTrack.from_csv(header + "0,0,0,0,1,0,0,0\n\n1,2\n")
    with pytest.raises(ParameterError, match="line 2: non-numeric"):
        PoseTrack.from_csv(header + "0,0,0,0,one,0,0,0\n")
    with pytest.raises(ParameterError, match="finite"):
        PoseTrack.from_csv(header + "0,0,0,0,nan,0,0,0\n")
