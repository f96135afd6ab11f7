"""Rigid-transform algebra, Kabsch alignment, and plane/floor fitting."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfuse.errors import (DegenerateGeometryError, FrameMismatchError,
                             InsufficientCorrespondencesError, ParameterError)
from twinfuse.geometry import (RANSAC_MAX_DRAWS, RANSAC_SEED,
                               RANSAC_THRESHOLD_M, PointCloud,
                               RigidTransform, _FLAT_ROWS, _least_squares,
                               _ransac_draws_needed, _sign_key, _solve,
                               _subtract_rows, apply, build_floor_frame,
                               compose, fit_plane_pca, invert, kabsch,
                               quat_from_axis_angle, quat_normalize,
                               ransac_plane_inliers, rotation_angle_deg)

from conftest import quat_angle_deg, random_transform, transforms_close


def rot_z(deg, from_frame="src", to_frame="dst"):
    return RigidTransform(quat_from_axis_angle([0, 0, 1], np.radians(deg)),
                          np.zeros(3), from_frame=from_frame, to_frame=to_frame)


seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# compose / invert / apply

def test_compose_identity():
    t = random_transform(np.random.default_rng(0), "a", "b")
    left = compose(t, RigidTransform([1, 0, 0, 0], np.zeros(3), "a", "a"))
    assert transforms_close(left, t, 1e-12, 1e-10)


def test_compose_inverse_gives_identity():
    t = random_transform(np.random.default_rng(1), "a", "b")
    round_trip = compose(t, invert(t))
    assert np.linalg.norm(round_trip.t) < 1e-9
    assert rotation_angle_deg(round_trip.q, [1, 0, 0, 0]) < 1e-7
    assert round_trip.from_frame == "b" and round_trip.to_frame == "b"


def test_compose_quarter_turns():
    half = compose(rot_z(90, "a", "b"), rot_z(90, "c", "a"))
    moved = half.apply_points(np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(moved[0], [-1.0, 0.0, 0.0], atol=1e-12)


def test_compose_frame_mismatch():
    with pytest.raises(FrameMismatchError):
        compose(rot_z(90, "a", "b"), rot_z(90, "a", "c"))


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_compose_associative(seed):
    rng = np.random.default_rng(seed)
    a = random_transform(rng, "f2", "f3")
    b = random_transform(rng, "f1", "f2")
    c = random_transform(rng, "f0", "f1")
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert transforms_close(left, right, 1e-9, 1e-7)


def test_invert_identity():
    one = RigidTransform([1, 0, 0, 0], np.zeros(3), "world", "world")
    assert transforms_close(invert(one), one, 0.0, 0.0)


def test_invert_translation():
    t = RigidTransform([1, 0, 0, 0], [1.0, 2.0, 3.0], "a", "b")
    ti = invert(t)
    assert np.allclose(ti.t, [-1, -2, -3])
    assert ti.from_frame == "b" and ti.to_frame == "a"


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_invert_involution(seed):
    t = random_transform(np.random.default_rng(seed))
    assert transforms_close(invert(invert(t)), t, 1e-12, 1e-9)


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_pose_dict_round_trip_is_exact(seed):
    rng = np.random.default_rng(seed)
    # normalised once: about a third of such quaternions move in their last
    # bits when normalised again
    t = RigidTransform(rng.normal(size=4), rng.normal(size=3), "a", "b")
    back = RigidTransform.from_dict(json.loads(json.dumps(t.to_dict())), "a", "b")
    assert np.array_equal(back.q, t.q) and np.array_equal(back.t, t.t)
    assert (back.from_frame, back.to_frame) == ("a", "b")


def test_pose_dict_normalises_a_non_unit_quaternion():
    t = RigidTransform.from_dict({"t_m": [0, 0, 0], "q_wxyz": [2, 0, 0, 0]},
                                 "a", "b")
    assert np.array_equal(t.q, [1.0, 0.0, 0.0, 0.0])


def test_apply_identity_and_translation():
    cloud = PointCloud([[0.0, 0.0, 0.0]], frame="world")
    one = RigidTransform([1, 0, 0, 0], np.zeros(3), "world", "world")
    same = apply(one, cloud)
    assert np.array_equal(same.points, cloud.points)
    t = RigidTransform([1, 0, 0, 0], [0, 0, 1.0], "world", "up")
    moved = apply(t, cloud)
    assert np.allclose(moved.points, [[0, 0, 1]])
    assert moved.frame == "up"


def test_apply_frame_mismatch():
    cloud = PointCloud([[0.0, 0.0, 0.0]], frame="other")
    with pytest.raises(FrameMismatchError):
        apply(RigidTransform([1, 0, 0, 0], np.zeros(3), "world", "world"),
              cloud)


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_apply_is_isometry(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(12, 3))
    t = random_transform(rng, "src", "dst")
    moved = apply(t, PointCloud(pts, frame="src")).points
    d_before = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    d_after = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
    assert np.max(np.abs(d_before - d_after)) < 1e-9


# ---------------------------------------------------------------------------
# kabsch

def test_kabsch_identity_on_equal_sets():
    src = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.5]], dtype=float)
    t = kabsch(src, src)
    assert transforms_close(t, RigidTransform([1, 0, 0, 0], np.zeros(3), "src", "dst"),
                            1e-12, 1e-9)
    assert np.linalg.norm(t.apply_points(src) - src) < 1e-12


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_kabsch_exact_recovery(seed):
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(10, 3))
    truth = random_transform(rng)
    dst = truth.apply_points(src)
    est = kabsch(src, dst)
    assert quat_angle_deg(est.q, truth.q) < np.degrees(1e-8)
    assert np.linalg.norm(est.t - truth.t) < 1e-9


def test_kabsch_noise_rmse_band():
    # per-coordinate residual RMSE should track sigma*sqrt(1 - 6/(3N))
    vals = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        src = rng.uniform(-1, 1, size=(21, 3))
        truth = random_transform(rng)
        dst = truth.apply_points(src) + rng.normal(0, 0.003, size=src.shape)
        est = kabsch(src, dst)
        res = est.apply_points(src) - dst
        vals.append(np.sqrt((res ** 2).mean()) * 1000.0)
    assert 1.5 <= np.mean(vals) <= 4.5
    assert min(vals) >= 1.5 and max(vals) <= 4.5


def test_kabsch_optimality():
    rng = np.random.default_rng(7)
    src = rng.normal(size=(15, 3))
    truth = random_transform(rng)
    dst = truth.apply_points(src) + rng.normal(0, 0.01, size=src.shape)
    est = kabsch(src, dst)
    best = np.sum((est.apply_points(src) - dst) ** 2)
    for _ in range(200):
        perturbed = random_transform(rng)
        other = np.sum((perturbed.apply_points(src) - dst) ** 2)
        assert best <= other + 1e-12


@given(seeds)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_kabsch_equivariance(seed):
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(9, 3))
    dst = random_transform(rng).apply_points(src) + rng.normal(0, 0.002, size=src.shape)
    g = random_transform(rng, "src", "g")
    direct = kabsch(g.apply_points(src), dst, from_frame="g", to_frame="dst")
    expected = compose(kabsch(src, dst), invert(g))
    assert transforms_close(direct, expected, 1e-8, np.degrees(1e-8))


def test_kabsch_errors():
    with pytest.raises(InsufficientCorrespondencesError):
        kabsch([[0, 0, 0], [1, 0, 0]], [[0, 0, 0], [1, 0, 0]])
    line = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]]
    with pytest.raises(DegenerateGeometryError):
        kabsch(line, line)
    with pytest.raises(InsufficientCorrespondencesError):
        kabsch([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 0, 0]])


# ---------------------------------------------------------------------------
# plane fitting

def _plane_grid(nx=9, ny=5, sx=4.0, sy=1.0):
    xs = np.linspace(-sx / 2, sx / 2, nx)
    ys = np.linspace(-sy / 2, sy / 2, ny)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])


def test_fit_plane_pca_flat():
    origin, axes = fit_plane_pca(_plane_grid())
    assert abs(abs(axes[2, 2]) - 1.0) < 1e-9
    assert abs(origin[2]) < 1e-12


def test_fit_plane_pca_rotated_normal():
    rng = np.random.default_rng(3)
    t = random_transform(rng)
    pts = t.apply_points(_plane_grid())
    _, axes = fit_plane_pca(pts)
    expected = t.rotation @ np.array([0.0, 0.0, 1.0])
    assert min(np.linalg.norm(axes[2] - expected),
               np.linalg.norm(axes[2] + expected)) < 1e-6


def test_fit_plane_pca_eigenvalue_ordering():
    _, axes = fit_plane_pca(_plane_grid(sx=4.0, sy=1.0))
    assert abs(abs(axes[0, 0]) - 1.0) < 1e-9  # x along the 4 m side


def test_fit_plane_pca_axes_orthonormal_right_handed():
    rng = np.random.default_rng(11)
    pts = random_transform(rng).apply_points(_plane_grid())
    _, axes = fit_plane_pca(pts + rng.normal(0, 1e-4, size=pts.shape))
    assert np.allclose(axes @ axes.T, np.eye(3), atol=1e-9)
    assert np.linalg.det(axes) > 0
    assert np.allclose(np.cross(axes[0], axes[1]), axes[2], atol=1e-9)


def test_fit_plane_pca_degenerate():
    with pytest.raises(DegenerateGeometryError):
        fit_plane_pca([[0, 0, 0], [1, 0, 0]])
    with pytest.raises(DegenerateGeometryError):
        fit_plane_pca([[float(i), 0, 0] for i in range(10)])


# ---------------------------------------------------------------------------
# floor frame

def _floor_and_body():
    floor = _plane_grid(nx=17, ny=9, sx=4.0, sy=2.0)
    rng = np.random.default_rng(5)
    body = rng.uniform([-1, -1, 0.5], [3, 1, 2.5], size=(200, 3))
    return floor, body


def test_build_floor_frame_identity_when_centered():
    floor, body = _floor_and_body()
    t = build_floor_frame(floor, body, from_frame="fused")
    assert np.linalg.norm(t.t) < 1e-9
    assert rotation_angle_deg(t.q, [1, 0, 0, 0]) < 1e-7


def test_build_floor_frame_synthetic_room():
    from twinfuse.synth import _room_points
    room = _room_points()
    floor = room[np.abs(room[:, 2]) < 1e-9]
    body = room[room[:, 2] > 1e-9]
    t = build_floor_frame(floor, body, from_frame="fused")
    assert np.linalg.norm(t.t) < 0.002
    assert rotation_angle_deg(t.q, [1, 0, 0, 0]) < 0.1


def test_build_floor_frame_equivariance():
    floor, body = _floor_and_body()
    base = build_floor_frame(floor, body, from_frame="fused")
    g = random_transform(np.random.default_rng(9), "fused", "fused")
    moved = build_floor_frame(g.apply_points(floor), g.apply_points(body),
                              from_frame="fused")
    expected = compose(base, invert(g))
    assert transforms_close(moved, expected, 1e-6, 1e-5)


def test_build_floor_frame_z_points_toward_body():
    floor, body = _floor_and_body()
    t = build_floor_frame(floor, body, from_frame="fused")
    # the body centroid must land at positive z in the floor frame
    assert t.apply_points(body.mean(axis=0).reshape(1, 3))[0, 2] > 0


def _turned_floor(angle_deg):
    """Points of a 4 m x 1 m floor at z = 0.2 whose long side is turned by
    ``angle_deg`` about z, centred on the origin."""
    u, v = np.meshgrid(np.linspace(-2, 2, 21), np.linspace(-0.5, 0.5, 6))
    a = np.radians(angle_deg)
    x = np.cos(a) * u - np.sin(a) * v
    y = np.sin(a) * u + np.cos(a) * v
    return np.column_stack([x.ravel(), y.ravel(), np.full(x.size, 0.2)])


def _check_floor_signs(t, angle_deg):
    x, _, z = t.rotation
    assert np.allclose(z, [0, 0, 1], atol=1e-9)
    # x lies along the long side, its first component that is not ~0 positive
    a = np.radians(angle_deg)
    assert np.allclose(np.abs(x), np.abs([np.cos(a), np.sin(a), 0]), atol=1e-9)
    assert _sign_key(x) > 0


@pytest.mark.parametrize("angle_deg", range(0, 360, 30))
def test_build_floor_frame_signs_without_body(angle_deg):
    floor = _turned_floor(angle_deg)
    for pts in (floor, floor[::-1]):
        _check_floor_signs(build_floor_frame(pts), angle_deg)
        _check_floor_signs(build_floor_frame(pts, np.zeros((0, 3))), angle_deg)


@pytest.mark.parametrize("angle_deg", range(0, 360, 30))
def test_build_floor_frame_signs_with_body_above_origin(angle_deg):
    floor = _turned_floor(angle_deg)
    body = np.array([[0.0, 0.0, 1.5]])  # straight above the floor centroid
    for pts in (floor, floor[::-1]):
        t = build_floor_frame(pts, body)
        _check_floor_signs(t, angle_deg)
        assert t.apply_points(body)[0, 2] > 0


def test_sign_key():
    assert _sign_key(np.array([0.0, -1e-13, -0.5, 1.0])) == -1.0
    assert _sign_key(np.array([1e-13, 0.25, -1.0])) == 1.0
    assert _sign_key(np.zeros(3)) == 1.0


def test_solve_gives_a_singular_system_a_zero_step():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 3, 3))
    a = m @ m.transpose(0, 2, 1) + 0.1 * np.eye(3)
    a[2] = np.ones((3, 3))  # exactly singular
    b = rng.normal(size=(5, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, b[..., None])
    step = _solve(a, b)
    assert np.array_equal(step[2], np.zeros(3))
    for i in (0, 1, 3, 4):
        assert np.array_equal(step[i], _solve(a[i:i + 1], b[i:i + 1])[0])


# ---------------------------------------------------------------------------
# shared Levenberg-Marquardt loop

def _sphere_points(n_problems, rng, noise_m):
    """(B, 60, 3) points near spheres of radius 1.5 mm, and the B centres."""
    centers = rng.uniform(-0.2, 0.2, size=(n_problems, 3))
    v = rng.normal(size=(n_problems, 60, 3))
    v[..., 2] = np.abs(v[..., 2])
    pts = (centers[:, None] + 0.0015 * v / np.linalg.norm(v, axis=2, keepdims=True)
           + rng.normal(0, noise_m, size=v.shape))
    return pts, centers


def _sphere_model(pts, calls=None):
    """Fixed-radius sphere residuals (mm) and Jacobians of the point sets
    ``pts`` (B, 60, 3) for candidate centres (len(rows), 3) of the problems
    ``rows``; each call's ``rows`` are appended to ``calls``."""
    def model(x, rows):
        if calls is not None:
            calls.append(np.array(rows))
        d = pts[rows] - x[:, None]
        dist = np.linalg.norm(d, axis=2)
        return (dist - 0.0015) * 1000.0, -1000.0 * d / dist[..., None]
    return model


def test_least_squares_stacked_equals_alone():
    rng = np.random.default_rng(0)
    pts, _ = _sphere_points(6, rng, noise_m=5e-5)
    start = pts.mean(axis=1) + rng.normal(0, 5e-4, size=(6, 3))
    x, r = _least_squares(_sphere_model(pts), start, np.ones((6, 60)))
    for b in range(6):
        xb, rb = _least_squares(_sphere_model(pts[b:b + 1]), start[b:b + 1],
                                np.ones((1, 60)))
        assert np.array_equal(x[b], xb[0]) and np.array_equal(r[b], rb[0])


def test_least_squares_undefined_start_keeps_start():
    rng = np.random.default_rng(1)
    pts, centers = _sphere_points(4, rng, noise_m=0.0)
    sphere = _sphere_model(pts)

    def model(x, rows):  # undefined where a candidate centre has z < -0.5 m
        r, jac = sphere(x, rows)
        r[x[:, 2] < -0.5] = np.nan
        return r, jac

    start = pts.mean(axis=1)
    start[2] = [0.0, 0.0, -1.0]
    x, r = _least_squares(model, start, np.ones((4, 60)))
    assert np.array_equal(x[2], start[2]) and np.isnan(r[2]).all()
    for b in (0, 1, 3):
        assert np.linalg.norm(x[b] - centers[b]) < 1e-10
        assert np.isfinite(r[b]).all()


def test_least_squares_evaluates_only_problems_still_trying():
    rng = np.random.default_rng(2)
    pts, _ = _sphere_points(6, rng, noise_m=5e-5)
    start = pts.mean(axis=1) + rng.normal(0, 5e-4, size=(6, 3))
    calls = []
    _least_squares(_sphere_model(pts, calls), start, np.ones((6, 60)))
    assert np.array_equal(calls[0], np.arange(6))
    for before, after in zip(calls, calls[1:]):
        assert set(after) <= set(before)  # a problem that stopped is not evaluated
    assert min(map(len, calls)) < 6
    for b in range(6):  # each problem is evaluated as often as when solved alone
        alone = []
        _least_squares(_sphere_model(pts[b:b + 1], alone), start[b:b + 1],
                       np.ones((1, 60)))
        assert sum(b in rows for rows in calls) == len(alone)


def test_least_squares_stops_at_optimum_after_one_rejected_try():
    # six points exactly on the sphere about the start: every residual is 0
    pts = 0.0015 * np.vstack([np.eye(3), -np.eye(3)])[None]
    calls = []
    x, r = _least_squares(_sphere_model(pts, calls), np.zeros((1, 3)), np.ones((1, 6)))
    assert len(calls) == 2  # the start and one try, not 12
    assert np.array_equal(x, np.zeros((1, 3))) and not r.any()


def _ref_least_squares(model, x, weights):
    """``_least_squares`` as it was before its path for all-accepted steps:
    the bit-for-bit reference of the loop."""
    x = np.array(x, dtype=float)
    n_problems, n = x.shape
    r, jac = model(x, np.arange(n_problems))
    cost = np.einsum("bm,bm->b", weights, r * r)
    act = np.flatnonzero(np.isfinite(cost))
    lam = np.full(n_problems, 1e-3)
    tries = np.zeros(n_problems, dtype=int)
    steps = np.zeros(n_problems, dtype=int)
    jtj = np.zeros((n_problems, n, n))
    jtr = np.zeros((n_problems, n))

    def normal_equations(rows):
        jtw = jac[rows].transpose(0, 2, 1) * weights[rows, None, :]
        jtj[rows] = jtw @ jac[rows]
        jtr[rows] = (jtw @ r[rows, :, None])[..., 0]

    normal_equations(act)
    eye = np.eye(n)
    while len(act):
        a, b = jtj[act], jtr[act]
        h = _solve(a + (lam[act, None] * (np.diagonal(a, axis1=1, axis2=2) + 1e-12))[..., None]
                   * eye, -b)
        x_new = x[act] + h
        r_new, jac_new = model(x_new, act)
        cost_new = np.einsum("bm,bm->b", weights[act], r_new * r_new)
        better = cost_new < cost[act]
        done = act[better]
        drop = cost[done] - cost_new[better]
        x[done] = x_new[better]
        r[done] = r_new[better]
        jac[done] = jac_new[better]
        cost[done] = cost_new[better]
        lam[done] = np.maximum(lam[done] / 10, 1e-12)
        tries[done] = 0
        steps[done] += 1
        normal_equations(done)
        hr = h[~better]
        predicted = -(2 * np.einsum("bn,bn->b", hr, b[~better])
                      + np.einsum("bn,bnk,bk->b", hr, a[~better], hr))
        failed = act[~better]
        lam[failed] *= 10
        tries[failed] += 1
        keep = np.empty(len(act), dtype=bool)
        keep[better] = (drop >= 1e-10) & (steps[done] < 100)
        keep[~better] = (predicted >= 1e-10) & (tries[failed] < 12)
        act = act[keep]
    return x, r


def _lm_case(seed):
    """Points (8, 60, 3) of sphere problems, starts (8, 3) and weights
    (8, 60): the far starts take rejected steps, and one start at
    z = -1 m is undefined under ``_recorded_model``."""
    rng = np.random.default_rng(seed)
    pts, _ = _sphere_points(8, rng, noise_m=rng.choice([0.0, 5e-5]))
    start = pts.mean(axis=1) + rng.normal(0, 10 ** rng.uniform(-4, -1), size=(8, 3))
    start[rng.integers(8)] = [0.0, 0.0, -1.0]
    return pts, start, rng.uniform(0.5, 1.5, size=(8, 60))


def _recorded_model(pts, calls):
    """``_sphere_model(pts)``, undefined where a candidate centre has
    z < -0.5 m; each call's rows and residuals are appended to ``calls``."""
    sphere = _sphere_model(pts)

    def model(x, rows):
        r, jac = sphere(x, rows)
        r[x[:, 2] < -0.5] = np.nan
        calls.append((np.array(rows), r.copy()))
        return r, jac
    return model


def _rejections(calls, weights):
    """The steps that did not lower a problem's cost, from the (rows, r) of
    every model call in order."""
    (rows, r), *steps = calls
    best = np.einsum("bm,bm->b", weights[rows], r * r)
    rejected = 0
    for rows, r in steps:
        cost = np.einsum("bm,bm->b", weights[rows], r * r)
        rejected += int(np.sum(~(cost < best[rows])))
        best[rows] = np.minimum(best[rows], cost)
    return rejected


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_least_squares_matches_reference_bits(seed):
    """The same x, r and model calls as the reference loop, bit for bit, on
    batches that mix accepted and rejected steps with an undefined start
    and candidates where the model is undefined."""
    pts, start, weights = _lm_case(seed)
    runs = []
    for solve in (_least_squares, _ref_least_squares):
        calls = []
        x, r = solve(_recorded_model(pts, calls), start, weights)
        runs.append((x.tobytes(), r.tobytes(),
                     [(rows.tobytes(), rr.tobytes()) for rows, rr in calls]))
    assert runs[0] == runs[1]


def test_least_squares_reference_cases_take_both_kinds_of_step():
    """``_lm_case`` draws batches that take rejected steps and batches that
    accept every step, so the test above runs both paths of the loop."""
    rejected = []
    for seed in range(20):
        pts, start, weights = _lm_case(seed)
        calls = []
        _least_squares(_recorded_model(pts, calls), start, weights)
        rejected.append(_rejections(calls, weights))
    assert max(rejected) > 0 and min(rejected) == 0


# ---------------------------------------------------------------------------
# plane RANSAC

def _floor_with_clutter(seed=0, n_clutter=150):
    rng = np.random.default_rng(seed)
    floor = _plane_grid(nx=25, ny=25, sx=5.0, sy=5.0)
    floor = floor + rng.normal(0, 0.002, size=floor.shape)
    clutter = rng.uniform([-2, -2, 0.3], [2, 2, 2.5], size=(n_clutter, 3))
    return np.concatenate([floor, clutter]), len(floor)


def _ransac_reference(pts):
    """RANSAC that always makes RANSAC_MAX_DRAWS draws, then refits."""
    n = len(pts)
    rng = np.random.default_rng(RANSAC_SEED)
    best_mask = None
    best_count = -1
    for _ in range(RANSAC_MAX_DRAWS):
        idx = rng.choice(n, size=3, replace=False)
        p0, p1, p2 = pts[idx]
        normal = np.cross(p1 - p0, p2 - p0)
        nn = np.linalg.norm(normal)
        if nn < 1e-12:
            continue
        normal /= nn
        mask = np.abs((pts - p0) @ normal) <= RANSAC_THRESHOLD_M
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
    for _ in range(5):
        origin, axes = fit_plane_pca(pts[best_mask])
        mask = np.abs((pts - origin) @ axes[2]) <= RANSAC_THRESHOLD_M
        if np.array_equal(mask, best_mask):
            break
        best_mask = mask
    return best_mask


def test_ransac_plane_finds_dominant_plane():
    pts, n_floor = _floor_with_clutter()
    mask = ransac_plane_inliers(pts)
    assert mask[:n_floor].mean() > 0.99
    assert mask[n_floor:].mean() < 0.05


@pytest.mark.parametrize("n_clutter", [150, 1000, 2500])
def test_ransac_plane_matches_all_draws(n_clutter):
    # at 2500 clutter points the floor is 20% of the cloud, too little for
    # RANSAC_MAX_DRAWS draws to reach RANSAC_CONFIDENCE: only there the cap binds
    for seed in range(3):
        pts, n_floor = _floor_with_clutter(seed, n_clutter)
        mask = ransac_plane_inliers(pts)
        assert mask[:n_floor].mean() > 0.99
        capped = _ransac_draws_needed(mask.mean()) > RANSAC_MAX_DRAWS
        assert capped == (n_clutter == 2500)
        assert np.array_equal(mask, _ransac_reference(pts))


def test_ransac_plane_matches_all_draws_on_fused_scans(default_bundle):
    from twinfuse.fusion import fuse_scans
    fused, _ = fuse_scans(default_bundle.scans)
    mask = ransac_plane_inliers(fused.points)
    assert np.array_equal(mask, _ransac_reference(fused.points))


@pytest.mark.parametrize("n", [0, 1, _FLAT_ROWS - 1, _FLAT_ROWS, _FLAT_ROWS + 1,
                               90_496])
def test_subtract_rows_matches_broadcast(n):
    rng = np.random.default_rng(n)
    pts = rng.normal(0.0, 3.0, size=(n, 3))
    for p in (rng.normal(size=3), pts[n // 2] if n else np.full(3, np.pi)):
        out = np.full((n, 3), np.nan)
        assert _subtract_rows(pts, p, out) is out
        assert out.tobytes() == (pts - p).tobytes()


def test_ransac_plane_all_coplanar():
    pts = _plane_grid(nx=30, ny=20, sx=3.0, sy=2.0)
    assert ransac_plane_inliers(pts).all()


def test_ransac_draws_needed():
    assert _ransac_draws_needed(1.0) == 1
    assert _ransac_draws_needed(0.0) == math.inf
    # 0.5 ** 3 = 1/8 inliers per draw: ceil(log(1e-5) / log(7/8)) draws
    assert _ransac_draws_needed(0.5) == 87
    assert _ransac_draws_needed(0.9) == 9


def test_ransac_plane_too_few_points():
    with pytest.raises(DegenerateGeometryError):
        ransac_plane_inliers([[0, 0, 0], [1, 1, 1]])


# ---------------------------------------------------------------------------
# value types

def test_rigid_transform_normalizes_quaternion():
    t = RigidTransform([2.0, 0, 0, 0], np.zeros(3))
    assert abs(np.linalg.norm(t.q) - 1.0) < 1e-12
    assert abs(np.linalg.det(t.rotation) - 1.0) < 1e-9


def test_rigid_transform_rejects_nonfinite():
    with pytest.raises(ParameterError, match="^t must be finite$"):
        RigidTransform([1, 0, 0, 0], [np.nan, 0, 0])
    with pytest.raises(ParameterError, match="^cannot normalize zero/non-finite quaternion$"):
        RigidTransform([0, 0, 0, 0], np.zeros(3))


def test_rigid_transform_keeps_a_unit_quaternion_and_normalises_others():
    rng = np.random.default_rng(5)
    for _ in range(200):
        q = quat_normalize(rng.normal(size=4))
        assert np.array_equal(RigidTransform(q, np.zeros(3)).q, q)
        p = 3.0 * q
        assert np.array_equal(RigidTransform(p, np.zeros(3)).q, quat_normalize(p))
    for bad in ([0, 0, 0, 0], [np.nan, 0, 0, 1], [np.inf, 0, 0, 0]):
        with pytest.raises(ParameterError):
            RigidTransform(bad, np.zeros(3))
    # a (1, 3) t or a (2, 2) q used to be reshaped in silence
    for q, t, message in (([1.0, 0, 0, 0], np.zeros((1, 3)), "t must be a (3,) array, got shape (1, 3)"),
                          (np.eye(2), np.zeros(3), "q must be a (4,) array, got shape (2, 2)"),
                          ([1.0, 0, 0], np.zeros(3), "q must be a (4,) array, got shape (3,)")):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            RigidTransform(q, t)


def test_copies_keep_pose_bit_for_bit():
    rng = np.random.default_rng(6)
    for _ in range(500):
        t = RigidTransform(rng.normal(size=4), rng.normal(size=3), "a", "b")
        for copy in (t.with_frames("c", "d"), dataclasses.replace(t)):
            assert np.array_equal(copy.q, t.q) and np.array_equal(copy.t, t.t)


def _value_types():
    """For each frozen value type that takes arrays: the caller's arrays, and
    a function that builds the value from them and returns its arrays in the
    same order."""
    from twinfuse.fusion import MarkerSet
    from twinfuse.mocap import N_JOINTS, Keypoint2DFrame, Skeleton3DFrame
    from twinfuse.tracking import MarkerArrayGeometry, PoseTrack

    rng = np.random.default_rng(7)
    quats = np.array([quat_normalize(rng.normal(size=4)) for _ in range(3)])

    def fields(value, *names):
        return [getattr(value, name) for name in names]

    return {
        "RigidTransform": ([quats[0], rng.normal(size=3)],
                           lambda q, t: fields(RigidTransform(q, t), "q", "t")),
        "PointCloud": ([rng.normal(size=(5, 3)),
                        rng.integers(0, 255, (5, 3), dtype=np.uint8)],
                       lambda p, c: fields(PointCloud(p, c), "points", "colors")),
        "MarkerSet": ([rng.normal(size=3)],
                      lambda p: [MarkerSet("scan", {"M01": p}).positions["M01"]]),
        "MarkerArrayGeometry": ([0.05 * np.eye(3)],
                                lambda m: fields(MarkerArrayGeometry(m), "markers")),
        "PoseTrack": ([np.arange(3.0), quats, rng.normal(size=(3, 3))],
                      lambda t, q, tr: fields(PoseTrack("reference", t, q, tr),
                                              "times", "quats", "translations")),
        "Keypoint2DFrame": ([rng.uniform(0, 1, (2, N_JOINTS, 3))],
                            lambda kp: fields(Keypoint2DFrame("cam0", 0.5, kp),
                                              "keypoints")),
        "Skeleton3DFrame": ([rng.normal(size=(N_JOINTS, 3)), rng.uniform(0, 1, N_JOINTS),
                             rng.uniform(0, 1, N_JOINTS) > 0.5],
                            lambda p, r, v: fields(Skeleton3DFrame(0.5, p, r, v),
                                                   "positions", "residuals_px", "valid")),
    }


@pytest.mark.parametrize("name", sorted(_value_types()))
def test_value_types_own_their_arrays(name):
    caller, build = _value_types()[name]
    held = build(*caller)
    kept = [a.copy() for a in held]
    for a, h in zip(caller, held):
        assert a.flags.writeable and not h.flags.writeable
        a[...] = ~a if a.dtype == bool else a + 1
    for h, k in zip(held, kept):
        assert np.array_equal(h, k)


def test_point_cloud_validation():
    with pytest.raises(ParameterError):
        PointCloud([[0, 0, np.inf]])
    with pytest.raises(ParameterError):
        PointCloud([[0, 0, 0]], colors=[[1, 2, 3], [4, 5, 6]])
    empty = PointCloud([])
    assert len(empty) == 0 and empty.points.shape == (0, 3)


def _point_array_callers():
    """For each caller of the array rule ``geometry._as_array``: a valid
    array, the shape the rule takes it in (None for any length), and a call
    of the caller on an array in its place that returns on the valid one."""
    from twinfuse.cameras import (CameraIntrinsics, CameraModel,
                                  estimate_time_offset, project_points, solve_pnp,
                                  triangulate_batch, unproject)
    from twinfuse.fusion import MarkerSet
    from twinfuse.mocap import (N_BODY, N_HAND, N_JOINTS, Keypoint2DFrame,
                                Skeleton3DFrame, select_surgeon)
    from twinfuse.tracking import (MarkerArrayGeometry, PoseTrack,
                                   fit_sphere_fixed_radius, register_marker_array)

    rng = np.random.default_rng(8)
    points = rng.normal(size=(4, 3))
    intr = CameraIntrinsics(fx=900.0, fy=900.0, cx=640.0, cy=360.0, width=1280, height=720)
    cams = [CameraModel(f"cam{k}", intr, RigidTransform([1.0, 0, 0, 0], [x, 0, 0],
                                                        f"camera:cam{k}", "world"))
            for k, x in enumerate([0.0, -0.5, 0.5])]
    cam = cams[0]
    in_view = rng.uniform([-0.5, -0.3, 2.0], [0.5, 0.3, 3.0], (8, 3))
    pixels = project_points(cam, in_view)
    uv = np.stack([project_points(c, in_view[:4]) for c in cams], axis=1)  # (4, 3, 2)
    times = np.arange(0, 10, 1 / 30)
    motion = np.column_stack([np.sin(1.3 * times), np.cos(2.1 * times), np.sin(0.7 * times)])
    markers = np.array([[0, 0, 0], [0.11, 0, 0], [0.03, 0.085, 0], [0.06, 0.03, 0.07]])
    array = MarkerArrayGeometry(markers)
    directions = rng.normal(size=(20, 3))
    directions[:, 2] = np.abs(directions[:, 2])
    sphere = 0.0015 * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    quats = np.array([quat_normalize(q) for q in rng.normal(size=(4, 4))])
    keypoints = rng.uniform(0, 1, (2, N_JOINTS, 3))
    hand = rng.uniform(0, 1, (N_HAND, 3)).tolist()
    person = np.zeros((1, N_JOINTS, 3))
    person[0, :, :] = [640.0, 360.0, 1.0]

    def from_json(body):
        return Keypoint2DFrame.from_json(json.dumps({
            "camera": "cam0", "t_s": 0.5,
            "persons": [{"body": body.tolist(), "hand_l": hand, "hand_r": hand}]}))

    return {
        "PointCloud": (points, (None, 3), PointCloud),
        "PointCloud colors": (np.full((4, 3), 7.0), (4, 3), lambda a: PointCloud(points, a)),
        "RigidTransform q": (quats[0], (4,), lambda a: RigidTransform(a, points[0])),
        "RigidTransform t": (points[0], (3,), lambda a: RigidTransform(quats[0], a)),
        "CameraIntrinsics dist": (np.zeros(5), (5,), lambda a: CameraIntrinsics(
            fx=900.0, fy=900.0, cx=640.0, cy=360.0, width=1280, height=720, dist=a)),
        "kabsch src": (points, (None, 3), lambda a: kabsch(a, points)),
        "kabsch dst": (points, (None, 3), lambda a: kabsch(points, a)),
        "fit_plane_pca": (points, (None, 3), fit_plane_pca),
        "build_floor_frame floor": (points, (None, 3), build_floor_frame),
        "build_floor_frame body": (points, (None, 3), lambda a: build_floor_frame(points, a)),
        "ransac_plane_inliers": (points, (None, 3), ransac_plane_inliers),
        "project_points": (in_view, (None, 3), lambda a: project_points(cam, a)),
        "solve_pnp points": (in_view, (None, 3), lambda a: solve_pnp(a, pixels, intr)),
        "solve_pnp pixels": (pixels, (None, 2), lambda a: solve_pnp(in_view, a, intr)),
        "estimate_time_offset": (motion, (None, 3),
                                 lambda a: estimate_time_offset(times, a, times, motion)),
        "estimate_time_offset times": (times, (None,), lambda a: estimate_time_offset(
            a, motion, times, motion)),
        "MarkerArrayGeometry": (markers, (None, 3), MarkerArrayGeometry),
        "fit_sphere_fixed_radius": (sphere, (None, 3),
                                    lambda a: fit_sphere_fixed_radius(a, 0.0015)),
        "register_marker_array": (markers, (None, 3),
                                  lambda a: register_marker_array(a, array)),
        "PoseTrack quats": (quats, (None, 4),
                            lambda a: PoseTrack("reference", np.arange(4.0), a, points)),
        "PoseTrack translations": (points, (None, 3), lambda a: PoseTrack(
            "reference", np.arange(4.0), quats, a)),
        "PoseTrack times": (np.arange(4.0), (None,),
                            lambda a: PoseTrack("reference", a, quats, points)),
        "triangulate_batch pixels": (uv, (None, 3, 2), lambda a: triangulate_batch(
            a, np.ones((4, 3)), cams)),
        "triangulate_batch confidences": (np.ones((4, 3)), (4, 3),
                                          lambda a: triangulate_batch(uv, a, cams)),
        "unproject": (pixels[0], (2,), lambda a: unproject(cam, a, 2.0)),
        "MarkerSet": (markers[1], (3,), lambda a: MarkerSet("ref", {"M01": a})),
        "Keypoint2DFrame": (keypoints, (None, N_JOINTS, 3),
                            lambda a: Keypoint2DFrame("cam0", 0.5, a)),
        "Keypoint2DFrame.from_json body": (keypoints[0, :N_BODY], (N_BODY, 3), from_json),
        "Skeleton3DFrame positions": (points[[0] * N_JOINTS], (N_JOINTS, 3),
                                      lambda a: Skeleton3DFrame(0.5, a, np.zeros(N_JOINTS),
                                                                np.ones(N_JOINTS, bool))),
        "Skeleton3DFrame residuals": (np.ones(N_JOINTS), (N_JOINTS,),
                                      lambda a: Skeleton3DFrame(0.5, np.zeros((N_JOINTS, 3)),
                                                                a, np.ones(N_JOINTS, bool))),
        "select_surgeon table center": (np.array([0.0, 0.0, 2.0]), (3,), lambda a: select_surgeon(
            [Keypoint2DFrame("cam0", 0.0, person)], [cam], a)),
    }


@pytest.mark.parametrize("fault", ["wrong width", "wrong shape", "nan"])
@pytest.mark.parametrize("caller", sorted(_point_array_callers()))
def test_point_arrays_refuse_bad_shapes_and_values(caller, fault):
    """An array of the wrong last dimension, of the right size in a wrong
    shape (e.g. (2, 6) for 4 points, or transposed), or holding a NaN is a
    ParameterError of the one rule, never a result: callers that reshaped
    with ``reshape(-1, k)`` used to read (2, 6) as 4 points, and some
    returned NaN or raised numpy's ValueError."""
    valid, shape, call = _point_array_callers()[caller]
    call(valid)
    dims = str(tuple("N" if n is None else n for n in shape)).replace("'", "")
    message = re.escape(f"must be {'an' if shape[0] is None else 'a'} {dims} array")
    if fault == "wrong width":  # one more column; a column where any length goes
        bad = (valid[:, None] if shape[-1] is None
               else np.concatenate([valid, valid[..., :1]], axis=-1))
    elif fault == "wrong shape":
        if len(shape) == 2 and shape[0] is None:
            bad = valid.reshape(2, -1)
        else:  # a row of one vector, or the last axis first
            bad = valid[None] if valid.ndim == 1 else np.moveaxis(valid, -1, 0)
    else:
        bad, message = valid.copy(), "must be finite"
        bad[(1,) + (0,) * (bad.ndim - 1)] = np.nan
    with pytest.raises(ParameterError, match=message):
        call(bad)


def _with_first_item(array: np.ndarray, item) -> list:
    """``array`` as nested lists, its first number replaced by ``item``."""
    nested = array.tolist()
    row = nested
    while isinstance(row[0], list):
        row = row[0]
    row[0] = item
    return nested


def _numpy_scalars(nested):
    """Nested lists of numbers as nested lists of numpy scalars: np.int64 for
    a whole number, np.float64 for any other."""
    if isinstance(nested, list):
        return [_numpy_scalars(v) for v in nested]
    return np.int64(nested) if float(nested).is_integer() else np.float64(nested)


# Skeleton3DFrame takes an invalid joint's NaN and its bool flags through
# the shape half of the rule; the file path of Keypoint2DFrame is pinned by
# the CLI tests.
_ITEM_CALLERS = sorted(name for name in _point_array_callers() if not name.startswith(
    ("Skeleton3DFrame", "Keypoint2DFrame.from_json")))


@pytest.mark.parametrize("item", ["1", True, np.bool_(True), None],
                         ids=["string", "bool", "numpy-bool", "None"])
@pytest.mark.parametrize("caller", _ITEM_CALLERS)
def test_array_items_must_be_real_numbers(caller, item):
    """A list item that numpy converts to a float but that is no number is a
    ParameterError naming the array, as the NaN of the same caller is: the
    rule used to read "1" and True as 1.0."""
    valid, _, call = _point_array_callers()[caller]
    nan = _with_first_item(valid, float("nan"))
    with pytest.raises(ParameterError, match=" must be finite$") as exc_info:
        call(nan)
    what = str(exc_info.value).removesuffix(" must be finite")
    message = f"{what} must be finite numbers, got {item!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(_with_first_item(valid, item))


@pytest.mark.parametrize("caller", _ITEM_CALLERS)
def test_array_items_may_be_numpy_scalars_and_rows(caller):
    valid, _, call = _point_array_callers()[caller]
    call(_numpy_scalars(valid.tolist()))
    call(list(valid))


@pytest.mark.parametrize("value", [300, -1, 2.5, np.nan])
def test_point_cloud_refuses_colors_that_are_no_byte(value):
    """Colors used to be cast to uint8: 300 wrapped to 44 and NaN became 0
    with a RuntimeWarning from a float array, and a list raised numpy's
    OverflowError."""
    colors = np.full((2, 3), 7.0)
    colors[1, 2] = value
    message = ("cloud colors must be finite" if np.isnan(value)
               else "cloud colors must be whole numbers in [0, 255]")
    for given in (colors, colors.tolist()):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            PointCloud(np.zeros((2, 3)), given)


def test_point_cloud_keeps_uint8_colors():
    colors = np.random.default_rng(9).integers(0, 256, (50, 3), dtype=np.uint8)
    for given in (colors, colors.astype(float), colors.tolist()):
        held = PointCloud(np.zeros((50, 3)), given).colors
        assert held.dtype == np.uint8 and np.array_equal(held, colors)


def test_quat_normalize_unit_output():
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = quat_normalize(rng.normal(size=4))
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
