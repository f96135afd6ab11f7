"""Camera projection, PnP, triangulation, and track time alignment."""

import json
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from twinfuse import cameras
from twinfuse.cameras import (CONFIDENCE_FLOOR, CameraIntrinsics, CameraModel,
                              PixelObservation, _brown_conrady, _dist_terms,
                              _distort, _normalized, _pixels,
                              _pixels_with_jacobian, _undistort,
                              estimate_time_offset, project, project_points,
                              solve_pnp, triangulate, triangulate_batch,
                              unproject)
from twinfuse.errors import (BehindCameraError, ConvergenceError,
                             DegenerateGeometryError,
                             InsufficientCorrespondencesError,
                             InsufficientViewsError, NoOverlapError,
                             ParameterError, UnknownEntityError)
from twinfuse.geometry import RigidTransform, compose, quat_normalize
from twinfuse.mocap import select_surgeon, triangulate_skeleton
from twinfuse.synth import (SynthConfig, _default_intrinsics, generate,
                            project_visible)

from conftest import (assert_jacobian_matches, captured_model, central_jacobian,
                      look_at_camera_pose, quat_angle_deg, random_transform,
                      transforms_close)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

INTR = CameraIntrinsics(fx=900.0, fy=920.0, cx=640.0, cy=360.0,
                        width=1280, height=720)
DIST = (-0.28, 0.07, 0.0008, -0.0005, 0.01)
INTR_DIST = CameraIntrinsics(fx=900.0, fy=920.0, cx=640.0, cy=360.0,
                             width=1280, height=720, dist=DIST)


def _cam(cam_id="cam0", position=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0),
         intr=INTR):
    pose = look_at_camera_pose(position, target,
                               from_frame=f"camera:{cam_id}", to_frame="world")
    return CameraModel(cam_id, intr, pose)


def _frustum_points(cam, rng, n, depth_range=(1.5, 4.0)):
    pts = []
    for _ in range(n):
        u = rng.uniform(80, cam.intrinsics.width - 80)
        v = rng.uniform(60, cam.intrinsics.height - 60)
        pts.append(unproject(cam, (u, v), rng.uniform(*depth_range)))
    return np.array(pts)


# ---------------------------------------------------------------------------
# intrinsics / observation validation

def test_intrinsics_validation():
    with pytest.raises(ParameterError):
        CameraIntrinsics(fx=-1, fy=900, cx=640, cy=360, width=1280, height=720)
    with pytest.raises(ParameterError):
        CameraIntrinsics(fx=900, fy=900, cx=2000, cy=360, width=1280, height=720)
    with pytest.raises(ParameterError):
        CameraIntrinsics(fx=900, fy=900, cx=640, cy=360, width=1280, height=720,
                         dist=(0.0, 0.0))
    with pytest.raises(ParameterError, match="'fx'"):
        CameraIntrinsics.from_dict({"fy": 900, "cx": 640, "cy": 360,
                                    "width": 1280, "height": 720, "dist": DIST})


def test_observation_validation():
    with pytest.raises(ParameterError):
        PixelObservation("cam0", 1.0, 2.0, confidence=1.5)
    with pytest.raises(ParameterError):
        PixelObservation("cam0", np.nan, 2.0)
    # a string used to raise numpy's TypeError
    for args, name in ((("1.0", 2.0), "u"), ((1.0, "2.0"), "v"),
                       ((1.0, 2.0, "1"), "confidence"), ((1.0, 2.0, True), "confidence")):
        with pytest.raises(ParameterError, match=f"^{name} must be a finite number, got"):
            PixelObservation("cam0", *args)


def test_camera_json_round_trip():
    cam = _cam(intr=INTR_DIST)
    back = CameraModel.from_json(cam.to_json())
    assert back.id == cam.id
    assert back.intrinsics == cam.intrinsics
    assert np.allclose(back.world_from_camera.t, cam.world_from_camera.t)
    assert quat_angle_deg(back.world_from_camera.q,
                          cam.world_from_camera.q) < 1e-9


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_intrinsics_dict_round_trip_is_exact(seed):
    intr = _random_intrinsics(np.random.default_rng(seed))
    back = CameraIntrinsics.from_dict(json.loads(json.dumps(intr.to_dict())))
    assert back == intr


# ---------------------------------------------------------------------------
# projection

def test_project_optical_axis_hits_principal_point():
    cam = _cam()
    uv = project(cam, [0.0, 0.0, 0.0])
    assert np.allclose(uv, [INTR.cx, INTR.cy], atol=1e-9)


def test_project_known_offset():
    # camera at origin looking along +x; world +x is camera +z.
    cam = _cam(position=(0, 0, 0), target=(1, 0, 0))
    p_cam = np.array([0.1, 0.05, 2.0])  # in camera coords
    world = cam.world_from_camera.apply_points(p_cam.reshape(1, 3))[0]
    uv = project(cam, world)
    assert uv[0] == pytest.approx(INTR.cx + INTR.fx * 0.05, abs=1e-9)
    assert uv[1] == pytest.approx(INTR.cy + INTR.fy * 0.025, abs=1e-9)


def test_project_behind_camera_raises():
    cam = _cam()
    with pytest.raises(BehindCameraError):
        project(cam, [0.0, 0.0, 10.0])


@given(seeds)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_unproject_project_round_trip(seed):
    rng = np.random.default_rng(seed)
    cam = _cam(intr=INTR_DIST)
    u = rng.uniform(50, 1230)
    v = rng.uniform(40, 680)
    d = rng.uniform(0.5, 8.0)
    world = unproject(cam, (u, v), d)
    assert np.allclose(project(cam, world), [u, v], atol=1e-6)


def test_unproject_depth_consistency():
    cam = _cam()
    world = unproject(cam, (700.0, 400.0), 2.0)
    from twinfuse.geometry import invert
    cam_pt = invert(cam.world_from_camera).apply_points(world.reshape(1, 3))[0]
    assert cam_pt[2] == pytest.approx(2.0, abs=1e-12)


def test_unproject_invalid_depth():
    with pytest.raises(BehindCameraError):
        unproject(_cam(), (640.0, 360.0), 0.0)
    # a NaN depth used to give a NaN point, an infinite one a RuntimeWarning too
    for depth in (np.nan, np.inf, -np.inf, "2.0"):
        with pytest.raises(ParameterError, match="^depth must be a finite number, got"):
            unproject(_cam(), (640.0, 360.0), depth)


def test_distortion_changes_off_center_pixels():
    cam_a = _cam()
    cam_b = _cam(intr=INTR_DIST)
    p = unproject(cam_a, (1000.0, 600.0), 2.0)
    uv_a = project(cam_a, p)
    uv_b = project(cam_b, p)
    assert np.linalg.norm(uv_a - uv_b) > 5.0


def test_normalized_coords_invert_distortion():
    rng = np.random.default_rng(0)
    xn_true = rng.uniform(-0.4, 0.4, size=(20, 2))
    xd = _distort(xn_true, DIST)
    pix = np.column_stack([INTR_DIST.fx * xd[:, 0] + INTR_DIST.cx,
                           INTR_DIST.fy * xd[:, 1] + INTR_DIST.cy])
    xn = _normalized(pix, INTR_DIST.focal, INTR_DIST.center, INTR_DIST.dist)
    assert np.max(np.abs(xn - xn_true)) < 1e-10


def test_project_points_batch_matches_single():
    cam = _cam(intr=INTR_DIST)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.5, 0.5, size=(15, 3))
    batch = project_points(cam, pts)
    singles = np.array([project(cam, p) for p in pts])
    assert np.array_equal(batch, singles)


def test_synth_projection_matches_project_points():
    cam = _cam(intr=INTR_DIST)
    pts = _frustum_points(cam, np.random.default_rng(2), 25)
    uv, mask = project_visible(cam, pts)
    assert mask.all()
    assert np.array_equal(uv, project_points(cam, pts))


# ---------------------------------------------------------------------------
# PnP

def test_pnp_zero_noise_exact():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cam = _cam(intr=INTR_DIST)
        pts = _frustum_points(cam, rng, 15)
        pix = project_points(cam, pts)
        pose, mean_px = solve_pnp(pts, pix, cam.intrinsics)
        assert mean_px < 1e-6
        assert np.linalg.norm(pose.t - cam.world_from_camera.t) < 1e-6
        assert quat_angle_deg(pose.q, cam.world_from_camera.q) < 1e-5


def test_pnp_half_pixel_noise_accuracy():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        cam = _cam(position=(2.5, -1.5, 2.8), target=(0.2, 0.1, 1.0),
                   intr=INTR_DIST)
        pts = _frustum_points(cam, rng, 21)
        pix = project_points(cam, pts) + rng.normal(0, 0.5, size=(21, 2))
        pose, mean_px = solve_pnp(pts, pix, cam.intrinsics)
        assert mean_px <= 1.5
        assert quat_angle_deg(pose.q, cam.world_from_camera.q) < 0.3
        assert np.linalg.norm(pose.t - cam.world_from_camera.t) < 0.02


def test_pnp_minimum_count():
    rng = np.random.default_rng(0)
    cam = _cam()
    pts = _frustum_points(cam, rng, 5)
    pix = project_points(cam, pts)
    with pytest.raises(InsufficientCorrespondencesError):
        solve_pnp(pts, pix, cam.intrinsics)


def test_pnp_length_mismatch():
    with pytest.raises(InsufficientCorrespondencesError):
        solve_pnp(np.zeros((7, 3)), np.zeros((6, 2)), INTR)


def test_pnp_degenerate_coplanar_line():
    # all points on one 3D line: pose is not recoverable
    pts = np.column_stack([np.linspace(-1, 1, 8), np.zeros(8), np.zeros(8)])
    cam = _cam()
    pix = project_points(cam, pts)
    with pytest.raises((DegenerateGeometryError, Exception)):
        solve_pnp(pts, pix, cam.intrinsics)


def _random_pixels_problem(seed):
    """Eight points in front of the default camera and uniform random pixels
    that no pose explains."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (8, 3)) + [0, 0, 4]
    pix = rng.uniform([0, 0], [1280, 720], (8, 2))
    return pts, pix


def test_pnp_nonconvergence_carries_last_iterate():
    pts, pix = _random_pixels_problem(6)
    with pytest.raises(ConvergenceError) as exc_info:
        solve_pnp(pts, pix, _default_intrinsics())
    last = exc_info.value.last_iterate
    assert isinstance(last, RigidTransform)
    assert np.all(np.isfinite(last.q)) and np.all(np.isfinite(last.t))


def test_pnp_accepts_few_random_pixel_problems():
    """Over seeds 0-199 of random pixels, a pose comes back (mean error
    within a quarter of the image) at most as often as from the unconditioned
    DLT start, which accepted 77; every other problem is a ConvergenceError
    carrying a finite pose."""
    accepted = 0
    for seed in range(200):
        pts, pix = _random_pixels_problem(seed)
        try:
            solve_pnp(pts, pix, _default_intrinsics())
        except ConvergenceError as exc:
            last = exc.last_iterate
            assert np.all(np.isfinite(last.q)) and np.all(np.isfinite(last.t))
        else:
            accepted += 1
    assert accepted <= 77


@pytest.mark.parametrize("which", ["points", "pixels"])
def test_pnp_refuses_non_finite_input(which):
    cam = _cam(intr=INTR_DIST)
    pts = _frustum_points(cam, np.random.default_rng(0), 8)
    pix = project_points(cam, pts)
    if which == "points":
        pts[3, 1] = np.inf
    else:
        pix[5, 0] = np.nan
    with pytest.raises(ParameterError, match=f"PnP {which} must be finite"):
        solve_pnp(pts, pix, cam.intrinsics)


def test_pnp_refinement_reduces_error():
    # with noise, the refined mean error should be comparable to the noise
    rng = np.random.default_rng(7)
    cam = _cam(intr=INTR_DIST)
    pts = _frustum_points(cam, rng, 30)
    pix = project_points(cam, pts) + rng.normal(0, 1.0, size=(30, 2))
    _, mean_px = solve_pnp(pts, pix, cam.intrinsics)
    assert mean_px < 2.5


def _far_motion(distance_m):
    """A random rigid motion of the reference frame whose translation is
    ``distance_m`` long."""
    rng = np.random.default_rng(1)
    t = rng.normal(size=3)
    return RigidTransform(quat_normalize(rng.normal(size=4)),
                          distance_m * t / np.linalg.norm(t), "reference", "reference")


@pytest.mark.parametrize("distance_m", [1e3, 1e4, 1e5])
def test_pnp_is_equivariant_under_a_far_rigid_motion(distance_m):
    """Moving the world points moves every recovered camera with them, also
    when the points end kilometres from the world origin, as in laser-scanner
    and survey frames."""
    bundle = generate(SynthConfig(seed=3, duration_s=0.1))
    motion = _far_motion(distance_m)
    for cam in bundle.cameras:
        entries = bundle.marker_pixels[cam.id]
        points = np.array([bundle.markers.positions[mid] for mid, _, _ in entries])
        pixels = np.array([[u, v] for _, u, v in entries])
        pose, _ = solve_pnp(points, pixels, cam.intrinsics)
        moved, _ = solve_pnp(motion.apply_points(points), pixels, cam.intrinsics)
        expected = compose(motion, pose.with_frames("camera", "reference"))
        assert transforms_close(moved, expected, tol_t_m=1e-8, tol_deg=1e-7)


# ---------------------------------------------------------------------------
# triangulation

def _ring_cameras(n=4, radius=3.0, height=2.5):
    cams = []
    for i in range(n):
        ang = 2 * np.pi * i / n
        cams.append(_cam(f"cam{i}",
                         position=(radius * np.cos(ang), radius * np.sin(ang),
                                   height),
                         target=(0.0, 0.0, 1.0)))
    return cams


def test_triangulate_exact_recovery():
    cams = _ring_cameras()
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.uniform(-0.6, 0.6, size=3) + [0, 0, 1.0]
        obs = [PixelObservation(c.id, *project(c, p)) for c in cams]
        est, res = triangulate(obs, cams)
        assert np.linalg.norm(est - p) < 1e-9
        assert res < 1e-9


def test_triangulate_noise_accuracy():
    cams = _ring_cameras()
    rng = np.random.default_rng(1)
    errs = []
    for _ in range(100):
        p = rng.uniform(-0.6, 0.6, size=3) + [0, 0, 1.0]
        obs = []
        for c in cams:
            uv = project(c, p) + rng.normal(0, 1.0, size=2)
            obs.append(PixelObservation(c.id, uv[0], uv[1]))
        est, _ = triangulate(obs, cams)
        errs.append(np.linalg.norm(est - p) * 1000.0)
    assert np.median(errs) < 5.0


def test_triangulate_ignores_low_confidence():
    cams = _ring_cameras()
    p = np.array([0.1, -0.2, 1.1])
    obs = [PixelObservation(c.id, *project(c, p)) for c in cams]
    # a wildly wrong observation with confidence below the floor
    obs.append(PixelObservation("cam0", 10.0, 10.0,
                                confidence=CONFIDENCE_FLOOR / 2))
    est, res = triangulate(obs, cams)
    assert np.linalg.norm(est - p) < 1e-9
    assert res < 1e-9


def test_triangulate_confidence_weighting():
    cams = _ring_cameras()
    p = np.array([0.0, 0.0, 1.0])
    biased = project(cams[0], p) + [40.0, 0.0]
    def solve(conf):
        obs = [PixelObservation(cams[0].id, biased[0], biased[1],
                                confidence=conf)]
        obs += [PixelObservation(c.id, *project(c, p)) for c in cams[1:]]
        est, _ = triangulate(obs, cams)
        return np.linalg.norm(est - p)
    assert solve(0.15) < solve(1.0)


def test_triangulate_needs_two_cameras():
    cams = _ring_cameras()
    p = np.array([0.0, 0.0, 1.0])
    obs = [PixelObservation("cam0", *project(cams[0], p)),
           PixelObservation("cam0", *(project(cams[0], p) + 1.0))]
    with pytest.raises(InsufficientViewsError):
        triangulate(obs, cams)
    with pytest.raises(InsufficientViewsError):
        triangulate([obs[0]], cams)


def test_triangulate_unknown_camera_id():
    cams = _ring_cameras()
    p = np.array([0.0, 0.0, 1.0])
    obs = [PixelObservation(c.id, *project(c, p)) for c in cams]
    obs.append(PixelObservation("camX", 640.0, 360.0))
    with pytest.raises(UnknownEntityError, match="'camX'"):
        triangulate(obs, cams)


def test_triangulate_names_first_unknown_camera_in_observation_order():
    cams = _ring_cameras()
    p = np.array([0.0, 0.0, 1.0])
    obs = [PixelObservation(c.id, *project(c, p)) for c in cams]
    obs[1:1] = [PixelObservation("camZ", 640.0, 360.0),
                PixelObservation("camA", 640.0, 360.0)]
    with pytest.raises(UnknownEntityError) as exc_info:
        triangulate(obs, cams)
    assert str(exc_info.value) == "unknown camera id 'camZ'"


def test_triangulate_parallel_rays_degenerate():
    # two cameras at the same position see the same ray
    c0 = _cam("cam0", position=(0, 0, 3.0))
    c1 = _cam("cam1", position=(0, 1e-6, 3.0))
    p = np.array([0.05, 0.05, 0.5])
    obs = [PixelObservation(c.id, *project(c, p)) for c in (c0, c1)]
    with pytest.raises(DegenerateGeometryError):
        triangulate(obs, [c0, c1])


def test_triangulate_exactly_parallel_rays_are_degenerate():
    """Two exactly parallel rays end as a DegenerateGeometryError, limited
    to their point: along an axis, where the seed's normal equations are
    exactly singular, and along a general direction, where they are nearly
    so. A well-posed point in the same batch stays valid."""
    good = np.array([0.05, -0.05, 1.0])
    for direction in ([0.0, 0.0, -1.0], [0.3, -0.2, -1.0]):
        d = np.array(direction) / np.linalg.norm(direction)
        cams = [_cam("cam0", position=(0.0, 0.0, 3.0), target=(0.0, 0.0, 3.0) + d),
                _cam("cam1", position=(0.4, 0.0, 3.0), target=(0.4, 0.0, 3.0) + d)]
        axis = [(c.intrinsics.cx, c.intrinsics.cy) for c in cams]
        pixels = np.array([axis, [project(c, good) for c in cams]])
        points, _, errors = triangulate_batch(pixels, np.ones((2, 2)), cams)
        assert isinstance(errors[0], DegenerateGeometryError)
        assert errors[1] is None and np.linalg.norm(points[1] - good) < 1e-9
        with pytest.raises(DegenerateGeometryError):
            triangulate([PixelObservation(c.id, *uv) for c, uv in zip(cams, axis)], cams)


def _counting_lm():
    """A patch of ``cameras._least_squares`` and the list of the number of
    problems in each call of its model."""
    calls = []
    solve = cameras._least_squares

    def spy(model, x, weights):
        def counted(x, rows):
            calls.append(len(rows))
            return model(x, rows)
        return solve(counted, x, weights)

    return calls, mock.patch.object(cameras, "_least_squares", spy)


def _exact_ray_seed(seeded):
    """A patch under which ``triangulate_batch`` seeds on ``_undistort``'s
    Newton inverse: its fixed-point step ``2 x - _distort(x)`` lands on it.
    Each call appends to ``seeded``, so a seed that skips the step shows."""
    def distort(x, dist):
        seeded.append(x.shape)
        return 2 * x - _undistort(x, dist)
    return mock.patch.object(cameras, "_distort", distort)


@pytest.mark.parametrize("k1", [-0.3, 0.2])
def test_triangulate_first_order_seed_under_strong_distortion(k1):
    """The seed's first-order rays under a radial distortion 5-8 times
    synth's: every valid flag is that of the exact-ray seed, the LM takes no
    more model calls, and the joints are within 1e-8 m of an independent LM
    solve run to machine precision from the truth."""
    bundle = generate(SynthConfig(seed=7, duration_s=0.1))
    cams = [CameraModel(c.id, replace(c.intrinsics, dist=(k1, 0.1) + c.intrinsics.dist[2:]),
                        c.world_from_camera) for c in bundle.cameras]
    rng = np.random.default_rng(0)
    calls, counted = _counting_lm()
    exact_calls, exact_counted = _counting_lm()
    seeded = []
    for truth, per_cam in zip(bundle.skeleton_true, bundle.keypoint_frames):
        seen = [project_visible(c, truth.positions) for c in cams]
        pixels = np.stack([uv for uv, _ in seen], axis=1)
        pixels += rng.normal(0, 0.5, size=pixels.shape)
        conf = np.stack([np.where(visible, f.keypoints[0][:, 2], 0.0)
                         for (_, visible), f in zip(seen, per_cam)], axis=1)
        with counted:
            points, _, errors = triangulate_batch(pixels, conf, cams)
        with exact_counted, _exact_ray_seed(seeded):
            exact_errors = triangulate_batch(pixels, conf, cams)[2]
        valid = [e is None for e in errors]
        assert valid == [e is None for e in exact_errors] and sum(valid) > 50
        for j in np.flatnonzero(valid)[::4]:  # a quarter keeps the test short
            used = conf[j] >= CONFIDENCE_FLOOR
            seeing = [c for c, u in zip(cams, used) if u]
            w = np.sqrt(conf[j, used])[:, None]

            def residuals(x):
                uv = np.array([project(c, x) for c in seeing])
                return (w * (uv - pixels[j, used])).ravel()

            ref = least_squares(residuals, truth.positions[j], method="lm",
                                xtol=1e-15, ftol=1e-15, gtol=1e-15)
            assert np.linalg.norm(points[j] - ref.x) < 1e-8
    assert len(seeded) == len(bundle.keypoint_frames)
    assert len(calls) <= len(exact_calls)


def test_triangulate_first_order_seed_takes_no_more_lm_calls():
    """On synth captures with a bystander the LM takes no more model calls
    per frame from the first-order seed than from the exact-ray one."""
    for seed in (0, 1, 2):
        bundle = generate(SynthConfig(seed=seed, duration_s=0.5, include_bystander=True))
        calls, counted = _counting_lm()
        exact_calls, exact_counted = _counting_lm()
        seeded = []
        for per_cam in bundle.keypoint_frames:
            sel = select_surgeon(per_cam, bundle.cameras, bundle.table_center)
            with counted:
                triangulate_skeleton(per_cam, sel, bundle.cameras)
            with exact_counted, _exact_ray_seed(seeded):
                triangulate_skeleton(per_cam, sel, bundle.cameras)
        assert len(seeded) == len(bundle.keypoint_frames)
        assert len(calls) <= len(exact_calls)


def test_triangulate_skeleton_is_equivariant_under_a_far_rigid_motion():
    """Cameras moved 1,000 km by a rigid motion triangulate every joint at
    the moved joint. The tolerance comes from the coordinate scale: at
    distance D the world coordinates round by eps D, so a pixel residual
    of about 1 px by f eps D / z, and the cost as much; the cost of a
    shift delta is (f / z)^2 delta^2, so the LM cannot resolve shifts below
    about sqrt(eps D z / f), with z up to 5 m here."""
    distance_m = 1e6
    bundle = generate(SynthConfig(seed=3, duration_s=0.1))
    motion = _far_motion(distance_m)
    moved = [CameraModel(c.id, c.intrinsics, compose(motion, c.world_from_camera))
             for c in bundle.cameras]
    focal = min(c.intrinsics.fx for c in bundle.cameras)
    tol_m = np.sqrt(np.finfo(float).eps * distance_m * 5.0 / focal)
    for per_cam in bundle.keypoint_frames:
        sel = select_surgeon(per_cam, bundle.cameras, bundle.table_center)
        near = triangulate_skeleton(per_cam, sel, bundle.cameras)
        far = triangulate_skeleton(per_cam, sel, moved)
        assert near.valid.tolist() == far.valid.tolist() and near.valid.sum() > 50
        err = motion.apply_points(near.positions[near.valid]) - far.positions[far.valid]
        assert np.abs(err).max() < tol_m


# ---------------------------------------------------------------------------
# analytic Jacobians and Newton undistortion, on random intrinsics whose
# distortion is up to twice synth's (-0.04, 0.01, 0.0004, -0.0003, 0) in
# size, either sign, with k3 up to 1e-3

DIST_SCALE = np.array([0.08, 0.02, 0.0008, 0.0006, 0.001])


def _random_intrinsics(rng):
    return CameraIntrinsics(fx=rng.uniform(400, 1200), fy=rng.uniform(400, 1200),
                            cx=rng.uniform(600, 680), cy=rng.uniform(320, 400),
                            width=1280, height=720,
                            dist=tuple(rng.uniform(-1, 1, 5) * DIST_SCALE))


def _image_normalized(rng, intr, n):
    """Normalized coords (n, 2) of pixels spread over the image of ``intr``."""
    uv = rng.uniform(0, 1, size=(n, 2)) * [intr.width - 1, intr.height - 1]
    return (uv - intr.center) / intr.focal


def _random_camera(rng, cam_id="cam0"):
    """A camera 2.5-4 m from the origin in a random direction, looking at it."""
    d = rng.normal(size=3)
    return _cam(cam_id, position=rng.uniform(2.5, 4) * d / np.linalg.norm(d),
                intr=_random_intrinsics(rng))


def _kernel_jacobian(xn, dist):
    """The distortion's derivative (..., 2, 2) at ``xn`` (..., 2), from the
    entries ``_brown_conrady`` returns."""
    _, _, a, b, d = _brown_conrady(xn[..., 0], xn[..., 1],
                                   _dist_terms(dist, xn.shape[:-1]))
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, d], axis=-1)], axis=-2)


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_distort_jacobian_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    intr = _random_intrinsics(rng)
    for xn in _image_normalized(rng, intr, 5):
        jac = _kernel_jacobian(xn, intr.dist)
        numeric = central_jacobian(lambda v: _distort(v, intr.dist), xn, 1e-6)
        assert np.abs(jac - numeric).max() < 1e-8
        assert jac[0, 1] == jac[1, 0]


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_undistort_inverts_distort(seed):
    """``_undistort`` finds a preimage of every distorted point. It is the
    original point wherever the distortion does not fold between that point
    and the centre; beyond the fold (Jacobian determinant below 0) the other
    preimage is as valid."""
    rng = np.random.default_rng(seed)
    intr = _random_intrinsics(rng)
    xn = _image_normalized(rng, intr, 50)
    xd = _distort(xn, intr.dist)
    back = _undistort(xd, intr.dist)
    assert np.abs(_distort(back, intr.dist) - xd).max() < 1e-12
    segment = np.linspace(0, 1, 101)[:, None, None] * xn
    unfolded = (np.linalg.det(_kernel_jacobian(segment, intr.dist)) > 0).all(axis=0)
    assert np.abs(back - xn)[unfolded].max(initial=0) < 1e-12


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_undistort_batch_matches_single(seed):
    rng = np.random.default_rng(seed)
    intr = _random_intrinsics(rng)
    xd = _distort(_image_normalized(rng, intr, 20), intr.dist)
    batch = _undistort(xd, intr.dist)
    for i in range(len(xd)):
        assert np.array_equal(_undistort(xd[i:i + 1], intr.dist)[0], batch[i])


@given(seeds)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_triangulation_jacobian_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    cams = [_random_camera(rng, f"cam{k}") for k in range(3)]
    point = rng.uniform(-0.3, 0.3, size=3)
    pixels = np.array([project(c, point) for c in cams]) + rng.normal(0, 0.5, (3, 2))
    model, _ = captured_model(cameras, lambda: triangulate_batch(
        pixels[None], rng.uniform(0.2, 1.0, size=(1, 3)), cams))
    assert_jacobian_matches(model, point + rng.normal(0, 0.01, size=3), 1e-6)


@given(seeds)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_pnp_jacobian_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    cam = _random_camera(rng)
    points = rng.uniform(-0.4, 0.4, size=(10, 3))
    model, (x,) = captured_model(cameras, lambda: solve_pnp(
        points, project_points(cam, points), cam.intrinsics))
    assert_jacobian_matches(model, x, 1e-6)
    # near and at a zero rotation (the right Jacobian's first-order branch),
    # with the points 3 m in front of the camera
    for angle in (1e-3, 1e-13, 0.0):
        rotvec = angle * rng.normal(size=3) / np.sqrt(3)
        assert_jacobian_matches(model, np.concatenate([rotvec, [0.0, 0.0, 3.0]]), 1e-6)


# ---------------------------------------------------------------------------
# bit-for-bit references: the distortion, its derivative, the undistortion
# and the projection derivative as they were written before the one kernel
# ``_brown_conrady``. The code that replaced them gives the same bits.

def _ref_distort(xn, dist):
    k1, k2, p1, p2, k3 = dist
    x, y = xn[..., 0], xn[..., 1]
    r2 = x * x + y * y
    radial = 1 + k1 * r2 + k2 * r2 ** 2 + k3 * r2 ** 3
    xd = x * radial + 2 * p1 * x * y + p2 * (r2 + 2 * x * x)
    yd = y * radial + p1 * (r2 + 2 * y * y) + 2 * p2 * x * y
    return np.stack([xd, yd], axis=-1)


def _ref_distort_jacobian(xn, dist):
    k1, k2, p1, p2, k3 = dist
    x, y = xn[..., 0], xn[..., 1]
    r2 = x * x + y * y
    radial = 1 + r2 * (k1 + r2 * (k2 + r2 * k3))
    g = 2 * k1 + r2 * (4 * k2 + 6 * k3 * r2)
    jac = np.empty(x.shape + (2, 2))
    jac[..., 0, 0] = radial + g * x * x + 2 * p1 * y + 6 * p2 * x
    jac[..., 0, 1] = jac[..., 1, 0] = g * x * y + 2 * p1 * x + 2 * p2 * y
    jac[..., 1, 1] = radial + g * y * y + 6 * p1 * y + 2 * p2 * x
    return jac


def _ref_undistort(xd, dist):
    xn = np.array(xd, dtype=float, copy=True)
    moving = np.ones(xn.shape[:-1], dtype=bool)
    for _ in range(30):
        err = _ref_distort(xn, dist) - xd
        jac = _ref_distort_jacobian(xn, dist)
        a, b, d = jac[..., 0, 0], jac[..., 0, 1], jac[..., 1, 1]
        ex, ey = err[..., 0], err[..., 1]
        step = np.stack([d * ex - b * ey, a * ey - b * ex], axis=-1) / (a * d - b * b)[..., None]
        step[~moving] = 0.0
        xn -= step
        moving &= np.abs(step).max(axis=-1) >= 1e-14
        if not moving.any():
            break
    return xn


def _ref_pixels_jacobian(pc, focal, dist):
    z = pc[..., 2:3]
    xn = pc[..., :2] / z
    fd = focal[..., :, None] * _ref_distort_jacobian(xn, dist) / z[..., None]
    return np.concatenate([fd, -(fd @ xn[..., None])], axis=-1)


def _ref_pixels_with_jacobian(pc, focal, center, dist):
    return (focal * _ref_distort(pc[..., :2] / pc[..., 2:3], dist) + center,
            _ref_pixels_jacobian(pc, focal, dist))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _with_reference_kernels(call):
    """``call()`` with the reference code put back under ``cameras``."""
    with mock.patch.object(cameras, "_undistort", _ref_undistort), \
            mock.patch.object(cameras, "_pixels_with_jacobian",
                              _ref_pixels_with_jacobian):
        return call()


def _slot_intrinsics(rng, k):
    """Focal lengths (k, 2), principal points (k, 2) and distortion rows
    (5, k) of k random cameras, as ``triangulate_batch`` stacks them."""
    intrs = [_random_intrinsics(rng) for _ in range(k)]
    return (np.array([i.focal for i in intrs]), np.array([i.center for i in intrs]),
            np.array([i.dist for i in intrs]).T)


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_distortion_kernel_matches_reference_bits(seed):
    rng = np.random.default_rng(seed)
    intr = _random_intrinsics(rng)
    xn = _image_normalized(rng, intr, 30)
    _, _, dist = _slot_intrinsics(rng, 5)
    slots = rng.uniform(-0.8, 0.8, size=(67, 5, 2))  # against (5, 5) coefficients
    for points, coefficients in ((xn, intr.dist), (xn[0], intr.dist), (slots, dist)):
        assert _same_bits(_distort(points, coefficients),
                          _ref_distort(points, coefficients))
        assert _same_bits(_kernel_jacobian(points, coefficients),
                          _ref_distort_jacobian(points, coefficients))


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_undistort_matches_reference_bits(seed):
    """Batches with per-slot coefficients, a single (2,) pixel as
    ``unproject`` passes it, points far outside the image, and one whose
    squared radius overflows, so its steps are NaN."""
    rng = np.random.default_rng(seed)
    intr = _random_intrinsics(rng)
    xd = _distort(_image_normalized(rng, intr, 30), intr.dist)
    _, _, dist = _slot_intrinsics(rng, 5)
    slots = rng.uniform(-0.8, 0.8, size=(67, 5, 2))
    far = np.vstack([xd, rng.uniform(-1e3, 1e3, size=(4, 2)), [[0.0, 0.0]],
                     [[1e200, -1e200]]])
    with np.errstate(all="ignore"):
        for points, coefficients in ((xd, intr.dist), (xd[0], intr.dist),
                                     (slots, dist), (far, intr.dist)):
            assert _same_bits(_undistort(points, coefficients),
                              _ref_undistort(points, coefficients))
    pixel = intr.focal * xd[0] + intr.center
    assert _same_bits(_normalized(pixel, intr.focal, intr.center, intr.dist),
                      _ref_undistort((pixel - intr.center) / intr.focal, intr.dist))


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_pixels_with_jacobian_matches_reference_bits(seed):
    """Per-slot cameras, with points in front of, on and behind the camera
    plane, as the LM models evaluate them."""
    rng = np.random.default_rng(seed)
    focal, center, dist = _slot_intrinsics(rng, 5)
    pc = rng.uniform(-1, 1, size=(67, 5, 3)) + [0.0, 0.0, 2.5]
    pc[3, 1, 2] = -0.4  # behind camera 1
    pc[4, 2, 2] = 0.0  # on the camera plane
    with np.errstate(all="ignore"):
        pixels, jac = _pixels_with_jacobian(pc, focal, center, dist)
        ref_pixels, ref_jac = _ref_pixels_with_jacobian(pc, focal, center, dist)
        assert _same_bits(_pixels(pc, focal, center, dist), ref_pixels)
    assert _same_bits(pixels, ref_pixels) and _same_bits(jac, ref_jac)
    intr = _random_intrinsics(rng)
    pc = rng.uniform(-1, 1, size=(10, 3)) + [0.0, 0.0, 3.0]
    pixels, jac = _pixels_with_jacobian(pc, intr.focal, intr.center, intr.dist)
    ref_pixels, ref_jac = _ref_pixels_with_jacobian(pc, intr.focal, intr.center,
                                                    intr.dist)
    assert _same_bits(pixels, ref_pixels) and _same_bits(jac, ref_jac)


def _batch_bits(result):
    points, residuals, errors = result
    return points.tobytes(), residuals.tobytes(), [repr(e) for e in errors]


@given(seeds, st.booleans())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_triangulate_batch_matches_reference_kernels(seed, shared_camera):
    """Every output bit of ``triangulate_batch`` is the same with the
    reference kernels: a point behind a camera, a camera that sees nothing,
    and (with ``shared_camera``) one camera filling two slots."""
    rng = np.random.default_rng(seed)
    cams = [_random_camera(rng, f"cam{k}") for k in range(4)]
    opposite = -cams[1].world_from_camera.t  # camera 0 faces camera 1
    cams[0] = _cam("cam0", position=opposite, intr=_random_intrinsics(rng))
    if shared_camera:
        cams[3] = cams[1]  # the np.unique path of the view count
    points = rng.uniform(-0.3, 0.3, size=(30, 3))
    pixels = np.stack([project_points(c, points) for c in cams], axis=1)
    pixels += rng.normal(0, 0.5, size=pixels.shape)
    conf = rng.uniform(0.0, 1.0, size=(30, 4))
    conf[:, 2] = 0.0  # camera 2 sees no person
    # point 0 lies behind camera 0 and in front of camera 1; camera 0's pixel
    # is its pinhole image all the same, so the DLT start is behind camera 0
    behind = 1.5 * opposite + points[0]
    intr = cams[0].intrinsics
    pixels[0, 0] = _pixels(cams[0].cam_from_world.apply_points(behind[None]),
                           intr.focal, intr.center, intr.dist)[0]
    pixels[0, 1] = project(cams[1], behind)
    conf[0] = [1.0, 1.0, 0.0, 0.0]
    new = triangulate_batch(pixels, conf, cams)
    assert "behind a camera" in str(new[2][0])
    assert _batch_bits(new) == _batch_bits(
        _with_reference_kernels(lambda: triangulate_batch(pixels, conf, cams)))


@given(seeds)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_pnp_and_unproject_match_reference_kernels(seed):
    rng = np.random.default_rng(seed)
    cam = _random_camera(rng)
    points = rng.uniform(-0.4, 0.4, size=(10, 3))
    pixels = project_points(cam, points) + rng.normal(0, 0.5, size=(10, 2))
    pose, mean_px = solve_pnp(points, pixels, cam.intrinsics)
    ref_pose, ref_mean_px = _with_reference_kernels(
        lambda: solve_pnp(points, pixels, cam.intrinsics))
    assert _same_bits(pose.q, ref_pose.q) and _same_bits(pose.t, ref_pose.t)
    assert mean_px == ref_mean_px
    lifted = unproject(cam, pixels[0], 2.0)
    assert _same_bits(lifted, _with_reference_kernels(
        lambda: unproject(cam, pixels[0], 2.0)))


def test_skeleton_matches_reference_kernels():
    """Selections and skeletons of a bystander capture are bit for bit those
    of the reference kernels, with every slot used and with one camera in
    turn left out, as when it sees no person."""
    bundle = generate(SynthConfig(seed=4, duration_s=0.2, include_bystander=True))
    for k, per_cam in enumerate(bundle.keypoint_frames):
        def run():
            sel = select_surgeon(per_cam, bundle.cameras, bundle.table_center)
            sel[bundle.cameras[k % len(bundle.cameras)].id] = None
            out = triangulate_skeleton(per_cam, sel, bundle.cameras)
            return sel, out.positions.tobytes(), out.residuals_px.tobytes(), \
                out.valid.tobytes()
        assert run() == _with_reference_kernels(run)


# ---------------------------------------------------------------------------
# time offset

def _wiggle_track(t, phase=0.0):
    pos = np.column_stack([0.3 * np.sin(1.3 * (t + phase)),
                           0.2 * np.cos(2.1 * (t + phase)),
                           1.0 + 0.1 * np.sin(0.7 * (t + phase))])
    return pos


def test_offset_zero_for_aligned_tracks():
    t = np.arange(0, 10, 1 / 30)
    pos = _wiggle_track(t)
    res = estimate_time_offset(t, pos, t, pos)
    assert res.offset_s == 0.0 and not res.ambiguous


def test_offset_recovers_shift():
    t = np.arange(0, 10, 1 / 30)
    shift = 0.5
    res = estimate_time_offset(t, _wiggle_track(t),
                               t - shift, _wiggle_track(t))
    assert abs(res.offset_s - shift) <= 0.5 / 30 + 1e-9


def test_offset_subsample_grid_resolution():
    # 33 ms true offset between a 30 Hz and a 60 Hz track
    shift = 0.033
    ta = np.arange(0, 12, 1 / 30)
    tb = np.arange(0, 12, 1 / 60)
    res = estimate_time_offset(ta, _wiggle_track(ta),
                               tb - shift, _wiggle_track(tb))
    assert abs(res.offset_s - shift) <= 0.0167


def test_offset_motionless_ambiguous():
    t = np.arange(0, 5, 1 / 30)
    pos = np.tile([1.0, 2.0, 3.0], (len(t), 1))
    res = estimate_time_offset(t, pos, t, pos)
    assert res.ambiguous and res.offset_s == 0.0


def test_offset_too_short():
    t = np.arange(0, 1.0, 1 / 30)
    with pytest.raises(ParameterError):
        estimate_time_offset(t, _wiggle_track(t), t, _wiggle_track(t))


@pytest.mark.parametrize("disorder", ["repeated", "shuffled"])
@pytest.mark.parametrize("track", ["a", "b"])
def test_offset_refuses_unordered_times(disorder, track):
    t = np.arange(0, 10, 1 / 30)
    bad = t.copy()
    if disorder == "repeated":
        bad[5] = bad[4]
    else:
        np.random.default_rng(0).shuffle(bad[1:-1])  # same span
    ta, tb = (bad, t) if track == "a" else (t, bad)
    with pytest.raises(ParameterError, match="timestamps must be strictly increasing"):
        estimate_time_offset(ta, _wiggle_track(t), tb, _wiggle_track(t))


@pytest.mark.parametrize("fault, message", [
    ("nan position", "must be finite"), ("inf position", "must be finite"),
    ("nan time", "must be finite"), ("inf time", "must be finite"),
    ("one position short", "one position per time")])
@pytest.mark.parametrize("track", ["a", "b"])
def test_offset_refuses_bad_input_before_any_arithmetic(fault, message, track):
    """A NaN position on otherwise identical tracks used to give a confident
    offset of -7.4 s, an infinite one a RuntimeWarning, a short track numpy's
    ValueError."""
    t = np.arange(0, 10, 1 / 30)
    bad_t, bad_p = t.copy(), _wiggle_track(t)
    if fault == "one position short":
        bad_p = bad_p[:-1]
    elif fault.endswith("position"):
        bad_p[100, 1] = float(fault.split()[0])
    else:
        bad_t[-1] = float(fault.split()[0])
    args = (bad_t, bad_p, t, _wiggle_track(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ParameterError, match=message):
            estimate_time_offset(*(args if track == "a" else args[2:] + args[:2]))


def test_offset_disjoint_tracks():
    # the speed profiles span 1 s each and sit 0.25 s apart: no offset on the
    # 0.5 s grid lets them share MIN_OVERLAP_S
    p = [[0, 0, 0], [1, 0, 0], [3, 0, 0]]
    with pytest.raises(NoOverlapError):
        estimate_time_offset([0, 1, 2], p, [0.25, 1.25, 2.25], p)
