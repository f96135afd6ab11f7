"""Sphere fits, marker-array registration, ICP, and pose-track smoothing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfuse.errors import (AmbiguityError, CorrespondenceError,
                             InsufficientCorrespondencesError, NoOverlapError,
                             ParameterError)
from twinfuse.geometry import PointCloud, RigidTransform, invert, kabsch
from twinfuse.tracking import (IcpParams, MarkerArrayGeometry, PoseTrack,
                               fit_sphere_fixed_radius, icp,
                               register_marker_array, smooth_track)
from twinfuse.geometry import quat_normalize
from twinfuse.synth import SynthConfig, generate, pose_error

from conftest import quat_angle_deg, random_transform

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


def test_sphere_fit_monotone_cost():
    # the line search only ever accepts decreasing cost; verify the fit
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


def test_array_geometry_validation():
    with pytest.raises(ParameterError):
        MarkerArrayGeometry(np.zeros((2, 3)))
    with pytest.raises(ParameterError):
        # two markers closer than one diameter
        MarkerArrayGeometry(np.array([[0, 0, 0], [0.001, 0, 0],
                                      [0.05, 0.05, 0.0]]), radius_m=RADIUS)


def test_array_geometry_json_round_trip():
    back = MarkerArrayGeometry.from_json(ARRAY.to_json())
    assert back.radius_m == ARRAY.radius_m
    assert np.array_equal(back.markers, ARRAY.markers)


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
        icp(src, dst, init, IcpParams(max_correspondence_m=0.01))


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
