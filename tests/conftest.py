"""Shared helpers for the test suite."""

from unittest import mock

import numpy as np
import pytest

from twinfuse.geometry import RigidTransform, quat_normalize, rotation_angle_deg


def random_transform(rng, from_frame="src", to_frame="dst", t_scale=1.0):
    q = quat_normalize(rng.normal(size=4))
    t = rng.normal(scale=t_scale, size=3)
    return RigidTransform(q, t, from_frame=from_frame, to_frame=to_frame)


def quat_angle_deg(qa, qb):
    """Rotation angle between quaternions, well-conditioned near zero."""
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    d = min(np.linalg.norm(qa - qb), np.linalg.norm(qa + qb))
    return float(np.degrees(4.0 * np.arcsin(min(1.0, 0.5 * d))))


def transforms_close(a, b, tol_t_m=1e-9, tol_deg=1e-7):
    """Pose equality up to tolerances (quaternion sign-insensitive)."""
    dt = float(np.linalg.norm(a.t - b.t))
    dr = quat_angle_deg(a.q, b.q)
    return dt <= tol_t_m and dr <= tol_deg


def look_at_camera_pose(position, target, from_frame="camera", to_frame="world"):
    """World-from-camera pose with +z toward the target and +y down."""
    position = np.asarray(position, dtype=float)
    f = np.asarray(target, dtype=float) - position
    f = f / np.linalg.norm(f)
    up = np.array([0.0, 0.0, 1.0])
    x = np.cross(f, up)
    if np.linalg.norm(x) < 1e-9:
        up = np.array([0.0, 1.0, 0.0])
        x = np.cross(f, up)
    x = x / np.linalg.norm(x)
    y = np.cross(f, x)
    from twinfuse.geometry import transform_from_matrix
    rot = np.column_stack([x, y, f])
    return transform_from_matrix(rot, position, from_frame=from_frame,
                                 to_frame=to_frame)


def central_jacobian(f, x, h):
    """Central differences (m, n) of ``f``: (n,) -> (m,) at ``x``, step h."""
    x = np.asarray(x, dtype=float)
    return np.stack([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(len(x))],
                    axis=1)


def captured_model(module, call):
    """Run ``call()`` and return the first ``(model, x)`` that ``module``
    passed to ``geometry._least_squares``."""
    seen = []
    solve = module._least_squares

    def spy(model, x, weights):
        seen.append((model, np.array(x, dtype=float)))
        return solve(model, x, weights)

    with mock.patch.object(module, "_least_squares", spy):
        call()
    return seen[0]


def assert_jacobian_matches(model, x, h, rtol=1e-6):
    """The Jacobian ``model`` returns at the one problem ``x`` (n,) equals
    central differences of its residuals to ``rtol`` of its largest entry."""
    _, jac = model(x[None], np.array([0]))
    numeric = central_jacobian(lambda v: model(v[None], np.array([0]))[0][0], x, h)
    assert np.isfinite(jac).all()
    assert np.abs(jac[0] - numeric).max() <= rtol * np.abs(numeric).max()


@pytest.fixture(scope="session")
def default_bundle():
    """One short-trajectory synthetic bundle shared across tests."""
    from twinfuse.synth import SynthConfig, generate
    return generate(SynthConfig(seed=0, duration_s=0.5))
