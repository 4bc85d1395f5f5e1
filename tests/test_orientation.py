"""Quaternion algebra, Euler extraction, attitude filter, velocity
integration. Rotation results are checked against an independent
Rodrigues-formula oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgait.errors import NonUnitQuaternion
from syncgait.orientation import (EulerAngles, Quaternion, _ahrs_step,
                                  ahrs_stream, euler_to_quaternion,
                                  initial_orientation, integrate_velocity,
                                  project_body_relative, quaternion_to_euler,
                                  rotate_to_world)
from syncgait.series import ImuSeries


def rodrigues(axis: np.ndarray, angle: float) -> np.ndarray:
    """Independent rotation-matrix oracle."""
    k = axis / np.linalg.norm(axis)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * kx @ kx


def axis_angle_quaternion(axis: np.ndarray, angle: float) -> Quaternion:
    k = axis / np.linalg.norm(axis)
    s = math.sin(angle / 2)
    return Quaternion(math.cos(angle / 2), k[0] * s, k[1] * s, k[2] * s)


def test_quaternion_rotation_matches_rodrigues_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        axis = rng.normal(size=3)
        angle = rng.uniform(-math.pi, math.pi)
        v = rng.normal(size=3)
        q = axis_angle_quaternion(axis, angle)
        r = rodrigues(axis, angle)
        assert np.allclose(rotate_to_world(q, v), r @ v, atol=1e-9)
        assert np.allclose(q.to_matrix(), r, atol=1e-9)


def test_quaternion_multiplication_composes_rotations():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a1, a2 = rng.normal(size=3), rng.normal(size=3)
        t1, t2 = rng.uniform(-3, 3, 2)
        q = axis_angle_quaternion(a1, t1) * axis_angle_quaternion(a2, t2)
        r = rodrigues(a1, t1) @ rodrigues(a2, t2)
        assert np.allclose(q.to_matrix(), r, atol=1e-9)


def test_rotate_rejects_non_unit_quaternion():
    with pytest.raises(NonUnitQuaternion):
        rotate_to_world(Quaternion(2.0, 0, 0, 0), np.array([1.0, 0, 0]))


def test_euler_extraction_analytic_quaternions():
    # direct substitution on three single-axis quaternions
    half = math.pi / 8
    qx = Quaternion(math.cos(half), math.sin(half), 0, 0)     # pure roll
    e = quaternion_to_euler(qx)
    assert e.roll == pytest.approx(math.pi / 4, abs=1e-12)
    assert e.pitch == pytest.approx(0.0, abs=1e-12)
    assert e.yaw == pytest.approx(0.0, abs=1e-12)

    qy = Quaternion(math.cos(half), 0, math.sin(half), 0)     # pure pitch
    e = quaternion_to_euler(qy)
    assert e.pitch == pytest.approx(-math.pi / 4, abs=1e-12)
    assert e.roll == pytest.approx(0.0, abs=1e-12)
    assert e.yaw == pytest.approx(0.0, abs=1e-12)

    qz = Quaternion(math.cos(half), 0, 0, math.sin(half))     # pure yaw
    e = quaternion_to_euler(qz)
    assert e.yaw == pytest.approx(math.pi / 4, abs=1e-12)
    assert e.roll == pytest.approx(0.0, abs=1e-12)
    assert e.pitch == pytest.approx(0.0, abs=1e-12)


@given(st.floats(-1.2, 1.2), st.floats(-0.9, 0.9), st.floats(-3.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_euler_quaternion_round_trip(roll, pitch, yaw):
    e = EulerAngles(roll, pitch, yaw)
    back = quaternion_to_euler(euler_to_quaternion(e))
    assert back.roll == pytest.approx(roll, abs=1e-9)
    assert back.pitch == pytest.approx(pitch, abs=1e-9)
    assert back.yaw == pytest.approx(yaw, abs=1e-9)


# --- velocity integration vs closed forms -------------------------------------

def test_integrate_velocity_constant_acceleration():
    f_s = 100.0
    n = 500
    a = np.tile(np.array([2.0, -1.0, 0.5]), (n, 1))
    v = integrate_velocity(a, f_s)
    t = np.arange(n) / f_s
    expected = np.outer(t, a[0])
    assert np.allclose(v, expected, atol=1e-9)


def test_integrate_velocity_sinusoidal_acceleration():
    # a = A w cos(w t) integrates to v = A sin(w t); rectangular sum must
    # stay within 2% of the closed form at 100 Hz
    f_s = 100.0
    n = 400
    t = np.arange(n) / f_s
    amp, w = 0.8, 2 * np.pi * 1.5
    a = (amp * w * np.cos(w * t))[:, None] * np.array([[1.0, 0.0, 0.0]])
    v = integrate_velocity(a, f_s)
    expected = amp * np.sin(w * t)
    scale = np.abs(expected).max()
    assert np.max(np.abs(v[:, 0] - expected)) < 0.02 * scale


def test_integrate_velocity_starts_at_zero():
    v = integrate_velocity(np.ones((10, 3)), 100.0)
    assert np.all(v[0] == 0.0)


def test_integrate_velocity_validates_args():
    with pytest.raises(ValueError):
        integrate_velocity(np.ones((4, 3)), 0.0)


def test_project_body_relative_quarter_turn():
    v = np.array([[1.0, 0.0, 2.0]])
    out = project_body_relative(v, np.array([np.pi / 2]))
    # a world +x velocity seen from a heading of +90 deg points body -y... the
    # rotation moves forward progress onto +x: here v is orthogonal to heading
    assert np.allclose(out, [[0.0, -1.0, 2.0]], atol=1e-12)


# --- attitude filter -----------------------------------------------------------

GRAVITY_WORLD = np.array([0.0, 0.0, 9.81])
MAG_WORLD = np.array([22.0, 0.0, -43.0])


def _static_imu(q: Quaternion, n: int, rate: float = 100.0,
                noise: float = 0.0, seed: int = 0) -> ImuSeries:
    rng = np.random.default_rng(seed)
    r = q.to_matrix()
    acc = np.tile(r.T @ GRAVITY_WORLD, (n, 1))
    mag = np.tile(r.T @ MAG_WORLD, (n, 1))
    gyro = np.zeros((n, 3))
    if noise:
        acc = acc + rng.normal(0, noise, acc.shape)
        mag = mag + rng.normal(0, noise, mag.shape)
    return ImuSeries(np.arange(n) / rate, acc, gyro, mag)


def test_ahrs_recovers_static_orientation():
    true_q = euler_to_quaternion(EulerAngles(0.3, -0.2, 0.9))
    imu = _static_imu(true_q, 400)
    quats = ahrs_stream(imu)
    e_est = quaternion_to_euler(quats[-1])
    e_true = quaternion_to_euler(true_q)
    assert e_est.roll == pytest.approx(e_true.roll, abs=0.02)
    assert e_est.pitch == pytest.approx(e_true.pitch, abs=0.02)
    assert e_est.yaw == pytest.approx(e_true.yaw, abs=0.05)


def test_ahrs_gyro_only_fallback_flags_state():
    # identity attitude, zero bias, a zero accelerometer
    *q, bx, by, bz, gyro_only = _ahrs_step(
        1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 0.01)
    assert gyro_only
    # pure gyro integration about z advances yaw by w*dt
    assert quaternion_to_euler(Quaternion(*q)).yaw == pytest.approx(
        0.01, abs=1e-6)


def test_initial_orientation_identity_case():
    q = initial_orientation(GRAVITY_WORLD, MAG_WORLD)
    assert np.allclose(q.to_matrix(), np.eye(3), atol=1e-9)
