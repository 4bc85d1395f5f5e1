"""Quaternion algebra, Euler extraction, attitude filter, velocity
integration. Rotation results are checked against an independent
Rodrigues-formula oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgait.errors import DegenerateSeries, NonUnitQuaternion
from syncgait.orientation import (AHRS_BETA, AHRS_ZETA, EulerAngles,
                                  Quaternion, ahrs_stream,
                                  euler_to_quaternion,
                                  initial_orientation, integrate_velocity,
                                  quaternion_to_euler, rotate_to_world,
                                  rotation_matrices)
from syncgait.series import ImuSeries
from syncgait.synth import CameraModel, SubjectParams, generate_session


def rodrigues(axis: np.ndarray, angle: float) -> np.ndarray:
    """Independent rotation-matrix oracle."""
    k = axis / np.linalg.norm(axis)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * kx @ kx


def axis_angle_quaternion(axis: np.ndarray, angle: float) -> Quaternion:
    k = axis / np.linalg.norm(axis)
    s = math.sin(angle / 2)
    return Quaternion(math.cos(angle / 2), k[0] * s, k[1] * s, k[2] * s)


def _as_array(*quats: Quaternion) -> np.ndarray:
    return np.array([(q.q0, q.q1, q.q2, q.q3) for q in quats])


def _matrix(q: Quaternion) -> np.ndarray:
    return rotation_matrices(_as_array(q))[0]


def test_quaternion_rotation_matches_rodrigues_oracle():
    rng = np.random.default_rng(42)
    quats, oracles = [], []
    for _ in range(1000):
        axis = rng.normal(size=3)
        angle = rng.uniform(-math.pi, math.pi)
        v = rng.normal(size=3)
        q = axis_angle_quaternion(axis, angle)
        r = rodrigues(axis, angle)
        assert np.allclose(rotate_to_world(q, v), r @ v, atol=1e-9)
        assert np.allclose(_matrix(q), r, atol=1e-9)
        quats.append(q)
        oracles.append(r)
    # the whole batch at once equals the oracle too
    assert np.allclose(rotation_matrices(_as_array(*quats)), oracles, atol=1e-9)


def test_quaternion_multiplication_composes_rotations():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a1, a2 = rng.normal(size=3), rng.normal(size=3)
        t1, t2 = rng.uniform(-3, 3, 2)
        q = axis_angle_quaternion(a1, t1) * axis_angle_quaternion(a2, t2)
        r = rodrigues(a1, t1) @ rodrigues(a2, t2)
        assert np.allclose(_matrix(q), r, atol=1e-9)


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


# --- attitude filter -----------------------------------------------------------

GRAVITY_WORLD = np.array([0.0, 0.0, 9.81])


def _static_imu(q: Quaternion, n: int, rate: float = 100.0,
                noise: float = 0.0, seed: int = 0) -> ImuSeries:
    rng = np.random.default_rng(seed)
    r = _matrix(q)
    acc = np.tile(r.T @ GRAVITY_WORLD, (n, 1))
    gyro = np.zeros((n, 3))
    if noise:
        acc = acc + rng.normal(0, noise, acc.shape)
    return ImuSeries(np.arange(n) / rate, acc, gyro)


def test_ahrs_recovers_static_orientation():
    # gravity fixes roll and pitch; the heading is relative, so the filter
    # starts at yaw 0 and a phone at rest keeps it to second order
    true_q = euler_to_quaternion(EulerAngles(0.3, -0.2, 0.9))
    imu = _static_imu(true_q, 400)
    quats = ahrs_stream(imu)
    assert quats.shape == (400, 4)
    e_est = quaternion_to_euler(Quaternion(*quats[-1]))
    e_true = quaternion_to_euler(true_q)
    assert e_est.roll == pytest.approx(e_true.roll, abs=0.02)
    assert e_est.pitch == pytest.approx(e_true.pitch, abs=0.02)
    assert e_est.yaw == pytest.approx(0.0, abs=1e-6)


def test_ahrs_stream_integrates_the_gyro_alone_at_a_zero_accelerometer():
    # a level start at rest, then a zero accelerometer turning about z:
    # with no gravity to correct against, the step integrates the gyro
    # alone and advances yaw by w*dt, with no warning from the a / |a| pass
    imu = ImuSeries(np.arange(2) / 100.0, [[0.0, 0.0, 9.81], [0.0, 0.0, 0.0]],
                    [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    quats = ahrs_stream(imu)
    assert quats[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert quaternion_to_euler(Quaternion(*quats[1])).yaw == pytest.approx(
        0.01, abs=1e-6)


def test_ahrs_keeps_the_gravity_correction_without_a_field():
    # a tilted first sample, then a level phone at rest: the gravity step
    # levels roll and pitch; gyro-only integration would hold the tilt
    tilted = _matrix(euler_to_quaternion(EulerAngles(0.3, -0.2, 0.9))).T
    acc = np.tile(GRAVITY_WORLD, (401, 1))
    acc[0] = tilted @ GRAVITY_WORLD
    imu = ImuSeries(np.arange(401) / 100.0, acc, np.zeros((401, 3)))
    quats = ahrs_stream(imu)
    assert abs(quaternion_to_euler(Quaternion(*quats[0])).roll) > 0.2
    e = quaternion_to_euler(Quaternion(*quats[-1]))
    assert (e.roll, e.pitch) == pytest.approx((0.0, 0.0), abs=0.01)


@pytest.mark.parametrize("big", [[1e200, 0.0, 0.0], [1e154, 1e154, 1e154]],
                         ids=["square_overflows", "sum_overflows"])
def test_ahrs_stream_refuses_samples_too_large_to_square(big):
    acc = np.tile(GRAVITY_WORLD, (20, 1))
    acc[5] = big
    with pytest.raises(DegenerateSeries):
        ahrs_stream(ImuSeries(np.arange(20) / 100.0, acc, np.zeros((20, 3))))


def _rot_inv(w, vx, vy, vz, rx, ry, rz):
    """R^T(q) r = r - 2w (v x r) + 2 v x (v x r), plain floats."""
    cx = vy * rz - vz * ry
    cy = vz * rx - vx * rz
    cz = vx * ry - vy * rx
    dx = vy * cz - vz * cy
    dy = vz * cx - vx * cz
    dz = vx * cy - vy * cx
    return (rx - 2 * w * cx + 2 * dx,
            ry - 2 * w * cy + 2 * dy,
            rz - 2 * w * cz + 2 * dz)


def _grad_term(w, vx, vy, vz, rx, ry, rz, ex, ey, ez):
    """J^T e for the objective component u(q) = R^T(q) r, plain floats."""
    cx = vy * rz - vz * ry
    cy = vz * rx - vx * rz
    cz = vx * ry - vy * rx
    g0 = -2.0 * (cx * ex + cy * ey + cz * ez)
    rex = ry * ez - rz * ey
    rey = rz * ex - rx * ez
    rez = rx * ey - ry * ex
    ve = vx * ex + vy * ey + vz * ez
    vr = vx * rx + vy * ry + vz * rz
    re = rx * ex + ry * ey + rz * ez
    g1 = -2.0 * w * rex + 2.0 * (ve * rx + vr * ex - 2.0 * re * vx)
    g2 = -2.0 * w * rey + 2.0 * (ve * ry + vr * ey - 2.0 * re * vy)
    g3 = -2.0 * w * rez + 2.0 * (ve * rz + vr * ez - 2.0 * re * vz)
    return g0, g1, g2, g3


def _general_form_step(w, x, y, z, bx_b, by_b, bz_b, a, g, dt):
    """Reference: the step with the gravity reference (0, 0, 1) passed
    through the general objective R^T(q) r and its gradient J^T e."""
    a0, a1, a2 = a
    na = math.sqrt(a0 ** 2 + a1 ** 2 + a2 ** 2)
    gyro_only = na == 0.0
    s0 = s1 = s2 = s3 = 0.0
    if not gyro_only:
        ax, ay, az = a0 / na, a1 / na, a2 / na
        ugx, ugy, ugz = _rot_inv(w, x, y, z, 0.0, 0.0, 1.0)
        s0, s1, s2, s3 = _grad_term(w, x, y, z, 0.0, 0.0, 1.0,
                                    ugx - ax, ugy - ay, ugz - az)
        ns = math.sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3)
        if ns > 0:
            s0, s1, s2, s3 = s0 / ns, s1 / ns, s2 / ns, s3 / ns
        else:
            s0 = s1 = s2 = s3 = 0.0
        we_x = 2.0 * (w * s1 - x * s0 - y * s3 + z * s2)
        we_y = 2.0 * (w * s2 + x * s3 - y * s0 - z * s1)
        we_z = 2.0 * (w * s3 - x * s2 + y * s1 - z * s0)
        bx_b += AHRS_ZETA * we_x * dt
        by_b += AHRS_ZETA * we_y * dt
        bz_b += AHRS_ZETA * we_z * dt
    gx = g[0] - bx_b
    gy = g[1] - by_b
    gz = g[2] - bz_b
    qd0 = 0.5 * (-x * gx - y * gy - z * gz) - AHRS_BETA * s0
    qd1 = 0.5 * (w * gx + y * gz - z * gy) - AHRS_BETA * s1
    qd2 = 0.5 * (w * gy - x * gz + z * gx) - AHRS_BETA * s2
    qd3 = 0.5 * (w * gz + x * gy - y * gx) - AHRS_BETA * s3
    w += qd0 * dt
    x += qd1 * dt
    y += qd2 * dt
    z += qd3 * dt
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return w / n, x / n, y / n, z / n, bx_b, by_b, bz_b, gyro_only


def _with_zero_accelerometer(imu: ImuSeries, rows: slice) -> ImuSeries:
    acc = imu.acc.copy()
    acc[rows] = 0.0
    return ImuSeries(imu.t, acc, imu.gyro, sample_rate=imu.sample_rate)


def _walk(angle: float) -> ImuSeries:
    return generate_session(SubjectParams(seed=3),
                            CameraModel(horizontal_angle=angle),
                            duration=4.0)[0]


AHRS_STREAMS = {
    "tilted_at_rest": lambda: _static_imu(
        euler_to_quaternion(EulerAngles(0.3, -0.2, 0.9)), 300, noise=0.05),
    "upside_down": lambda: _static_imu(
        axis_angle_quaternion(np.array([1.0, 2, 3]), 2.5), 300, noise=0.05),
    "level_exact": lambda: _static_imu(Quaternion(), 100),
    **{f"walk_heading_{angle}": (lambda angle=angle: _walk(angle))
       for angle in (0, 90, 180)},
    "walk_zero_accelerometer_mid_stream": lambda: _with_zero_accelerometer(
        _walk(90), slice(150, 153)),
}


@pytest.mark.parametrize("stream", AHRS_STREAMS)
def test_ahrs_step_equals_the_general_form_step_bit_for_bit(stream):
    # ahrs_stream's loop against the general-form step run sample by
    # sample from the same start; the a / |a| pass and the inlined step
    # must give the same bits
    imu = AHRS_STREAMS[stream]()
    q = initial_orientation(imu.acc[0])
    state = (q.q0, q.q1, q.q2, q.q3, 0.0, 0.0, 0.0)
    stepped, modes = [], []
    for a, g in zip(imu.acc.tolist(), imu.gyro.tolist()):
        *state, gyro_only = _general_form_step(*state, a, g,
                                               1.0 / imu.sample_rate)
        stepped.append(state[:4])
        modes.append(gyro_only)
    assert any(modes) == (stream == "walk_zero_accelerometer_mid_stream")
    assert ahrs_stream(imu).tobytes() == np.array(stepped).tobytes()


def test_initial_orientation_identity_case():
    q = initial_orientation(GRAVITY_WORLD)
    assert np.allclose(_matrix(q), np.eye(3), atol=1e-9)


def test_initial_orientation_without_a_heading_aligns_on_gravity():
    e_true = EulerAngles(0.3, -0.2, 0.9)
    r = _matrix(euler_to_quaternion(e_true))
    q = initial_orientation(r.T @ GRAVITY_WORLD)
    assert [type(v) for v in (q.q0, q.q1, q.q2, q.q3)] == [float] * 4
    e = quaternion_to_euler(q)
    assert (e.roll, e.pitch) == pytest.approx((e_true.roll, e_true.pitch),
                                              abs=1e-9)
    assert e.yaw == 0.0


@pytest.mark.parametrize("a", [np.zeros(3), np.full(3, 1e-200),
                               np.full(3, 1e200)])
def test_initial_orientation_rejects_degenerate_gravity_or_norms(a):
    with pytest.raises(DegenerateSeries):
        initial_orientation(a)


# --- the filter state stays Python floats -------------------------------------

@pytest.mark.parametrize("q", [
    euler_to_quaternion(EulerAngles(0.3, -0.2, 0.9)),
    axis_angle_quaternion(np.array([1.0, 0, 0]), 2.8),
    axis_angle_quaternion(np.array([0, 1.0, 0]), 2.8),
    axis_angle_quaternion(np.array([0, 0, 1.0]), 2.8),
], ids=["trace", "r00", "r11", "r22"])
def test_initial_orientation_returns_python_floats(q):
    # the largest diagonal entry of each attitude's matrix names its case
    q0 = initial_orientation(_matrix(q).T @ GRAVITY_WORLD)
    assert [type(v) for v in (q0.q0, q0.q1, q0.q2, q0.q3)] == [float] * 4
    e0, e = quaternion_to_euler(q0), quaternion_to_euler(q)
    assert (e0.roll, e0.pitch) == pytest.approx((e.roll, e.pitch), abs=1e-9)
    assert e0.yaw == 0.0


@pytest.mark.parametrize("rate", [100.0, np.float64(100.0)],
                         ids=["float_rate", "numpy_rate"])
def test_every_ahrs_step_runs_on_python_floats(monkeypatch, rate):
    # the initial attitude takes one square root and each step two, of
    # |s|^2 and of |q|^2; a numpy scalar anywhere in the state would reach
    # them as np.float64
    imu = _static_imu(axis_angle_quaternion(np.array([1.0, 2, 3]), 2.5), 20,
                      noise=0.1)
    imu = ImuSeries(imu.t, imu.acc, imu.gyro + 0.05, sample_rate=rate)
    reference = ahrs_stream(ImuSeries(imu.t, imu.acc, imu.gyro,
                                      sample_rate=100.0))
    types = []

    def spy(v, sqrt=math.sqrt):
        types.append(type(v))
        return sqrt(v)

    monkeypatch.setattr(math, "sqrt", spy)
    quats = ahrs_stream(imu)
    assert types == [float] * (1 + 2 * 20)
    assert quats.tobytes() == reference.tobytes()
