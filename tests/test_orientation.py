"""Quaternion algebra, Euler extraction, the attitude scan, velocity
integration. Rotation results are checked against an independent
Rodrigues-formula oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgait.errors import DegenerateSeries, NonUnitQuaternion
from syncgait.orientation import (EulerAngles, Quaternion, _levelled,
                                  ahrs_stream, ahrs_streams,
                                  euler_to_quaternion, integrate_velocity,
                                  quaternion_to_euler, rotate_to_world,
                                  rotation_matrices)
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


@pytest.mark.parametrize("q0", [math.nan, 1e200],
                         ids=["nan", "norm_overflows"])
def test_unit_checks_refuse_a_nan_or_overflowing_norm(q0):
    # a NaN norm fails no "> tol" test, and 1e200 ** 2 overflows a float
    with pytest.raises(NonUnitQuaternion):
        rotate_to_world(Quaternion(q0, 0, 0, 0), np.array([1.0, 0, 0]))
    with pytest.raises(NonUnitQuaternion):
        quaternion_to_euler(Quaternion(q0, 0, 0, 0))


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
    # a NaN rate gave NaN velocities and an infinite one zeros
    for f_s in (0.0, -100.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            integrate_velocity(np.ones((4, 3)), f_s)


# --- the attitude scan -------------------------------------------------------

GRAVITY_WORLD = np.array([0.0, 0.0, 9.81])
TILT = EulerAngles(0.3, -0.2, 0.9)


def _static_imu(q: Quaternion, n: int, rate: float = 100.0,
                noise: float = 0.0, seed: int = 0) -> ImuSeries:
    rng = np.random.default_rng(seed)
    r = _matrix(q)
    acc = np.tile(r.T @ GRAVITY_WORLD, (n, 1))
    gyro = np.zeros((n, 3))
    if noise:
        acc = acc + rng.normal(0, noise, acc.shape)
    return ImuSeries(np.arange(n) / rate, acc, gyro)


def _vertical(quats: np.ndarray, acc: np.ndarray) -> np.ndarray:
    return (rotation_matrices(quats) @ acc[:, :, None])[:, 2, 0]


def _two_axis_walk(bias: float) -> tuple[ImuSeries, np.ndarray]:
    """8 s at 100 Hz of a tilted phone that swings by th about its y axis
    and rolls by rho about its x axis, both at 1 Hz, with attitude
    q = tilt * qy(th) * qx(rho), on a wrist whose world acceleration
    averages to zero over the whole periods. The gyro is the body rate
    (rho', th' cos rho, -th' sin rho) plus a constant bias of size `bias`.
    Returns the stream and its true (n, 4) attitude."""
    t = np.arange(800) / 100.0
    w = 2 * math.pi
    th, th_d = 0.6 * np.sin(w * t), 0.6 * w * np.cos(w * t)
    rho, rho_d = 0.6 * np.sin(w * t + 1), 0.6 * w * np.cos(w * t + 1)
    zero = np.zeros_like(t)
    q = (euler_to_quaternion(TILT)
         * Quaternion(np.cos(th / 2), zero, np.sin(th / 2), zero)
         * Quaternion(np.cos(rho / 2), np.sin(rho / 2), zero, zero))
    quats = np.column_stack([q.q0, q.q1, q.q2, q.q3])
    a_world = np.column_stack([3.0 * np.sin(w * t), np.sin(w * t + 0.5),
                               2.0 * np.sin(2 * w * t)])
    acc = (rotation_matrices(quats).transpose(0, 2, 1)
           @ (a_world + GRAVITY_WORLD)[:, :, None])[:, :, 0]
    gyro = np.column_stack([rho_d, th_d * np.cos(rho), -th_d * np.sin(rho)])
    gyro += bias * np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    return ImuSeries(t, acc, gyro), quats


def test_ahrs_recovers_static_orientation():
    # gravity fixes roll and pitch through accelerometer noise; the heading
    # is relative, and the levelling rotation gives yaw 0
    quats = ahrs_stream(_static_imu(euler_to_quaternion(TILT), 400,
                                    noise=0.05))
    assert quats.shape == (400, 4)
    e = quaternion_to_euler(Quaternion(*quats[-1]))
    assert (e.roll, e.pitch) == pytest.approx((TILT.roll, TILT.pitch),
                                              abs=0.01)
    assert e.yaw == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("q", [
    axis_angle_quaternion(np.array([1.0, 0, 0]), math.pi),
    axis_angle_quaternion(np.array([0, 1.0, 0]), math.pi / 2),
    axis_angle_quaternion(np.array([1.0, 2, 3]), 2.5)],
    ids=["upside_down", "on_its_side", "any"])
def test_ahrs_stream_levels_a_phone_at_rest_in_any_pose(q):
    # gravity comes out straight up, whatever way up the phone lies
    imu = _static_imu(q, 50)
    g = rotation_matrices(ahrs_stream(imu)) @ imu.acc[:, :, None]
    assert np.allclose(g[:, :, 0], GRAVITY_WORLD, atol=1e-12)


def test_ahrs_stream_integrates_the_gyro_alone_at_a_zero_accelerometer():
    # a level phone at rest, then a zero accelerometer turning about z: the
    # zero sample adds nothing to the level, and the gyro advances yaw by
    # w*dt
    imu = ImuSeries(np.arange(2) / 100.0, [[0.0, 0.0, 9.81], [0.0, 0.0, 0.0]],
                    [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    quats = ahrs_stream(imu)
    assert quats[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert quaternion_to_euler(Quaternion(*quats[1])).yaw == pytest.approx(
        0.01, abs=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3, 800])
def test_ahrs_stream_equals_a_sequential_product_up_to_one_level(n):
    # the scan against p_0, p_0 p_1, ... multiplied one sample at a time:
    # they differ only by the levelling rotation, the same for every sample
    imu, _ = _two_axis_walk(0.01)
    imu = ImuSeries(imu.t[:n], imu.acc[:n], imu.gyro[:n])
    running, sequential = Quaternion(), []
    for g in imu.gyro.tolist():
        running = running * Quaternion(1.0, *(0.5 * v / 100.0 for v in g)
                                       ).normalized()
        sequential.append(running)
    quats = ahrs_stream(imu)
    level = Quaternion(*quats[0]) * sequential[0].conjugate()
    expected = np.array([(p.q0, p.q1, p.q2, p.q3)
                         for p in (level * s for s in sequential)])
    assert np.abs(quats - expected).max() < 1e-12


def test_ahrs_streams_of_two_lengths_and_rates_equal_each_stream_alone():
    # the streams of one length share one (4, n, k) scan, whatever their
    # rates; its products are element-wise, so each stream's attitude is
    # bit for bit its own scan's
    imu, _ = _two_axis_walk(0.01)
    streams = [ImuSeries(np.arange(n) / rate, imu.acc[s:s + n],
                         imu.gyro[s:s + n], sample_rate=rate)
               for n, s, rate in [(517, 0, 100.0), (300, 40, 50.0),
                                  (517, 200, 50.0), (300, 7, 100.0),
                                  (300, 300, 100.0)]]
    batch = ahrs_streams(streams)
    assert [len(q) for q in batch] == [517, 300, 517, 300, 300]
    for q, stream in zip(batch, streams):
        assert q.tobytes() == ahrs_stream(stream).tobytes()
    assert ahrs_streams([]) == []


def _hamilton(a, b):
    """Reference Hamilton product a * b of component tuples, written out."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _ahrs_streams_per_pass(imus: list[ImuSeries]) -> list[np.ndarray]:
    """Reference ahrs_streams of streams of one length: a (4, k, n) step
    block, each pass one written-out product over fresh arrays."""
    n = len(imus[0])
    steps = np.stack([np.hstack([np.ones((n, 1)), imu.gyro
                                 * (0.5 / imu.sample_rate)])
                      for imu in imus], axis=1)
    q = (steps / np.linalg.norm(steps, axis=2, keepdims=True)).T.copy()
    shift = 1
    while shift < n:
        q[..., shift:] = _hamilton(q[..., :-shift], q[..., shift:])
        shift *= 2
    return [_levelled(q[:, k], imu.acc) for k, imu in enumerate(imus)]


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("n", [2, 3, 17, 800])
def test_ahrs_streams_scan_is_the_per_pass_product_bit_for_bit(n, k):
    # steps (1, w dt / 2) / |.| of gyros up to 200 rad/s cover the half of
    # the unit sphere with q0 > 0, not only small turns
    rng = np.random.default_rng(10 * n + k)
    imus = [ImuSeries(np.arange(n) / 100.0,
                      rng.normal(0.0, 3.0, (n, 3)) + [0.0, 0.0, 9.81],
                      rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-2, 2.3))
            for _ in range(k)]
    for got, want in zip(ahrs_streams(imus), _ahrs_streams_per_pass(imus),
                         strict=True):
        assert got.shape == want.shape == (n, 4)
        assert got.tobytes() == want.tobytes()
    # Quaternion.__mul__ is the written-out product too, on arrays and floats
    a, b = rng.normal(size=(2, 4, n))
    p = Quaternion(*a) * Quaternion(*b)
    assert np.array((p.q0, p.q1, p.q2, p.q3)).tobytes() == np.array(
        _hamilton(a, b)).tobytes()
    p = Quaternion(*a[:, 0].tolist()) * Quaternion(*b[:, 0].tolist())
    assert {type(c) for c in (p.q0, p.q1, p.q2, p.q3)} == {float}
    assert np.array((p.q0, p.q1, p.q2, p.q3)).tobytes() == np.array(
        _hamilton(a[:, 0].tolist(), b[:, 0].tolist())).tobytes()


# the vertical's RMS error of the Madgwick filter (AHRS_BETA 0.1,
# AHRS_ZETA 0.01) that ahrs_stream replaced, on _two_axis_walk(bias)
MADGWICK_VERTICAL_RMS = {0.0: 0.0820, 0.01: 0.0942}   # m/s^2
SCAN_VERTICAL_RMS_BOUND = 0.05   # m/s^2; the scan reads 0.028 and 0.037


@pytest.mark.parametrize("bias", MADGWICK_VERTICAL_RMS)
def test_ahrs_stream_tracks_the_vertical_of_a_two_axis_turn(bias):
    imu, truth = _two_axis_walk(bias)
    error = _vertical(ahrs_stream(imu), imu.acc) - _vertical(truth, imu.acc)
    rms = math.sqrt(np.mean(error ** 2))
    assert rms < SCAN_VERTICAL_RMS_BOUND < MADGWICK_VERTICAL_RMS[bias]


def test_initial_orientation_identity_case():
    # the first attitude of a level phone at rest
    quats = ahrs_stream(_static_imu(Quaternion(), 20))
    assert np.allclose(_matrix(Quaternion(*quats[0])), np.eye(3), atol=1e-9)


def test_initial_orientation_without_a_heading_aligns_on_gravity():
    # the first attitude has the roll and pitch of gravity and yaw 0
    quats = ahrs_stream(_static_imu(euler_to_quaternion(TILT), 20))
    e = quaternion_to_euler(Quaternion(*quats[0]))
    assert (e.roll, e.pitch) == pytest.approx((TILT.roll, TILT.pitch),
                                              abs=1e-9)
    assert e.yaw == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("a", [
    np.zeros((20, 3)), np.full((20, 3), 1e-200), np.full((20, 3), 1e200),
    np.array([[0.0, 0.0, 9.81], [0.0, 0.0, -9.81]])])
def test_initial_orientation_rejects_degenerate_gravity_or_norms(a):
    # a phone at rest with no gravity, gravity too small to square (its
    # norm reads 0) or too large to square has no up to level on; nor has
    # a stream whose samples have a direction but whose mean has none
    n = len(a)
    with pytest.raises(DegenerateSeries):
        ahrs_stream(ImuSeries(np.arange(n) / 100.0, a, np.zeros((n, 3))))


@pytest.mark.parametrize("big", [[1e200, 0.0, 0.0], [1e154, 1e154, 1e154]],
                         ids=["square_overflows", "sum_overflows"])
def test_ahrs_stream_refuses_samples_too_large_to_square(big):
    acc = np.tile(GRAVITY_WORLD, (20, 1))
    acc[5] = big
    with pytest.raises(DegenerateSeries):
        ahrs_stream(ImuSeries(np.arange(20) / 100.0, acc, np.zeros((20, 3))))
