"""Quaternion attitude estimation and frame transformations.

The AHRS is the 6-axis (IMU) form of Madgwick, Harrison & Vaidyanathan
(2011): gyro integration corrected toward gravity by gradient descent, with
explicit gyroscope bias feedback. Gravity fixes roll and pitch only, so the
heading is relative. Conventions: the quaternion q maps phone-frame vectors
into the world frame, v_world = q * v_phone * q^-1, with world z up and
yaw 0 at the first sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeries, NonUnitQuaternion
from .series import ImuSeries

UNIT_NORM_TOL = 1e-3
AHRS_BETA = 0.1     # gradient-correction gain
AHRS_ZETA = 0.01    # gyro-bias feedback gain


@dataclass(frozen=True)
class Quaternion:
    """q0 + q1 i + q2 j + q3 k. The fields may also hold equal-shape arrays
    (or floats mixed with them): `*` then multiplies element-wise, one
    Hamilton product per element."""

    q0: float = 1.0
    q1: float = 0.0
    q2: float = 0.0
    q3: float = 0.0

    def norm(self) -> float:
        return math.sqrt(self.q0 ** 2 + self.q1 ** 2 + self.q2 ** 2 + self.q3 ** 2)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        return Quaternion(self.q0 / n, self.q1 / n, self.q2 / n, self.q3 / n)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a0, a1, a2, a3 = self.q0, self.q1, self.q2, self.q3
        b0, b1, b2, b3 = other.q0, other.q1, other.q2, other.q3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )


@dataclass(frozen=True)
class EulerAngles:
    roll: float
    pitch: float
    yaw: float


def _check_unit(q: Quaternion) -> None:
    if abs(q.norm() - 1.0) > UNIT_NORM_TOL:
        raise NonUnitQuaternion(f"|q| = {q.norm():.6f}")


def quaternion_to_euler(q: Quaternion) -> EulerAngles:
    """Roll/pitch/yaw with pitch = asin(2(q1*q3 - q0*q2))."""
    _check_unit(q)
    w, x, y, z = q.q0, q.q1, q.q2, q.q3
    return EulerAngles(math.atan2(2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
                       math.asin(max(-1.0, min(1.0, 2 * (x * z - w * y)))),
                       math.atan2(2 * (x * y + w * z), 1 - 2 * (y * y + z * z)))


def rotation_matrices(q: np.ndarray) -> np.ndarray:
    """(n, 3, 3) rotation matrices R, v_world = R v_phone, of (n, 4) unit
    quaternions (q0, q1, q2, q3)."""
    w, x, y, z = np.asarray(q, dtype=float).T
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(-1, 3, 3)


def euler_to_quaternion(e: EulerAngles) -> Quaternion:
    """Inverse of quaternion_to_euler on the principal domain; the phone
    tilt of `synth` and the gravity-only start of `initial_orientation`
    are built with it."""
    qx = Quaternion(math.cos(e.roll / 2), math.sin(e.roll / 2), 0, 0)
    qy = Quaternion(math.cos(-e.pitch / 2), 0, math.sin(-e.pitch / 2), 0)
    qz = Quaternion(math.cos(e.yaw / 2), 0, 0, math.sin(e.yaw / 2))
    return (qz * qy * qx).normalized()


def rotate_to_world(q: Quaternion, v_phone: np.ndarray) -> np.ndarray:
    """Active rotation of a phone-frame vector: q * v * q^-1."""
    _check_unit(q)
    p = Quaternion(0.0, float(v_phone[0]), float(v_phone[1]), float(v_phone[2]))
    r = q * p * q.conjugate()
    return np.array([r.q1, r.q2, r.q3])


def initial_orientation(a: np.ndarray) -> Quaternion:
    """The roll and pitch of one stationary accelerometer sample, at yaw 0,
    with Python float fields. Zero gravity or a norm that is not finite is
    DegenerateSeries."""
    up = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        na = np.linalg.norm(up)
    if not 0 < na < math.inf:
        raise DegenerateSeries(f"no attitude from |a| = {na}")
    up = up / na
    pitch = math.asin(max(-1.0, min(1.0, up[0])))
    return euler_to_quaternion(EulerAngles(math.atan2(up[1], up[2]), pitch, 0.0))


def ahrs_stream(imu: ImuSeries) -> np.ndarray:
    """(n, 4) quaternions (q0, q1, q2, q3), one per sample: the AHRS run on
    the accelerometer and gyro from the gravity attitude of the first sample
    and zero gyro bias. A sample whose |a| overflows is DegenerateSeries.

    Each step integrates the gyro, less its bias estimate, corrected by the
    normalized gradient of the gravity objective R^T(q) (0, 0, 1) - a / |a|
    (gain AHRS_BETA); the angular error drives the gyro-bias estimate (gain
    AHRS_ZETA). Only a zero accelerometer, with no gravity to correct
    against, falls back to gyro-only integration.

    Every sample's gravity direction a / |a| is computed before the loop.
    The squares in |a| are `float_power`, the C `pow` that Python's `a0 ** 2`
    calls, which differs from numpy's `a * a` in the last bit on a few
    samples. The loop runs on Python floats: a numpy scalar in the state
    would make every step's arithmetic numpy-scalar, about 3x slower.
    """
    q = initial_orientation(imu.acc[0])
    w, x, y, z = q.q0, q.q1, q.q2, q.q3
    bx_b = by_b = bz_b = 0.0
    dt = 1.0 / float(imu.sample_rate)
    beta, zeta, sqrt = AHRS_BETA, AHRS_ZETA, math.sqrt
    with np.errstate(over="ignore"):
        sq = np.float_power(imu.acc, 2.0)
        na = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])[:, None]
    if not np.isfinite(na).all():
        raise DegenerateSeries("accelerometer samples too large to square")
    up = np.divide(imu.acc, na, out=np.zeros_like(imu.acc), where=na > 0)
    out = []
    append = out.append
    for ux, uy, uz, g0, g1, g2, gyro_only in np.hstack(
            [up, imu.gyro, na == 0.0]).tolist():
        s0 = s1 = s2 = s3 = 0.0
        if not gyro_only:
            # error e = R^T(q) r - a / |a| and its gradient J^T e, written
            # out for the constant reference r = (0, 0, 1)
            ex = 2.0 * (x * z - w * y) - ux
            ey = 2.0 * (w * x + y * z) - uy
            ez = 1.0 - 2.0 * (x * x + y * y) - uz
            ve = x * ex + y * ey + z * ez
            s0 = -2.0 * (y * ex - x * ey)
            s1 = 2.0 * w * ey + 2.0 * (z * ex - 2.0 * ez * x)
            s2 = -2.0 * w * ex + 2.0 * (z * ey - 2.0 * ez * y)
            s3 = 2.0 * (ve + z * ez - 2.0 * ez * z)
            ns = sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3)
            if ns > 0:
                s0 /= ns
                s1 /= ns
                s2 /= ns
                s3 /= ns
            else:
                s0 = s1 = s2 = s3 = 0.0
            # angular error 2 q^-1 * s drives bias feedback
            bx_b += zeta * (2.0 * (w * s1 - x * s0 - y * s3 + z * s2)) * dt
            by_b += zeta * (2.0 * (w * s2 + x * s3 - y * s0 - z * s1)) * dt
            bz_b += zeta * (2.0 * (w * s3 - x * s2 + y * s1 - z * s0)) * dt

        # with no gravity s is zero, and subtracting 0.0 changes no value
        gx = g0 - bx_b
        gy = g1 - by_b
        gz = g2 - bz_b
        qd0 = 0.5 * (-x * gx - y * gy - z * gz) - beta * s0
        qd1 = 0.5 * (w * gx + y * gz - z * gy) - beta * s1
        qd2 = 0.5 * (w * gy - x * gz + z * gx) - beta * s2
        qd3 = 0.5 * (w * gz + x * gy - y * gx) - beta * s3
        w += qd0 * dt
        x += qd1 * dt
        y += qd2 * dt
        z += qd3 * dt
        n = sqrt(w * w + x * x + y * y + z * z)
        w /= n
        x /= n
        y /= n
        z /= n
        append((w, x, y, z))
    return np.array(out)


GRAVITY = 9.81
GRAVITY_WORLD = np.array([0.0, 0.0, GRAVITY])   # m/s^2, world z is up


def integrate_velocity(a_world: np.ndarray, f_s: float) -> np.ndarray:
    """Trapezoidal velocity integration, v[0] = 0.

    Gravity must already be removed from a_world. The velocity advances as
    v[k] = v[k-1] + (a[k-1] + a[k]) / (2 f_s); the trapezoid keeps the
    phase error second order in the sample period, which a one-sided
    rectangle rule does not.
    """
    a = np.atleast_2d(np.asarray(a_world, dtype=float))
    if f_s <= 0:
        raise ValueError("f_s must be positive")
    if a.shape[0] == 0:
        return a.copy()
    cum = np.cumsum(a, axis=0)
    return (cum - 0.5 * a - 0.5 * a[0:1]) / f_s

