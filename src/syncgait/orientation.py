"""Quaternion attitude estimation and frame transformations.

The AHRS is a gradient-descent corrector on the joint gravity + magnetic
field objective, or on gravity alone when the field reads zero, with
explicit gyroscope bias feedback. Conventions: the quaternion q maps
phone-frame vectors into the world frame, v_world = q * v_phone * q^-1,
with world z up and world x magnetic north.
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


def _grad_term(w, vx, vy, vz, rx, ry, rz, ex, ey, ez):
    """J^T e for the objective component u(q) = R^T(q) r, plain floats."""
    # v x r
    cx = vy * rz - vz * ry
    cy = vz * rx - vx * rz
    cz = vx * ry - vy * rx
    g0 = -2.0 * (cx * ex + cy * ey + cz * ez)
    # r x e
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


def _ahrs_step(w, x, y, z, bx_b, by_b, bz_b, a, g, m, dt):
    """One filter step on plain Python floats: quaternion (w, x, y, z), gyro
    bias and the a, g, m triples in; the next quaternion, bias and the
    gyro-only flag out. A numpy scalar among the arguments would carry
    through all of the step's arithmetic at about 3x the cost.

    Gyro integration corrected by the normalized gradient of the combined
    accelerometer + magnetometer objective (gain AHRS_BETA); the angular
    error drives the gyro-bias estimate (gain AHRS_ZETA). A zero
    magnetometer drops the field term and keeps the gravity step (the 6-axis
    form of Madgwick et al. 2011). Only a zero accelerometer, with no
    gravity to correct against, falls back to gyro-only integration and
    raises the flag.
    """
    a0, a1, a2 = a
    na = math.sqrt(a0 ** 2 + a1 ** 2 + a2 ** 2)
    gyro_only = na == 0.0
    s0 = s1 = s2 = s3 = 0.0
    if not gyro_only:
        # error terms e = R^T(q) r - measurement: gravity, then the field.
        # The gravity reference r = (0, 0, 1) is folded into _rot_inv and
        # _grad_term: the dropped terms are exact zeros, so the sums match.
        ex = 2.0 * (x * z - w * y) - a0 / na
        ey = 2.0 * (w * x + y * z) - a1 / na
        ez = 1.0 - 2.0 * (x * x + y * y) - a2 / na
        ve = x * ex + y * ey + z * ez
        grad = (-2.0 * (y * ex - x * ey),
                2.0 * w * ey + 2.0 * (z * ex - 2.0 * ez * x),
                -2.0 * w * ex + 2.0 * (z * ey - 2.0 * ez * y),
                2.0 * (ve + z * ez - 2.0 * ez * z))
        m0, m1, m2 = m
        nm = math.sqrt(m0 ** 2 + m1 ** 2 + m2 ** 2)
        if nm > 0:
            mx, my, mz = m0 / nm, m1 / nm, m2 / nm
            # world-frame field from the current estimate; reference keeps
            # only the horizontal magnitude and vertical component
            hx, hy, hz = _rot_inv(w, -x, -y, -z, mx, my, mz)  # R(q) m
            bh = math.sqrt(hx * hx + hy * hy)
            nb = math.sqrt(bh * bh + hz * hz)
            brx, brz = bh / nb, hz / nb
            umx, umy, umz = _rot_inv(w, x, y, z, brx, 0.0, brz)
            gm = _grad_term(w, x, y, z, brx, 0.0, brz, umx - mx, umy - my, umz - mz)
            grad = grad[0] + gm[0], grad[1] + gm[1], grad[2] + gm[2], grad[3] + gm[3]
        s0, s1, s2, s3 = grad
        ns = math.sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3)
        if ns > 0:
            s0, s1, s2, s3 = s0 / ns, s1 / ns, s2 / ns, s3 / ns
        else:
            s0 = s1 = s2 = s3 = 0.0
        # angular error 2 q^-1 * s drives bias feedback
        we_x = 2.0 * (w * s1 - x * s0 - y * s3 + z * s2)
        we_y = 2.0 * (w * s2 + x * s3 - y * s0 - z * s1)
        we_z = 2.0 * (w * s3 - x * s2 + y * s1 - z * s0)
        bx_b += AHRS_ZETA * we_x * dt
        by_b += AHRS_ZETA * we_y * dt
        bz_b += AHRS_ZETA * we_z * dt

    # with no gravity s is zero, and subtracting 0.0 changes no value
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


def initial_orientation(a: np.ndarray, m: np.ndarray) -> Quaternion:
    """TRIAD alignment from one stationary accelerometer/magnetometer pair;
    on gravity alone, at yaw 0, when the field is zero or parallel to it.
    Zero gravity or a norm that is not finite is DegenerateSeries."""
    up, mn = np.asarray(a, dtype=float), np.asarray(m, dtype=float)
    with np.errstate(over="ignore"):
        na, nm = np.linalg.norm(up), np.linalg.norm(mn)
    if not (0 < na < math.inf and nm < math.inf):
        raise DegenerateSeries(f"no attitude from |a| = {na}, |m| = {nm}")
    up = up / na
    east = np.cross(up, mn)
    ne = np.linalg.norm(east)
    if ne <= 1e-12 * nm:   # no heading: roll and pitch of the up vector
        pitch = math.asin(max(-1.0, min(1.0, up[0])))
        return euler_to_quaternion(EulerAngles(math.atan2(up[1], up[2]), pitch, 0.0))
    east = east / ne
    north = np.cross(east, up)
    r = np.vstack([north, east, up])  # phone -> world
    return _matrix_to_quaternion(r)


def _matrix_to_quaternion(r: np.ndarray) -> Quaternion:
    """Read as nested Python floats, so the AHRS state starts as floats."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    tr = r00 + r11 + r22
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2
        q = (0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s)
    elif r00 > r11 and r00 > r22:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2
        q = ((r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s)
    elif r11 > r22:
        s = math.sqrt(1.0 + r11 - r00 - r22) * 2
        q = ((r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s)
    else:
        s = math.sqrt(1.0 + r22 - r00 - r11) * 2
        q = ((r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s)
    return Quaternion(*q).normalized()


def ahrs_stream(imu: ImuSeries) -> np.ndarray:
    """(n, 4) quaternions (q0, q1, q2, q3), one per sample: the AHRS run from
    the TRIAD attitude of the first sample and zero gyro bias. The state
    stays Python floats from the first sample: a numpy scalar anywhere in it
    makes every step's arithmetic numpy-scalar, about 3x slower."""
    q = initial_orientation(imu.acc[0], imu.mag[0])
    w, x, y, z = q.q0, q.q1, q.q2, q.q3
    bx_b = by_b = bz_b = 0.0
    dt = 1.0 / float(imu.sample_rate)
    out = []
    for a, g, m in zip(imu.acc.tolist(), imu.gyro.tolist(), imu.mag.tolist()):
        w, x, y, z, bx_b, by_b, bz_b, _ = _ahrs_step(
            w, x, y, z, bx_b, by_b, bz_b, a, g, m, dt)
        out.append((w, x, y, z))
    return np.array(out)


GRAVITY = 9.81


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

