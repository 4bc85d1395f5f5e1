"""Quaternion attitude estimation and frame transformations.

The AHRS is a gradient-descent corrector on the joint gravity + magnetic
field objective with explicit gyroscope bias feedback. Conventions: the
quaternion q maps phone-frame vectors into the world frame,
v_world = q * v_phone * q^-1, with world z up and world x magnetic north.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonUnitQuaternion
from .series import ImuSeries

UNIT_NORM_TOL = 1e-3
AHRS_BETA = 0.1     # gradient-correction gain
AHRS_ZETA = 0.01    # gyro-bias feedback gain


@dataclass(frozen=True)
class Quaternion:
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

    def to_matrix(self) -> np.ndarray:
        """3x3 rotation matrix R with v_world = R v_phone."""
        w, x, y, z = self.q0, self.q1, self.q2, self.q3
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])


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
    roll = math.atan2(2 * (y * z + w * x), 1 - 2 * (x * x + y * y))
    pitch = math.asin(max(-1.0, min(1.0, 2 * (x * z - w * y))))
    yaw = math.atan2(2 * (x * y + w * z), 1 - 2 * (y * y + z * z))
    return EulerAngles(roll, pitch, yaw)


def euler_to_quaternion(e: EulerAngles) -> Quaternion:
    """Inverse of quaternion_to_euler on the principal domain (test helper)."""
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
    """One filter step on plain floats: quaternion (w, x, y, z), gyro bias
    and the a, g, m triples in; the next quaternion, bias and the gyro-only
    flag out.

    Gyro integration corrected by the normalized gradient of the combined
    accelerometer + magnetometer objective (gain AHRS_BETA); the angular
    error drives the gyro-bias estimate (gain AHRS_ZETA). A zero
    accelerometer or magnetometer falls back to gyro-only integration and
    raises the flag.
    """
    a0, a1, a2 = a
    m0, m1, m2 = m
    na = math.sqrt(a0 ** 2 + a1 ** 2 + a2 ** 2)
    nm = math.sqrt(m0 ** 2 + m1 ** 2 + m2 ** 2)
    gyro_only = na == 0.0 or nm == 0.0

    if not gyro_only:
        ax, ay, az = a0 / na, a1 / na, a2 / na
        mx, my, mz = m0 / nm, m1 / nm, m2 / nm
        # world-frame field from the current estimate; reference keeps only
        # the horizontal magnitude and vertical component
        hx, hy, hz = _rot_inv(w, -x, -y, -z, mx, my, mz)  # R(q) m
        bh = math.sqrt(hx * hx + hy * hy)
        nb = math.sqrt(bh * bh + hz * hz)
        brx, brz = bh / nb, hz / nb

        # error terms e = R^T(q) r - measurement
        ugx, ugy, ugz = _rot_inv(w, x, y, z, 0.0, 0.0, 1.0)
        umx, umy, umz = _rot_inv(w, x, y, z, brx, 0.0, brz)
        g_acc = _grad_term(w, x, y, z, 0.0, 0.0, 1.0, ugx - ax, ugy - ay, ugz - az)
        g_mag = _grad_term(w, x, y, z, brx, 0.0, brz, umx - mx, umy - my, umz - mz)
        s0, s1, s2, s3 = (g_acc[0] + g_mag[0], g_acc[1] + g_mag[1],
                          g_acc[2] + g_mag[2], g_acc[3] + g_mag[3])
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
    else:
        s0 = s1 = s2 = s3 = 0.0

    gx = float(g[0]) - bx_b
    gy = float(g[1]) - by_b
    gz = float(g[2]) - bz_b

    beta = 0.0 if gyro_only else AHRS_BETA
    qd0 = 0.5 * (-x * gx - y * gy - z * gz) - beta * s0
    qd1 = 0.5 * (w * gx + y * gz - z * gy) - beta * s1
    qd2 = 0.5 * (w * gy - x * gz + z * gx) - beta * s2
    qd3 = 0.5 * (w * gz + x * gy - y * gx) - beta * s3

    w += qd0 * dt
    x += qd1 * dt
    y += qd2 * dt
    z += qd3 * dt
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return w / n, x / n, y / n, z / n, bx_b, by_b, bz_b, gyro_only


def initial_orientation(a: np.ndarray, m: np.ndarray) -> Quaternion:
    """TRIAD alignment from one stationary accelerometer/magnetometer pair."""
    up = np.asarray(a, dtype=float)
    up = up / np.linalg.norm(up)
    mn = np.asarray(m, dtype=float)
    east = np.cross(up, mn)
    east = east / np.linalg.norm(east)
    north = np.cross(east, up)
    r = np.vstack([north, east, up])  # phone -> world
    return _matrix_to_quaternion(r)


def _matrix_to_quaternion(r: np.ndarray) -> Quaternion:
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2
        q = (0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s,
             (r[1, 0] - r[0, 1]) / s)
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2
        q = ((r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s,
             (r[0, 2] + r[2, 0]) / s)
    elif r[1, 1] > r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2
        q = ((r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s,
             (r[1, 2] + r[2, 1]) / s)
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2
        q = ((r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s,
             (r[1, 2] + r[2, 1]) / s, 0.25 * s)
    return Quaternion(*q).normalized()


def ahrs_stream(imu: ImuSeries) -> list[Quaternion]:
    """Run the AHRS over a whole series, one quaternion per sample, from the
    TRIAD attitude of the first sample and zero gyro bias."""
    q = initial_orientation(imu.acc[0], imu.mag[0])
    w, x, y, z = q.q0, q.q1, q.q2, q.q3
    bx_b = by_b = bz_b = 0.0
    dt = 1.0 / imu.sample_rate
    out = []
    for a, g, m in zip(imu.acc.tolist(), imu.gyro.tolist(), imu.mag.tolist()):
        w, x, y, z, bx_b, by_b, bz_b, _ = _ahrs_step(
            w, x, y, z, bx_b, by_b, bz_b, a, g, m, dt)
        out.append(Quaternion(w, x, y, z))
    return out


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


def project_body_relative(v_world: np.ndarray, heading: np.ndarray) -> np.ndarray:
    """Rotate velocities by -heading about world z; forward progress -> +x."""
    v = np.asarray(v_world, dtype=float)
    h = np.asarray(heading, dtype=float)
    if len(v) != len(h):
        raise LengthMismatch(f"{len(v)} velocities vs {len(h)} headings")
    c, s = np.cos(h), np.sin(h)
    out = np.empty_like(v)
    out[:, 0] = c * v[:, 0] + s * v[:, 1]
    out[:, 1] = -s * v[:, 0] + c * v[:, 1]
    out[:, 2] = v[:, 2]
    return out
