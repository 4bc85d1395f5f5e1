"""Quaternion attitude estimation and frame transformations.

The attitude is the gyro integrated as an associative prefix product, then
levelled once per capture so that its mean world acceleration points up.
Gravity fixes roll and pitch only, so the heading is relative: the
levelling rotation has yaw 0, so the attitude before the first gyro step
has yaw 0, and nothing downstream reads the heading. Conventions: the
quaternion q maps phone-frame vectors into the world frame,
v_world = q * v_phone * q^-1, with world z up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeries, NonUnitQuaternion
from .series import ImuSeries, groups, require_squarable

UNIT_NORM_TOL = 1e-3

# Component c of the Hamilton product a * b sums row c's terms (sign, i, j),
# sign * a_i * b_j, left to right, the first one positive. Quaternion.__mul__
# and the attitude scan both read it, so both round alike.
_HAMILTON = (
    ((1, 0, 0), (-1, 1, 1), (-1, 2, 2), (-1, 3, 3)),
    ((1, 0, 1), (1, 1, 0), (1, 2, 3), (-1, 3, 2)),
    ((1, 0, 2), (-1, 1, 3), (1, 2, 0), (1, 3, 1)),
    ((1, 0, 3), (1, 1, 2), (-1, 2, 1), (1, 3, 0)),
)


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
        a = (self.q0, self.q1, self.q2, self.q3)
        b = (other.q0, other.q1, other.q2, other.q3)
        out = []
        for (_, i, j), *rest in _HAMILTON:
            r = a[i] * b[j]
            for sign, i, j in rest:
                r = r + a[i] * b[j] if sign > 0 else r - a[i] * b[j]
            out.append(r)
        return Quaternion(*out)


@dataclass(frozen=True)
class EulerAngles:
    roll: float
    pitch: float
    yaw: float


def _check_unit(q: Quaternion) -> None:
    try:
        n = q.norm()
    except OverflowError:   # a float's square past the float range
        n = math.inf
    if not abs(n - 1.0) <= UNIT_NORM_TOL:   # a NaN norm fails too
        raise NonUnitQuaternion(f"|q| = {n:.6f}")


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
    tilt of `synth` and the levelling rotation of `ahrs_stream` are built
    with it."""
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


def ahrs_streams(imus: list[ImuSeries]) -> list[np.ndarray]:
    """(n, 4) quaternions (q0, q1, q2, q3) of each stream, one per sample:
    its gyro integrated as one prefix product, then levelled once on
    gravity.

    Sample k's step is the unit quaternion (1, w_k dt / 2) / |.|, and
    attitude k the product p_0 p_1 ... p_k. Quaternion products are
    associative, so the n products are one Hillis-Steele scan (Blelloch
    1990) of ceil(log2 n) array passes. The steps of the streams of one
    length form one (4, n, k) block, streams last, so the operands q[:, :-s]
    and q[:, s:] of a pass are contiguous. A pass writes each component, its
    terms in Quaternion.__mul__'s order, with out= into a second buffer;
    then the two swap. The products are element-wise, so each stream's
    attitude is bit for bit its own scan's. A walk at steady speed averages
    its arm and body accelerations to about zero, so one rotation per
    stream, the same for every sample, turns its mean world acceleration
    straight up. Samples that overflow when squared, or a mean world
    acceleration that is zero, are DegenerateSeries.
    """
    require_squarable("IMU", *(b for imu in imus for b in (imu.acc, imu.gyro)))
    out: list = [None] * len(imus)
    for n, idx in groups([len(imu) for imu in imus]).items():
        steps = np.stack([np.hstack([np.ones((n, 1)), imus[i].gyro
                                     * (0.5 / imus[i].sample_rate)])
                          for i in idx], axis=1)             # (n, k, 4)
        q = (steps / np.linalg.norm(steps, axis=2, keepdims=True)
             ).transpose(2, 0, 1).copy()                     # (4, n, k)
        nxt, term = np.empty_like(q), np.empty(q.shape[1:])
        shift = 1
        while shift < n:
            nxt[:, :shift] = q[:, :shift]
            a, b, t = list(q[:, :-shift]), list(q[:, shift:]), term[shift:]
            for r, ((_, i, j), *rest) in zip(nxt[:, shift:], _HAMILTON):
                np.multiply(a[i], b[j], out=r)
                for sign, i, j in rest:
                    np.multiply(a[i], b[j], out=t)
                    (np.add if sign > 0 else np.subtract)(r, t, out=r)
            q, nxt = nxt, q
            shift *= 2
        for k, i in enumerate(idx):
            out[i] = _levelled(q[:, :, k], imus[i].acc)
    return out


def _levelled(q: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """The (4, n) attitude q turned by the one rotation that points the
    summed world acceleration of `acc` up, as (n, 4)."""
    # the summed world acceleration points where the mean does
    up = (rotation_matrices(q.T) @ acc[:, :, None]).sum(axis=0)[:, 0]
    norm = np.linalg.norm(up)
    if not 0 < norm < math.inf:
        raise DegenerateSeries(f"no level: the world accelerations sum to "
                               f"a vector of norm {norm}")
    ux, uy, uz = up / norm
    level = euler_to_quaternion(EulerAngles(
        math.atan2(uy, uz), math.atan2(ux, math.hypot(uy, uz)), 0.0))
    p = level * Quaternion(*q)
    return np.column_stack([p.q0, p.q1, p.q2, p.q3])


def ahrs_stream(imu: ImuSeries) -> np.ndarray:
    """The attitude of one stream: ahrs_streams of it alone."""
    return ahrs_streams([imu])[0]


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
    if not 0 < f_s < math.inf:
        raise ValueError("f_s must be positive and finite")
    if a.shape[0] == 0:
        return a.copy()
    cum = np.cumsum(a, axis=0)
    return (cum - 0.5 * a - 0.5 * a[0:1]) / f_s

