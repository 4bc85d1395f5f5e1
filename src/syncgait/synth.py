"""Parametric synthetic subjects: physically consistent paired IMU and
keypoint streams with analytic ground truth, plus attack stream generators
(relay, hijack, mimicry).

The arm is a shoulder-elbow-wrist chain of phase-locked sinusoids; the phone
rides the wrist, so accelerometer/gyroscope/magnetometer follow from the
analytic wrist trajectory and phone orientation. Keypoints are the pinhole
projection of the walking body as seen from the hovering camera.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InvalidDuration
from .gait import MAX_PERIOD_S, MIN_PERIOD_S, cycle_boundaries
from .orientation import (GRAVITY, EulerAngles, Quaternion,
                          euler_to_quaternion, rotation_matrices)
from .series import JOINT_INDEX, REQUIRED_JOINTS, ImuSeries, KeypointSeries
from .syncing import MIN_SESSION_S

WALK_SPEED = 1.2          # m/s, approach speed
IMU_RATE = 100.0          # Hz, phone IMU sample rate
FOCAL_PX = 2000.0         # camera focal length, px
RESOLUTION = (2704, 1520)  # camera image width, height, px
MAG_WORLD = np.array([22.0, 0.0, -43.0])   # microtesla; recorded, read by no stage
GRAVITY_WORLD = np.array([0.0, 0.0, GRAVITY])


@dataclass(frozen=True)
class SubjectParams:
    cycle_period: float = 1.5       # s
    swing_amplitude: float = 0.4    # rad
    swing_phase: float = 0.0        # rad
    swing_azimuth: float = 0.35     # rad, cross-body tilt of the swing plane
    elbow_flexion: float = 0.35     # rad
    arm_length: float = 0.72        # m
    height: float = 1.72            # m
    imu_noise: float = 0.05         # m/s^2 std
    kp_noise: float = 0.5           # px std
    phone_tilt: EulerAngles = field(default_factory=lambda: EulerAngles(0.0, 0.0, 0.0))
    seed: int = 0

    def __post_init__(self):
        if not MIN_PERIOD_S <= self.cycle_period <= MAX_PERIOD_S:
            raise ValueError(f"cycle_period outside [{MIN_PERIOD_S}, "
                             f"{MAX_PERIOD_S}]")
        if not (0 <= self.imu_noise < math.inf
                and 0 <= self.kp_noise < math.inf):
            raise ValueError("noise std must be finite and non-negative")
        for name in ("swing_amplitude", "swing_phase", "swing_azimuth",
                     "elbow_flexion", "arm_length", "height"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def blend(self, other: "SubjectParams", w: float) -> "SubjectParams":
        """Linear interpolation of gait-shaping parameters toward `other`."""
        def mix(a, b):
            return (1 - w) * a + w * b
        tilt = EulerAngles(mix(self.phone_tilt.roll, other.phone_tilt.roll),
                           mix(self.phone_tilt.pitch, other.phone_tilt.pitch),
                           mix(self.phone_tilt.yaw, other.phone_tilt.yaw))
        return replace(self,
                       cycle_period=mix(self.cycle_period, other.cycle_period),
                       swing_amplitude=mix(self.swing_amplitude, other.swing_amplitude),
                       swing_phase=mix(self.swing_phase, other.swing_phase),
                       swing_azimuth=mix(self.swing_azimuth, other.swing_azimuth),
                       elbow_flexion=mix(self.elbow_flexion, other.elbow_flexion),
                       arm_length=mix(self.arm_length, other.arm_length),
                       height=mix(self.height, other.height),
                       phone_tilt=tilt)


@dataclass(frozen=True)
class CameraModel:
    hover_height: float = 4.0
    horizontal_distance: float = 18.0
    horizontal_angle: float = 0.0   # degrees, path deviation from camera axis
    fps: float = 60.0

    def __post_init__(self):
        if not (0 < self.hover_height < math.inf
                and 0 < self.horizontal_distance < math.inf
                and abs(self.horizontal_angle) < math.inf):
            raise ValueError("camera geometry must be finite, its height and "
                             "distance positive")
        if not 10 <= self.fps <= 60:
            raise ValueError("fps outside supported range")


@dataclass(frozen=True)
class RelayAttack:
    victim: SubjectParams
    decoy_subject: SubjectParams


@dataclass(frozen=True)
class HijackAttack:
    attacker: SubjectParams


@dataclass(frozen=True)
class MimicryAttack:
    attacker: SubjectParams
    victim: SubjectParams
    fidelity: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError("fidelity must lie in [0,1]")


@dataclass
class GroundTruth:
    """What the generator knows about a session.

    `clean` is the noise-free twin of the IMU stream. `cycle_boundaries`
    (seconds, phone clock) are its cycle cuts, computed on first read and
    then kept: the instants a perfect sensor would segment, so any
    deviation on the noisy stream measures noise robustness. A twin that
    cannot be segmented raises its `SyncGaitError` where the cuts are read,
    not when the session is generated.
    """

    clean: ImuSeries        # noise-free twin of the IMU stream
    clock_offset: float     # drone clock minus phone clock, s

    @cached_property
    def cycle_boundaries(self) -> list[float]:
        return cycle_boundaries(self.clean)


class _ArmModel:
    """Analytic swing kinematics: angle, angular rate, wrist acceleration."""

    def __init__(self, p: SubjectParams, heading: float):
        self.p = p
        self.h = heading + p.swing_azimuth   # swing-plane azimuth
        self.omega = 2 * math.pi / p.cycle_period
        self.lu = 0.55 * p.arm_length
        self.lf = 0.45 * p.arm_length
        self.bob_amp = 0.018 * p.height / 1.7

    def theta(self, t: np.ndarray):
        a, w, ph = self.p.swing_amplitude, self.omega, self.p.swing_phase
        th = a * np.sin(w * t + ph)
        th_d = a * w * np.cos(w * t + ph)
        th_dd = -a * w * w * np.sin(w * t + ph)
        return th, th_d, th_dd

    def _seg_acc(self, th, th_d, th_dd, length, extra):
        """Acceleration of one arm segment's endpoint offset."""
        ang = th + extra
        ch, sh = math.cos(self.h), math.sin(self.h)
        s, c = np.sin(ang), np.cos(ang)
        return length * (th_dd[:, None] * np.stack([c * ch, c * sh, s], axis=1)
                         + th_d[:, None] ** 2 * np.stack([-s * ch, -s * sh, c], axis=1))

    def wrist_acceleration(self, th, th_d, th_dd):
        """Wrist acceleration relative to the shoulder (bob excluded)."""
        return (self._seg_acc(th, th_d, th_dd, self.lu, 0.0)
                + self._seg_acc(th, th_d, th_dd, self.lf, self.p.elbow_flexion))

    def bob(self, t: np.ndarray):
        w = self.omega
        z = self.bob_amp * np.sin(w * t)
        z_dd = -self.bob_amp * w * w * np.sin(w * t)
        return z, z_dd


def _phone_quaternions(p: SubjectParams, heading: float,
                       th: np.ndarray) -> np.ndarray:
    """(n, 4) phone attitudes qz(heading) * qy(th) * q_tilt, one
    `Quaternion` product over arrays; the zero components of qy are zero
    arrays, so every signed zero matches the per-sample product."""
    qz = Quaternion(math.cos(heading / 2), 0.0, 0.0, math.sin(heading / 2))
    half = [a / 2 for a in th.tolist()]
    zero = np.zeros(len(half))
    qy = Quaternion(np.array([math.cos(h) for h in half]), zero,
                    np.array([math.sin(h) for h in half]), zero)
    q = qz * qy * euler_to_quaternion(p.phone_tilt)
    return np.stack([q.q0, q.q1, q.q2, q.q3], axis=1)


def generate_session(p: SubjectParams, cam: CameraModel = CameraModel(),
                     duration: float = 8.0, clock_offset: float = 0.0,
                     seed_offset: int = 0) -> tuple[ImuSeries, KeypointSeries, GroundTruth]:
    """One walking session: paired IMU and keypoint streams + ground truth.

    Keypoint timestamps run on the drone clock (phone clock + clock_offset).
    seed_offset varies the noise stream without changing the subject. The
    ground truth keeps the noise-free twin stream and segments it only when
    its `cycle_boundaries` are first read, so this runs no AHRS.
    """
    if not MIN_SESSION_S <= duration < math.inf:
        raise InvalidDuration("duration must be finite and "
                              f">= {MIN_SESSION_S} s")
    rng = np.random.default_rng((p.seed, seed_offset))
    heading = math.radians(cam.horizontal_angle)
    arm = _ArmModel(p, heading)

    n = int(round(duration * IMU_RATE))
    t = np.arange(n) / IMU_RATE

    # body base walks toward the camera; camera sits at the world origin
    direction = np.array([math.cos(heading), math.sin(heading), 0.0])
    start = -direction * cam.horizontal_distance
    shoulder_h = 0.82 * p.height
    _, bob_zdd = arm.bob(t)

    th, th_d, th_dd = arm.theta(t)
    a_world = arm.wrist_acceleration(th, th_d, th_dd)
    a_world[:, 2] += bob_zdd

    r_t = rotation_matrices(_phone_quaternions(p, arm.h, th)).transpose(0, 2, 1)
    omega_world = np.stack([-th_d * math.sin(arm.h),
                            th_d * math.cos(arm.h),
                            np.zeros(n)], axis=1)
    acc = (r_t @ (a_world + GRAVITY_WORLD)[:, :, None])[:, :, 0]
    gyro = (r_t @ omega_world[:, :, None])[:, :, 0]
    mag = r_t @ MAG_WORLD
    clean = ImuSeries(t=t.copy(), acc=acc.copy(), gyro=gyro.copy(),
                      mag=mag.copy(), sample_rate=IMU_RATE)
    acc += rng.normal(0.0, p.imu_noise, acc.shape)
    gyro += rng.normal(0.0, p.imu_noise * 0.05, gyro.shape)
    mag += rng.normal(0.0, p.imu_noise * 2.0, mag.shape)
    imu = ImuSeries(t=t, acc=acc, gyro=gyro, mag=mag, sample_rate=IMU_RATE)

    kp = _render_keypoints(p, cam, arm, duration, clock_offset,
                           start, direction, shoulder_h, rng)

    return imu, kp, GroundTruth(clean, clock_offset)


def _render_keypoints(p, cam, arm, duration, clock_offset,
                      start, direction, shoulder_h, rng) -> KeypointSeries:
    n_frames = int(round(duration * cam.fps))
    tf = np.arange(n_frames) / cam.fps      # phone-clock sampling instants
    base = start[None, :] + direction[None, :] * (WALK_SPEED * tf)[:, None]
    bob_z, _ = arm.bob(tf)
    th, _, _ = arm.theta(tf)

    lat = np.array([-direction[1], direction[0], 0.0])  # body left
    half_shoulder = 0.13 * p.height
    half_hip = 0.065 * p.height
    hip_h = 0.53 * p.height
    leg_amp = 0.55 * p.swing_amplitude + 0.12
    l_thigh = 0.245 * p.height
    l_shank = 0.246 * p.height

    joints_world: dict[str, np.ndarray] = {}
    for side, sgn, arm_sign in (("l", 1.0, -1.0), ("r", -1.0, 1.0)):
        sh = base + lat * sgn * half_shoulder
        sh[:, 2] += shoulder_h + bob_z
        th_s = arm_sign * th
        # elbow/wrist from the same chain as the IMU arm (right side drives
        # it); the swing plane is tilted cross-body by the azimuth
        heading = arm.h - p.swing_azimuth
        az = heading + arm_sign * p.swing_azimuth
        sdx, sdy = math.cos(az), math.sin(az)
        ang1 = th_s
        ang2 = th_s + p.elbow_flexion
        seg1 = arm.lu * np.stack([np.sin(ang1) * sdx,
                                  np.sin(ang1) * sdy,
                                  -np.cos(ang1)], axis=1)
        seg2 = arm.lf * np.stack([np.sin(ang2) * sdx,
                                  np.sin(ang2) * sdy,
                                  -np.cos(ang2)], axis=1)
        el = sh + seg1
        wr = el + seg2
        hip = base + lat * sgn * half_hip
        hip[:, 2] += hip_h + bob_z
        leg_ang = -arm_sign * leg_amp * np.sin(arm.omega * tf + p.swing_phase)
        thigh = l_thigh * np.stack([np.sin(leg_ang) * direction[0],
                                    np.sin(leg_ang) * direction[1],
                                    -np.cos(leg_ang)], axis=1)
        knee = hip + thigh
        shank_ang = leg_ang * 0.7
        shank = l_shank * np.stack([np.sin(shank_ang) * direction[0],
                                    np.sin(shank_ang) * direction[1],
                                    -np.cos(shank_ang)], axis=1)
        ankle = knee + shank
        joints_world[f"shoulder_{side}"] = sh
        joints_world[f"elbow_{side}"] = el
        joints_world[f"wrist_{side}"] = wr
        joints_world[f"hip_{side}"] = hip
        joints_world[f"knee_{side}"] = knee
        joints_world[f"ankle_{side}"] = ankle

    # pinhole camera fixed at the origin, aimed at the subject mid-path
    c = np.array([0.0, 0.0, cam.hover_height])
    mid = base[len(base) // 2].copy()
    mid[2] = 0.5 * p.height
    fwd = mid - c
    fwd /= np.linalg.norm(fwd)
    right = np.cross(fwd, np.array([0.0, 0.0, 1.0]))
    right /= np.linalg.norm(right)
    up = np.cross(right, fwd)

    # one noise draw per (frame, joint, axis) in the joints_world order
    noise = rng.normal(0.0, p.kp_noise, (n_frames, len(joints_world), 2))
    return KeypointSeries(tf + clock_offset,
                          _project(joints_world, c, fwd, right, up, noise),
                          np.ones((n_frames, len(REQUIRED_JOINTS))),
                          frame_rate=cam.fps)


def _project(joints_world: dict[str, np.ndarray], c: np.ndarray,
             fwd: np.ndarray, right: np.ndarray, up: np.ndarray,
             noise: np.ndarray) -> np.ndarray:
    """(n, J, 2) pixels, joints in `REQUIRED_JOINTS` order, of the (n, 3)
    world trajectories seen by the pinhole camera at `c` with unit axes
    `fwd`, `right`, `up`, plus `noise[:, j]` on the j-th trajectory."""
    w_px, h_px = RESOLUTION
    uv = np.empty((len(noise), len(REQUIRED_JOINTS), 2))
    for j, (name, traj) in enumerate(joints_world.items()):
        col = JOINT_INDEX[name]
        # (n, 1, 3) @ (3, 1) is each frame's own 3-term dot product, bit for
        # bit; einsum or (n, 3) @ (3,) may sum in another order
        rel = (traj - c)[:, None, :]
        depth = (rel @ fwd[:, None])[:, 0, 0]
        uv[:, col, 0] = (w_px / 2 + FOCAL_PX * (rel @ right[:, None])[:, 0, 0]
                         / depth + noise[:, j, 0])
        uv[:, col, 1] = (h_px / 2 - FOCAL_PX * (rel @ up[:, None])[:, 0, 0]
                         / depth + noise[:, j, 1])
    return uv


def generate_attack(spec, cam: CameraModel = CameraModel(),
                    duration: float = 8.0, clock_offset: float = 0.0,
                    seed_offset: int = 0):
    """Paired impostor streams for one attack attempt.

    Relay: victim's genuine IMU, decoy's keypoints (independent sessions).
    Hijack: attacker's own self-consistent streams.
    Mimicry: self-consistent streams from the attacker's parameters blended
    toward the victim with weight fidelity plus residual phase error.
    """
    if isinstance(spec, RelayAttack):
        imu, _, gt = generate_session(spec.victim, cam, duration,
                                      clock_offset, seed_offset=seed_offset)
        _, kp, _ = generate_session(spec.decoy_subject, cam, duration,
                                    clock_offset, seed_offset=seed_offset + 1)
        return imu, kp, gt
    if isinstance(spec, HijackAttack):
        return generate_session(spec.attacker, cam, duration, clock_offset,
                                seed_offset=seed_offset)
    if isinstance(spec, MimicryAttack):
        params = spec.attacker.blend(spec.victim, spec.fidelity)
        params = replace(params,
                         swing_phase=params.swing_phase
                         + (1.0 - spec.fidelity) * 0.3)
        return generate_session(params, cam, duration, clock_offset,
                                seed_offset=seed_offset)
    raise TypeError(f"unknown attack spec {type(spec).__name__}")


def make_cohort(size: int, seed: int = 0) -> list[SubjectParams]:
    """Sample a cohort of distinct subjects.

    Cycle periods are stratified over [1.15, 2.0] s with jitter inside each
    stratum, so any two subjects keep a guaranteed cadence separation; iid
    draws routinely produce near-identical cadences, which makes mismatched
    stream pairings spuriously correlated over a short sample window.
    """
    if size < 2:
        raise ValueError("cohort size must be >= 2")
    rng = np.random.default_rng(seed)
    bases = np.linspace(1.15, 2.0, size)
    gap = float(bases[1] - bases[0])
    order = rng.permutation(size)
    cohort = []
    for k in range(size):
        period = float(bases[order[k]] + rng.uniform(-0.3, 0.3) * gap)
        tilt = EulerAngles(float(rng.normal(0.0, 0.12)),
                           float(rng.normal(0.0, 0.12)),
                           float(rng.normal(0.0, 0.2)))
        cohort.append(SubjectParams(
            cycle_period=period,
            swing_amplitude=float(rng.uniform(0.42, 0.6)),
            swing_phase=float(rng.uniform(-math.pi, math.pi)),
            swing_azimuth=float(rng.uniform(0.3, 0.5)),
            elbow_flexion=float(rng.uniform(0.25, 0.6)),
            arm_length=float(rng.uniform(0.64, 0.8)),
            height=float(rng.uniform(1.55, 1.9)),
            imu_noise=0.05,
            kp_noise=0.3,
            phone_tilt=tilt,
            seed=int(rng.integers(0, 2 ** 31)) ^ k,
        ))
    return cohort
