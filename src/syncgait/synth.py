"""Parametric synthetic subjects: physically consistent paired IMU and
keypoint streams with analytic ground truth, plus attack stream generators
(relay, hijack, mimicry).

The arm is a shoulder-elbow-wrist chain of phase-locked sinusoids; the phone
rides the wrist, so the accelerometer and gyroscope follow from the
analytic wrist trajectory and phone orientation. Keypoints are the pinhole
projection of the walking body as seen from the hovering camera.

A session is its subject's walk plus its own noise. The walk's
`GroundTruth` (the clean IMU twin, the frame times and the noise-free
pixels) depends only on the subject, the camera, the duration and the
clock offset; the noise is drawn from the subject's seed and the session's
seed offset. Inside `shared_walks()`, which each CLI command run opens,
every walk is computed once and its sessions share it; outside it, each
session computes its own.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import astuple, dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InvalidDuration
from .gait import MAX_PERIOD_S, MIN_PERIOD_S, cycle_boundaries
from .orientation import (GRAVITY_WORLD, EulerAngles, Quaternion,
                          euler_to_quaternion, rotation_matrices)
from .series import REQUIRED_JOINTS, ImuSeries, KeypointSeries
from .syncing import MIN_SESSION_S

WALK_SPEED = 1.2          # m/s, approach speed
IMU_RATE = 100.0          # Hz, phone IMU sample rate
FOCAL_PX = 2000.0         # camera focal length, px
RESOLUTION = (2704, 1520)  # camera image width, height, px
# the SubjectParams fields that shape a walk: finite, and blended by mimicry
SHAPE_FIELDS = ("cycle_period", "swing_amplitude", "swing_phase",
                "swing_azimuth", "elbow_flexion", "arm_length", "height")


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
        for name in SHAPE_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def blend(self, other: "SubjectParams", w: float) -> "SubjectParams":
        """The walk's shape and phone tilt interpolated toward `other`."""
        def mix(a, b):
            return (1 - w) * a + w * b
        tilt = map(mix, astuple(self.phone_tilt), astuple(other.phone_tilt))
        return replace(self, phone_tilt=EulerAngles(*tilt), **{
            name: mix(getattr(self, name), getattr(other, name))
            for name in SHAPE_FIELDS})


@dataclass(frozen=True)
class CameraModel:
    hover_height: float = 4.0
    horizontal_distance: float = 18.0
    # degrees, the walk's compass heading; the camera aims along the walk,
    # so this turns the whole scene about the vertical and no stream
    # depends on it
    horizontal_angle: float = 0.0
    fps: float = 60.0

    def __post_init__(self):
        h, d = self.hover_height, self.horizontal_distance
        # the projection squares the camera's offsets from the walk; they
        # are multiplied here, since ** raises OverflowError on overflow
        if not (0 < h and 0 < d and h * h + d * d < math.inf
                and abs(self.horizontal_angle) < math.inf):
            raise ValueError("camera geometry must be finite, its height and "
                             "distance positive and their squares' sum "
                             "finite")
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


@dataclass(frozen=True)
class GroundTruth:
    """A walk's noise-free truth, shared by every session recorded from it;
    its arrays are read-only.

    `cycle_boundaries` (seconds, phone clock) are the cycle cuts of the
    `clean` twin, computed on first read and then kept: the instants a
    perfect sensor would segment, so any deviation on a noisy stream
    measures noise robustness. A twin that cannot be segmented raises its
    `SyncGaitError` where the cuts are read, not when the session is
    generated.
    """

    clean: ImuSeries        # noise-free twin of the IMU stream
    clock_offset: float     # drone clock minus phone clock, s
    frame_t: np.ndarray     # (n,) frame times, drone clock
    uv: np.ndarray          # (n, 12, 2) noise-free pixels

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


def check_walk(duration: float, cam: CameraModel) -> None:
    """InvalidDuration unless `duration` is finite, at least MIN_SESSION_S
    and short of a walk that reaches the camera."""
    if not MIN_SESSION_S <= duration < math.inf:
        raise InvalidDuration("duration must be finite and "
                              f">= {MIN_SESSION_S} s")
    if duration * WALK_SPEED >= cam.horizontal_distance:
        raise InvalidDuration(f"a {duration} s walk reaches the camera "
                              f"{cam.horizontal_distance} m away")


# the walk table of the enclosing shared_walks() scope, None outside one
_WALKS: ContextVar[dict | None] = ContextVar("synth_walks", default=None)


@contextmanager
def shared_walks():
    """A scope in which each walk is computed once: every session of one
    (subject, camera, duration, clock offset) reuses its `GroundTruth`.
    The walks are dropped when the scope ends."""
    token = _WALKS.set({})
    try:
        yield
    finally:
        _WALKS.reset(token)


def _walk(p: SubjectParams, cam: CameraModel, duration: float,
          clock_offset: float) -> GroundTruth:
    walks, key = _WALKS.get(), (p, cam, duration, clock_offset)
    if walks is None:
        return _make_walk(*key)
    if key not in walks:
        walks[key] = _make_walk(*key)
    return walks[key]


def _make_walk(p: SubjectParams, cam: CameraModel, duration: float,
               clock_offset: float) -> GroundTruth:
    check_walk(duration, cam)
    arm = _ArmModel(p, math.radians(cam.horizontal_angle))

    n = int(round(duration * IMU_RATE))
    t = np.arange(n) / IMU_RATE
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

    frame_t, uv = _render_keypoints(p, cam, arm, duration, clock_offset)
    for a in (t, acc, gyro, frame_t, uv):
        a.flags.writeable = False
    clean = ImuSeries(t=t, acc=acc, gyro=gyro, sample_rate=IMU_RATE)
    return GroundTruth(clean, clock_offset, frame_t, uv)


def generate_session(p: SubjectParams, cam: CameraModel = CameraModel(),
                     duration: float = 8.0, clock_offset: float = 0.0,
                     seed_offset: int = 0) -> tuple[ImuSeries, KeypointSeries, GroundTruth]:
    """One walking session: paired IMU and keypoint streams + ground truth.

    The session is the subject's walk plus noise drawn from
    (p.seed, seed_offset), so seed_offset varies the noise without changing
    the subject. Keypoint timestamps run on the drone clock (phone clock +
    clock_offset). The timestamps are the walk's read-only arrays; acc, gyro
    and the pixels are the session's own. The ground truth keeps the
    noise-free twin stream and segments it only when its `cycle_boundaries`
    are first read, so this runs no attitude scan."""
    truth = _walk(p, cam, duration, clock_offset)
    clean = truth.clean
    rng = np.random.default_rng((p.seed, seed_offset))
    n = len(clean)
    acc = clean.acc + rng.normal(0.0, p.imu_noise, (n, 3))
    gyro = clean.gyro + rng.normal(0.0, p.imu_noise * 0.05, (n, 3))
    # the former magnetometer's noise, drawn and discarded so that the
    # keypoint noise drawn after it stays the same
    rng.normal(0.0, p.imu_noise * 2.0, (n, 3))
    # one noise draw per (frame, side, joint, axis), the order the session
    # goldens fix, put in joint order
    noise = rng.normal(0.0, p.kp_noise, (len(truth.frame_t), 2, 6, 2))
    uv = truth.uv + noise.transpose(0, 2, 1, 3).reshape(truth.uv.shape)
    # a joint projected outside the image is not detected
    u, v = uv[..., 0], uv[..., 1]
    width, height = RESOLUTION
    seen = (u >= 0.0) & (u < width) & (v >= 0.0) & (v < height)
    return (ImuSeries(t=clean.t, acc=acc, gyro=gyro, sample_rate=IMU_RATE),
            KeypointSeries(truth.frame_t, uv, seen.astype(float),
                           frame_rate=cam.fps),
            truth)


def _limb(length: float, ang: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """(n, 3) offset of a limb of `length` hanging at angles `ang` from the
    downward vertical, in the vertical plane of horizontal direction
    (dx, dy)."""
    s = np.sin(ang)
    return length * np.stack([s * dx, s * dy, -np.cos(ang)], axis=1)


def _render_keypoints(p, cam, arm, duration,
                      clock_offset) -> tuple[np.ndarray, np.ndarray]:
    """Drone-clock frame times (n,) and noise-free pixels (n, 12, 2)."""
    n_frames = int(round(duration * cam.fps))
    tf = np.arange(n_frames) / cam.fps      # phone-clock sampling instants
    # body base walks toward the camera; camera sits at the world origin
    heading = math.radians(cam.horizontal_angle)
    direction = np.array([math.cos(heading), math.sin(heading), 0.0])
    start = -direction * cam.horizontal_distance
    base = start[None, :] + direction[None, :] * (WALK_SPEED * tf)[:, None]
    bob_z, _ = arm.bob(tf)
    th, _, _ = arm.theta(tf)

    lat = np.array([-direction[1], direction[0], 0.0])  # body left
    leg_amp = 0.55 * p.swing_amplitude + 0.12
    sides = []
    for sgn, arm_sign in ((1.0, -1.0), (-1.0, 1.0)):    # left, right
        sh = base + lat * sgn * (0.13 * p.height)
        sh[:, 2] += 0.82 * p.height + bob_z
        # elbow/wrist from the same chain as the IMU arm (right side drives
        # it); the swing plane is tilted cross-body by the azimuth
        az = (arm.h - p.swing_azimuth) + arm_sign * p.swing_azimuth
        arm_dir, th_s = (math.cos(az), math.sin(az)), arm_sign * th
        el = sh + _limb(arm.lu, th_s, *arm_dir)
        wr = el + _limb(arm.lf, th_s + p.elbow_flexion, *arm_dir)
        hip = base + lat * sgn * (0.065 * p.height)
        hip[:, 2] += 0.53 * p.height + bob_z
        leg_ang = -arm_sign * leg_amp * np.sin(arm.omega * tf + p.swing_phase)
        knee = hip + _limb(0.245 * p.height, leg_ang, *direction[:2])
        ankle = knee + _limb(0.246 * p.height, leg_ang * 0.7, *direction[:2])
        sides.append(np.stack([sh, el, wr, hip, knee, ankle], axis=1))
    # (n, 12, 3), the sides interleaved into REQUIRED_JOINTS' joint-major order
    joints = np.stack(sides, axis=2).reshape(n_frames, len(REQUIRED_JOINTS), 3)

    # pinhole camera fixed at the origin, aimed at the subject mid-path
    c = np.array([0.0, 0.0, cam.hover_height])
    mid = base[len(base) // 2].copy()
    mid[2] = 0.5 * p.height
    fwd = mid - c
    fwd /= np.linalg.norm(fwd)
    right = np.cross(fwd, np.array([0.0, 0.0, 1.0]))
    right /= np.linalg.norm(right)
    up = np.cross(right, fwd)
    return tf + clock_offset, _project(joints, c, fwd, right, up)


def _project(joints: np.ndarray, c: np.ndarray, fwd: np.ndarray,
             right: np.ndarray, up: np.ndarray) -> np.ndarray:
    """(n, J, 2) pixels of the (n, J, 3) world joints seen by the pinhole
    camera at `c` with unit axes `fwd`, `right`, `up`."""
    w_px, h_px = RESOLUTION
    # (..., 1, 3) @ (3, 1) is each joint's own 3-term dot product, bit for
    # bit; einsum or (..., 3) @ (3,) may sum in another order
    rel = (joints - c)[..., None, :]
    depth = (rel @ fwd[:, None])[..., 0, 0]
    u = w_px / 2 + FOCAL_PX * (rel @ right[:, None])[..., 0, 0] / depth
    v = h_px / 2 - FOCAL_PX * (rel @ up[:, None])[..., 0, 0] / depth
    return np.stack([u, v], axis=2)


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
