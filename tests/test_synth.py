"""Synthetic paired-stream generator and attack stream generators."""

import json
import math

import numpy as np
import pytest

from syncgait import gait, protocol, synth
from syncgait.cli import main
from syncgait.errors import InvalidDuration
from syncgait.gait import cycle_boundaries
from syncgait.orientation import Quaternion, euler_to_quaternion
from syncgait.series import JOINT_INDEX, REQUIRED_JOINTS
from syncgait.synth import (IMU_RATE, CameraModel, HijackAttack, MimicryAttack,
                            RelayAttack, SubjectParams, generate_attack,
                            generate_session, make_cohort)


def test_generation_is_deterministic():
    p = SubjectParams(seed=5)
    a1, k1, g1 = generate_session(p, seed_offset=3)
    a2, k2, g2 = generate_session(p, seed_offset=3)
    assert np.array_equal(a1.acc, a2.acc)
    assert np.array_equal(a1.gyro, a2.gyro)
    assert np.array_equal(k1.uv, k2.uv)
    assert np.array_equal(k1.conf, k2.conf)
    assert g1.cycle_boundaries == g2.cycle_boundaries


def test_seed_offset_changes_noise_not_subject():
    p = SubjectParams(seed=5)
    a1, _, _ = generate_session(p, seed_offset=0)
    a2, _, _ = generate_session(p, seed_offset=1)
    assert not np.array_equal(a1.acc, a2.acc)
    # same underlying gait: the mean traces agree to within the noise scale
    assert np.abs(a1.acc - a2.acc).mean() < 4 * p.imu_noise


def test_streams_have_consistent_geometry():
    p = SubjectParams(seed=2)
    imu, kp, _ = generate_session(p, duration=6.0)
    assert len(imu) == 600
    assert len(kp) == 360        # 60 fps
    assert kp.uv.shape == (360, len(REQUIRED_JOINTS), 2)
    assert np.array_equal(kp.conf, np.ones((360, len(REQUIRED_JOINTS))))


def test_keypoints_run_on_drone_clock():
    p = SubjectParams(seed=2)
    offset = 0.25
    _, kp, gt = generate_session(p, clock_offset=offset)
    assert kp.t[0] == pytest.approx(offset)
    assert gt.clock_offset == offset


def test_ground_truth_boundaries_are_periodic():
    p = SubjectParams(cycle_period=1.4, seed=3)
    _, _, gt = generate_session(p, duration=10.0)
    diffs = np.diff(gt.cycle_boundaries)
    assert np.allclose(diffs, 1.4, atol=0.05)


def test_subject_approaches_camera():
    # the apparent torso (shoulder midpoint to hip midpoint, 0.29 of the
    # height) grows every half second, from its pinhole size at 18 m
    p = SubjectParams(seed=1)
    _, kp, _ = generate_session(p, duration=8.0)

    def midpoint(part):
        return 0.5 * (kp.uv[:, JOINT_INDEX[f"{part}_l"]]
                      + kp.uv[:, JOINT_INDEX[f"{part}_r"]])
    torso = np.linalg.norm(midpoint("shoulder") - midpoint("hip"), axis=1)
    assert np.all(np.diff(torso[::30]) > 0)
    assert torso[0] == pytest.approx(synth.FOCAL_PX * 0.29 * p.height / 18.0,
                                     rel=0.05)


def test_duration_validation():
    for duration in (2.0, float("nan"), float("inf")):
        with pytest.raises(InvalidDuration):
            generate_session(SubjectParams(), duration=duration)


def test_subject_params_validation():
    with pytest.raises(ValueError):
        SubjectParams(cycle_period=0.5)
    for noise in ({"imu_noise": -0.1}, {"imu_noise": float("nan")},
                  {"kp_noise": float("inf")}):
        with pytest.raises(ValueError):
            SubjectParams(**noise)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("name", ["swing_amplitude", "swing_phase",
                                  "swing_azimuth", "elbow_flexion",
                                  "arm_length", "height"])
def test_subject_params_refuse_a_non_finite_gait_field(name, value):
    # nan arm_length would end in "IMU samples must be finite", inf
    # swing_amplitude in a math domain error, both inside generate_session
    with pytest.raises(ValueError, match=name):
        SubjectParams(**{name: value})


def test_camera_model_validation():
    with pytest.raises(ValueError):
        CameraModel(fps=5.0)
    for geometry in ({"hover_height": 0.0}, {"hover_height": float("nan")},
                     {"horizontal_angle": float("nan")},
                     {"horizontal_distance": float("inf")}):
        with pytest.raises(ValueError):
            CameraModel(**geometry)


# --- attacks ---------------------------------------------------------------------

def test_relay_mixes_two_subjects():
    victim = SubjectParams(cycle_period=1.2, seed=10)
    decoy = SubjectParams(cycle_period=1.9, seed=11)
    imu, kp, _ = generate_attack(RelayAttack(victim, decoy), seed_offset=0)
    v_imu, _, _ = generate_session(victim, seed_offset=0)
    _, d_kp, _ = generate_session(decoy, seed_offset=1)
    assert np.array_equal(imu.acc, v_imu.acc)          # victim's IMU
    assert np.array_equal(kp.uv, d_kp.uv)               # decoy's video


def test_hijack_is_self_consistent_attacker():
    attacker = SubjectParams(seed=12)
    imu, kp, _ = generate_attack(HijackAttack(attacker), seed_offset=4)
    a_imu, a_kp, _ = generate_session(attacker, seed_offset=4)
    assert np.array_equal(imu.acc, a_imu.acc)
    assert np.array_equal(kp.uv, a_kp.uv)


def test_mimicry_fidelity_blends_parameters():
    attacker = SubjectParams(cycle_period=1.0, seed=13)
    victim = SubjectParams(cycle_period=2.0, seed=14)
    _, _, gt_half = generate_attack(MimicryAttack(attacker, victim, 0.5))
    diffs = np.diff(gt_half.cycle_boundaries)
    assert np.allclose(diffs, 1.5, atol=0.08)   # halfway period
    with pytest.raises(ValueError):
        MimicryAttack(attacker, victim, 1.5)


def test_unknown_attack_spec_rejected():
    with pytest.raises(TypeError):
        generate_attack(object())


# --- cohort ---------------------------------------------------------------------

def test_cohort_is_deterministic_and_distinct():
    c1 = make_cohort(8, seed=4)
    c2 = make_cohort(8, seed=4)
    assert [p.cycle_period for p in c1] == [p.cycle_period for p in c2]
    assert len({p.seed for p in c1}) == 8


def test_cohort_guarantees_cadence_separation():
    cohort = make_cohort(10, seed=0)
    periods = sorted(p.cycle_period for p in cohort)
    gaps = np.diff(periods)
    assert gaps.min() > 0.02     # no two subjects share a cadence
    assert all(0.8 <= p <= 2.5 for p in periods)


@pytest.mark.parametrize("size", [1, 0, -1])
def test_cohort_rejects_sizes_below_one(size):
    with pytest.raises(ValueError, match="cohort size must be >= 2"):
        make_cohort(size)


# --- batched synthesis against per-sample references ---------------------------

def _project_per_frame(joints_world, c, fwd, right, up, noise):
    """Reference: one scalar dot product per (frame, joint, axis)."""
    w_px, h_px = synth.RESOLUTION
    uv = np.empty((len(noise), len(REQUIRED_JOINTS), 2))
    for j, (name, traj) in enumerate(joints_world.items()):
        col = JOINT_INDEX[name]
        rel = traj - c
        for k in range(len(noise)):
            d = rel[k]
            depth = float(d @ fwd)
            uv[k, col, 0] = (w_px / 2 + synth.FOCAL_PX * float(d @ right)
                             / depth + noise[k, j, 0])
            uv[k, col, 1] = (h_px / 2 - synth.FOCAL_PX * float(d @ up)
                             / depth + noise[k, j, 1])
    return uv


def _phone_quaternions_per_sample(p, heading, th):
    """Reference: one `Quaternion` product per sample."""
    qz = Quaternion(math.cos(heading / 2), 0, 0, math.sin(heading / 2))
    q_tilt = euler_to_quaternion(p.phone_tilt)
    return np.array([(q.q0, q.q1, q.q2, q.q3) for q in (
        qz * Quaternion(math.cos(a / 2), 0, math.sin(a / 2), 0) * q_tilt
        for a in th)])


def _with_references(monkeypatch, make):
    """make() as shipped and with the per-sample references swapped in."""
    fast = make()
    with monkeypatch.context() as m:
        m.setattr(synth, "_project", _project_per_frame)
        m.setattr(synth, "_phone_quaternions", _phone_quaternions_per_sample)
        ref = make()
    return fast, ref


def _assert_same_bytes(fast, ref):
    (imu, kp, _), (imu_r, kp_r, _) = fast, ref
    assert kp.uv.tobytes() == kp_r.uv.tobytes()
    for a, b in ((imu.acc, imu_r.acc), (imu.gyro, imu_r.gyro),
                 (imu.mag, imu_r.mag)):
        assert a.tobytes() == b.tobytes()


CAMERAS = [CameraModel(horizontal_angle=angle, fps=fps,
                       horizontal_distance=dist)
           for angle in (0.0, 30.0, 90.0, 180.0)
           for fps in (30.0, 60.0) for dist in (10.0, 18.0)]


@pytest.mark.parametrize("cam", CAMERAS, ids=lambda c: (
    f"{c.horizontal_angle:g}deg-{c.fps:g}fps-{c.horizontal_distance:g}m"))
def test_batched_synthesis_equals_per_sample_references(monkeypatch, cam):
    for si, p in enumerate(make_cohort(5)):
        _assert_same_bytes(*_with_references(monkeypatch, lambda: (
            generate_session(p, cam, 3.0, 0.05, seed_offset=si))))
        # the phone attitudes themselves, as generate_session forms them
        arm = synth._ArmModel(p, math.radians(cam.horizontal_angle))
        th, _, _ = arm.theta(np.arange(300) / IMU_RATE)
        assert (synth._phone_quaternions(p, arm.h, th).tobytes()
                == _phone_quaternions_per_sample(p, arm.h, th).tobytes())


@pytest.mark.parametrize("kind", ["relay", "hijack", "mimicry"])
def test_batched_attacks_equal_per_sample_references(monkeypatch, kind):
    a, b = make_cohort(2, seed=9)
    spec = {"relay": RelayAttack(a, b), "hijack": HijackAttack(b),
            "mimicry": MimicryAttack(b, a, 0.5)}[kind]
    _assert_same_bytes(*_with_references(monkeypatch, lambda: (
        generate_attack(spec, CameraModel(horizontal_angle=30.0), 3.0,
                        seed_offset=4))))


# --- ground truth is segmented only when read ------------------------------------

@pytest.fixture
def ahrs_calls(monkeypatch):
    """Counts the AHRS runs of the gait chain, the one caller of ahrs_stream."""
    calls = []
    real = gait.ahrs_stream

    def counted(imu):
        calls.append(len(imu))
        return real(imu)
    monkeypatch.setattr(gait, "ahrs_stream", counted)
    return calls


def test_synthesis_runs_no_ahrs(ahrs_calls):
    a, b = make_cohort(2, seed=3)
    generate_session(a, duration=4.0)
    for spec in (RelayAttack(a, b), HijackAttack(b), MimicryAttack(b, a)):
        generate_attack(spec, duration=4.0)
    assert ahrs_calls == []


def test_ground_truth_cuts_are_computed_once_on_first_read(ahrs_calls):
    _, _, gt = generate_session(SubjectParams(seed=3), duration=6.0)
    assert ahrs_calls == []
    cuts = gt.cycle_boundaries
    assert len(ahrs_calls) == 1
    assert gt.cycle_boundaries is cuts
    assert len(ahrs_calls) == 1
    assert cuts == cycle_boundaries(gt.clean)


def test_evaluate_runs_the_ahrs_once_per_scored_view(tmp_path, monkeypatch,
                                                     ahrs_calls):
    config = {"cohort_size": 2, "enroll_sessions": 4, "genuine_trials": 1,
              "attack_trials": 1, "loss_rate": 0.3}
    attempts = []
    real = protocol.attempt_scores

    def spy(enrollment, offset, imu, kp, imu_valid, kp_valid):
        attempts.append(bool(imu_valid.all()))
        return real(enrollment, offset, imu, kp, imu_valid, kp_valid)
    monkeypatch.setattr(protocol, "attempt_scores", spy)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["evaluate", "--config", str(cfg), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 0
    # one attempt per trial, each scoring one IMU view (nothing stayed lost)
    assert attempts == [True] * (2 * (1 + 3))
    assert len(ahrs_calls) == 2 * 4 + len(attempts)
