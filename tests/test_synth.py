"""Synthetic paired-stream generator and attack stream generators."""

import numpy as np
import pytest

from syncgait.errors import InvalidDuration
from syncgait.series import REQUIRED_JOINTS
from syncgait.synth import (CameraModel, HijackAttack, MimicryAttack,
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
    imu, kp, gt = generate_session(p, duration=6.0)
    assert len(imu) == 600
    assert len(kp) == 360        # 60 fps
    assert kp.uv.shape == (360, len(REQUIRED_JOINTS), 2)
    assert np.array_equal(kp.conf, np.ones((360, len(REQUIRED_JOINTS))))
    assert gt.base_path.shape == (600, 3)


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
    p = SubjectParams(seed=1)
    _, _, gt = generate_session(p, duration=8.0)
    d0 = np.linalg.norm(gt.base_path[0][:2])
    d1 = np.linalg.norm(gt.base_path[-1][:2])
    assert d1 < d0
    assert d0 == pytest.approx(18.0, abs=0.1)


def test_duration_validation():
    with pytest.raises(InvalidDuration):
        generate_session(SubjectParams(), duration=2.0)


def test_subject_params_validation():
    with pytest.raises(ValueError):
        SubjectParams(cycle_period=0.5)
    with pytest.raises(ValueError):
        SubjectParams(imu_noise=-0.1)


def test_camera_model_validation():
    with pytest.raises(ValueError):
        CameraModel(fps=5.0)
    with pytest.raises(ValueError):
        CameraModel(hover_height=0.0)


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
