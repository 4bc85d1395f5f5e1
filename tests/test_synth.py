"""Synthetic paired-stream generator and attack stream generators."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from syncgait import cli, gait, protocol, synth
from syncgait.cli import EXIT_CONFIG, main
from syncgait.errors import InvalidDuration
from syncgait.gait import cycle_boundaries
from syncgait.orientation import Quaternion, euler_to_quaternion
from syncgait.series import JOINT_INDEX, REQUIRED_JOINTS
from syncgait.synth import (IMU_RATE, SHAPE_FIELDS, CameraModel, HijackAttack,
                            MimicryAttack, RelayAttack, SubjectParams,
                            generate_attack, generate_session, make_cohort)


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


def test_joints_outside_the_image_are_not_detected():
    # in the last 1.5 s of a 12 s walk toward the camera 18 m away, the
    # legs and arms leave the image
    _, kp, _ = generate_session(SubjectParams(), duration=12.0)
    inside = ((kp.uv >= 0) & (kp.uv < synth.RESOLUTION)).all(axis=2)
    assert (~inside[:, JOINT_INDEX["wrist_r"]]).sum() == 39
    assert np.array_equal(kp.conf, inside.astype(float))


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


@pytest.mark.parametrize("duration, distance", [(20.0, 18.0), (10.0, 12.0),
                                                (1e12, 18.0)])
def test_walk_that_reaches_the_camera_is_invalid_duration(duration, distance):
    # at 20 s from 18 m the subject walks under the camera at 15 s and the
    # later frames project far outside the image
    with pytest.raises(InvalidDuration):
        generate_session(SubjectParams(), CameraModel(
            horizontal_distance=distance), duration=duration)
    # the longest walk the goldens and the benchmark take, 14.4 m of 18,
    # and a walk that stops just short of the camera
    imu, kp, _ = generate_session(SubjectParams(), duration=12.0)
    assert (len(imu), len(kp)) == (1200, 720)
    imu, _, _ = generate_session(SubjectParams(), CameraModel(
        horizontal_distance=12.0), duration=9.99)
    assert len(imu) == 999


def test_cli_synth_of_a_walk_past_the_camera_is_config_error(tmp_path,
                                                             capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cohort_size": 2, "duration": 1e12}))
    assert main(["synth", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "reaches the camera" in capsys.readouterr().err


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


@pytest.mark.parametrize("geometry", [
    {"horizontal_distance": 1e300}, {"hover_height": 1e200},
    {"hover_height": 1.3e154, "horizontal_distance": 1.3e154}])
def test_camera_model_refuses_a_geometry_whose_squares_overflow(geometry):
    with pytest.raises(ValueError, match="squares"):
        CameraModel(**geometry)


def test_camera_model_just_inside_the_overflow_synthesizes_cleanly():
    # 1.3e154 squared is finite: the walk projects with no overflow warning
    _, kp, _ = generate_session(SubjectParams(), CameraModel(
        horizontal_distance=1.3e154), duration=3.0)
    assert np.isfinite(kp.uv).all()


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


@pytest.mark.parametrize("w", [0.0, 0.3, 1.0])
def test_blend_mixes_every_shape_field_and_tilt_angle(w):
    a, b = make_cohort(2, seed=21)
    b = replace(b, imu_noise=0.2, kp_noise=0.9)
    out = a.blend(b, w)
    pairs = [(getattr(out, n), getattr(a, n), getattr(b, n))
             for n in SHAPE_FIELDS]
    pairs += [(getattr(out.phone_tilt, n), getattr(a.phone_tilt, n),
               getattr(b.phone_tilt, n)) for n in ("roll", "pitch", "yaw")]
    assert len(pairs) == 10
    for got, x, y in pairs:
        assert got == (1 - w) * x + w * y
    # the noise and the seed stay those of the subject blended from
    assert (out.imu_noise, out.kp_noise, out.seed) == (
        a.imu_noise, a.kp_noise, a.seed)


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

def _project_per_frame(joints, c, fwd, right, up):
    """Reference: one scalar dot product per (frame, joint, axis)."""
    w_px, h_px = synth.RESOLUTION
    uv = np.empty(joints.shape[:2] + (2,))
    for k in range(joints.shape[0]):
        for j in range(joints.shape[1]):
            d = joints[k, j] - c
            depth = float(d @ fwd)
            uv[k, j, 0] = w_px / 2 + synth.FOCAL_PX * float(d @ right) / depth
            uv[k, j, 1] = h_px / 2 - synth.FOCAL_PX * float(d @ up) / depth
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
    for a, b in ((imu.acc, imu_r.acc), (imu.gyro, imu_r.gyro)):
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
    """Counts the streams whose attitude the gait chain scans, one entry per
    stream of each ahrs_streams batch (the chain is its one caller)."""
    calls = []
    real = gait.ahrs_streams

    def counted(imus):
        calls.extend(len(imu) for imu in imus)
        return real(imus)
    monkeypatch.setattr(gait, "ahrs_streams", counted)
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

    def spy(batch):
        attempts.extend(bool(imu_valid.all()) for *_, imu_valid, _ in batch)
        return real(batch)
    monkeypatch.setattr(protocol, "attempt_scores", spy)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["evaluate", "--config", str(cfg), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 0
    # one attempt per trial, each scoring one IMU view (nothing stayed lost)
    assert attempts == [True] * (2 * (1 + 3))
    assert len(ahrs_calls) == 2 * 4 + len(attempts)


# --- a command run computes each walk once ---------------------------------------

def _walk_captures(cam, clock_offset, duration):
    """Sessions of two subjects at several seed offsets, then one capture
    of each attack."""
    a, b = make_cohort(2, seed=9)
    sessions = [generate_session(p, cam, duration, clock_offset,
                                 seed_offset=k)
                for p in (a, b) for k in (0, 1, 7)]
    return sessions + [
        generate_attack(spec, cam, duration, clock_offset, seed_offset=5)
        for spec in (RelayAttack(a, b), HijackAttack(b),
                     MimicryAttack(b, a, 0.5))]


def _capture_bytes(capture):
    imu, kp, gt = capture
    arrays = (imu.t, imu.acc, imu.gyro, kp.t, kp.uv, kp.conf, gt.clean.t,
              gt.clean.acc, gt.clean.gyro)
    return ([a.tobytes() for a in arrays], gt.clock_offset,
            gt.cycle_boundaries)


# (camera, clock offset, duration): two cameras and frame rates, and walks
# that differ only in their clock offset or only in their duration
WALK_CASES = [(CameraModel(fps=30.0, horizontal_distance=12.0), 0.08, 4.0),
              (CameraModel(horizontal_angle=30.0), 0.08, 4.0),
              (CameraModel(horizontal_angle=30.0), 0.0, 4.0),
              (CameraModel(horizontal_angle=30.0), 0.08, 3.5)]


def test_sessions_of_shared_walks_equal_one_shot_sessions(ahrs_calls):
    one_shot = [_capture_bytes(c) for case in WALK_CASES
                for c in _walk_captures(*case)]
    assert len(ahrs_calls) == 9 * len(WALK_CASES)
    with synth.shared_walks():
        shared = [c for case in WALK_CASES for c in _walk_captures(*case)]
    assert [_capture_bytes(c) for c in shared] == one_shot
    # three walks per case (a, b and the mimicry blend), each segmented once
    assert len({id(gt) for _, _, gt in shared}) == 3 * len(WALK_CASES)
    assert len(ahrs_calls) == 12 * len(WALK_CASES)


def test_shared_walk_is_read_only_and_sessions_own_their_noise():
    p = SubjectParams(seed=4)
    with synth.shared_walks():
        imu, kp, gt = generate_session(p, duration=4.0, seed_offset=0)
        for a in (imu.t, kp.t, gt.clean.t, gt.clean.acc, gt.clean.gyro):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        with pytest.raises(AttributeError):
            gt.clock_offset = 1.0
        imu.acc[:] = 0.0
        kp.uv[:] = 0.0
        later = generate_session(p, duration=4.0, seed_offset=1)
        assert later[2] is gt
    one_shot = generate_session(p, duration=4.0, seed_offset=1)
    assert _capture_bytes(later) == _capture_bytes(one_shot)
    assert gt.clean.acc.tobytes() == one_shot[2].clean.acc.tobytes()


@pytest.fixture
def walks_built(monkeypatch):
    """Counts the walks synthesized (one phone attitude track each) and
    the sessions recorded."""
    counts = {"walks": 0, "sessions": 0}
    quaternions, session = synth._phone_quaternions, synth.generate_session

    def counted_walk(*args):
        counts["walks"] += 1
        return quaternions(*args)

    def counted_session(*args, **kwargs):
        counts["sessions"] += 1
        return session(*args, **kwargs)
    monkeypatch.setattr(synth, "_phone_quaternions", counted_walk)
    monkeypatch.setattr(synth, "generate_session", counted_session)
    monkeypatch.setattr(cli, "generate_session", counted_session)
    return counts


def test_evaluate_builds_each_walk_once_per_run(tmp_path, walks_built):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"cohort_size": 2, "enroll_sessions": 6,
                               "genuine_trials": 2, "attack_trials": 1,
                               "loss_rate": 0.3}))
    args = ["evaluate", "--config", str(cfg), "--seed", "5", "--out"]
    assert main(args + [str(tmp_path / "a")]) == 0
    # 12 enrollment sessions, 4 genuine captures and 8 attack recordings
    # (relay 2, hijack 1, mimicry 1 per victim) from 4 walks: the two
    # subjects' and the two mimicry blends'
    assert walks_built == {"walks": 4, "sessions": 24}
    # the next run computes its own walks
    assert main(args + [str(tmp_path / "b")]) == 0
    assert walks_built == {"walks": 8, "sessions": 48}


def test_synth_segments_each_subject_walk_once(tmp_path, ahrs_calls):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"cohort_size": 3, "sessions_per_subject": 6,
                               "duration": 4.0}))
    assert main(["synth", "--config", str(cfg),
                 "--out", str(tmp_path / "data")]) == 0
    assert len(ahrs_calls) == 3
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    for subject in manifest["subjects"]:
        cuts = [s["cycle_boundaries"] for s in subject["sessions"]]
        assert len(cuts) == 6 and cuts == cuts[:1] * 6
