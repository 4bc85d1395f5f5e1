"""End-to-end pipeline: speed channels, enrollment, and scoring."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from syncgait import features, gait, pipeline, posture
from syncgait.classify import serialize_model
from syncgait.errors import SeriesTooShort, TooFewSamples
from syncgait.gait import imu_chain
from syncgait.pipeline import (aligned_speeds, calibrate_keypoints,
                               consistency_score, consistency_vector, enroll,
                               gait_score, imu_speed_channel,
                               video_speed_channel)
from syncgait.series import JOINT_INDEX, KeypointSeries
from syncgait.syncing import ClockOffsetEstimate
from syncgait.synth import (CameraModel, HijackAttack, RelayAttack,
                            SubjectParams, generate_attack, generate_session,
                            make_cohort)

OFFSET = 0.08
EST = ClockOffsetEstimate(OFFSET, 1e-6, 0.005)


@pytest.fixture(scope="module")
def subject():
    return SubjectParams(seed=41)


@pytest.fixture(scope="module")
def session(subject):
    imu, kp, gt = generate_session(subject, clock_offset=OFFSET,
                                   seed_offset=7)
    return imu, kp, gt


@pytest.fixture(scope="module")
def enrollment(subject):
    sessions = []
    for k in range(12):
        imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                      seed_offset=200 + k)
        sessions.append((imu, kp, EST))
    return enroll(sessions, seed=0)


def test_imu_speed_channel_is_periodic_at_gait_rate(session, subject):
    imu, _, _ = session
    s = imu_speed_channel(imu)
    assert len(s) == len(imu)
    # the rectified swing speed oscillates at twice the cycle rate
    spec = np.abs(np.fft.rfft(s.values - s.values.mean()))
    freqs = np.fft.rfftfreq(len(s), d=1.0 / s.rate)
    dom = freqs[np.argmax(spec[1:]) + 1]
    assert dom == pytest.approx(2.0 / subject.cycle_period, abs=0.15)


@pytest.mark.parametrize("psi", [0.3, 1.5, 3.0])
def test_imu_speed_channel_ignores_a_turn_about_the_vertical(session, psi):
    chain = imu_chain(session[0])
    c, s = np.cos(psi), np.sin(psi)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    turned = dataclasses.replace(chain, a_world=chain.a_world @ rz.T)
    # exact in exact arithmetic; the band-pass's transfer-function form
    # turns the turn's rounding into about 3e-6 of the z-scored speed
    np.testing.assert_allclose(imu_speed_channel(turned).values,
                               imu_speed_channel(chain).values,
                               rtol=0, atol=1e-5)


def test_video_speed_channel_matches_imu_channel(session):
    imu, kp, _ = session
    pair = aligned_speeds(imu, kp, EST)
    r = np.corrcoef(pair.imu_speed, pair.video_speed)[0, 1]
    assert r > 0.6


def test_video_speed_flags_missing_frames(session):
    _, kp, _ = session
    _, valid = video_speed_channel(kp)
    assert valid.all()


def test_calibrated_arm_track_and_mask(session):
    _, kp, _ = session
    conf = kp.conf.copy()
    wrist = JOINT_INDEX[posture.ARM_CHAIN[0]]
    conf[100:110, wrist] = 0.0
    track, measured = calibrate_keypoints(
        KeypointSeries(kp.t, kp.uv, conf, kp.frame_rate))
    assert track.shape == (len(kp), len(posture.ARM_CHAIN), 2)
    assert measured.shape == (len(kp), len(posture.ARM_CHAIN))
    assert not measured[100:110, 0].any()
    assert measured[:, 1:].all() and measured[:100, 0].all()
    assert np.isfinite(track).all()


def test_calibrate_keypoints_of_three_frames_raises(session):
    _, kp, _ = session
    with pytest.raises(SeriesTooShort):
        calibrate_keypoints(KeypointSeries(kp.t[:3], kp.uv[:3], kp.conf[:3],
                                           kp.frame_rate))


def test_consistency_vector_sensible_for_genuine_pair(session):
    imu, kp, _ = session
    vec = consistency_vector(imu, kp, EST)
    assert vec.pcc > 0.55
    assert vec.sync_lag_score > 0.8
    # the named vector is the pair's row of the feature array
    row = features.compute_features([aligned_speeds(imu, kp, EST)])
    assert vec.as_array().tobytes() == row[0].tobytes()


def test_wrong_offset_breaks_consistency(session):
    imu, kp, _ = session
    good = consistency_vector(imu, kp, EST)
    bad = consistency_vector(imu, kp, ClockOffsetEstimate(OFFSET + 0.45,
                                                          1e-6, 0.005))
    assert bad.pcc < good.pcc - 0.2


def test_enrollment_selects_alignment_features(enrollment):
    # the Fisher mask must keep at least two features, and the selection
    # must favour features that separate aligned from shifted pairs
    assert enrollment.feature_mask.sum() >= 2
    assert enrollment.fisher is not None
    assert enrollment.fisher.normalized.max() == pytest.approx(1.0)


def test_genuine_scores_positive(enrollment, subject):
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=999)
    assert consistency_score(enrollment, imu, kp, EST) >= 0
    assert gait_score(enrollment, imu) >= 0


def test_relay_attack_fails_consistency_passes_gait(enrollment, subject):
    decoy = make_cohort(4, seed=77)[0]
    imu, kp, _ = generate_attack(RelayAttack(subject, decoy),
                                 clock_offset=OFFSET, seed_offset=5)
    assert consistency_score(enrollment, imu, kp, EST) < 0
    assert gait_score(enrollment, imu) >= 0     # it is the victim's own IMU


def test_hijack_attack_passes_consistency_fails_gait(enrollment):
    attacker = make_cohort(4, seed=78)[2]
    imu, kp, _ = generate_attack(HijackAttack(attacker),
                                 clock_offset=OFFSET, seed_offset=6)
    assert consistency_score(enrollment, imu, kp, EST) >= 0
    assert gait_score(enrollment, imu) < 0


def test_enroll_requires_enough_windows(subject):
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET, duration=3.5)
    with pytest.raises(TooFewSamples):
        enroll([(imu, kp, EST)])


def test_no_state_carries_over_between_enrollments():
    # A, then B (filmed at another frame rate, so the per-rate filter and
    # gain caches gain entries), then A again from the same sessions, in one
    # process: A's serialized models are byte-identical both times
    a, b = make_cohort(2, seed=31)

    def sessions(subject, cam):
        return [generate_session(subject, cam, clock_offset=OFFSET,
                                 seed_offset=300 + k)[:2] + (EST,)
                for k in range(6)]

    def models(enrollment):
        return [serialize_model(enrollment.consistency_model),
                serialize_model(enrollment.gait_model)]

    sessions_a = sessions(a, CameraModel())
    first = models(enroll(sessions_a, seed=0))
    enroll(sessions(b, CameraModel(fps=30.0)), seed=0)
    assert models(enroll(sessions_a, seed=0)) == first


def test_each_stream_makes_one_call_per_column_wise_stage(session,
                                                          monkeypatch):
    imu, kp, _ = session
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(s, *args):
            calls.append((name, s.values.shape))
            return real(s, *args)
        monkeypatch.setattr(module, name, counted)
    spy(gait, "wavelet_denoise")
    spy(pipeline, "adct_smooth")
    imu_chain(imu)
    assert calls == [("wavelet_denoise", (len(imu), 6))]
    calls.clear()
    video_speed_channel(kp)
    # the six arm columns, then the torso scale
    assert calls == [("adct_smooth", (len(kp), 6)), ("adct_smooth", (len(kp),))]


def test_enroll_designs_each_filter_once_and_batches_the_spectra(
        subject, monkeypatch):
    sessions = [generate_session(subject, duration=6.0 + 2 * (k % 2),
                                 clock_offset=OFFSET,
                                 seed_offset=300 + k)[:2] + (EST,)
                for k in range(4)]
    calls = {"butter": [], "_spectra": [], "compute_features": []}

    def spy(module, name, record):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name].append(record(*args))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    spy(posture, "butter", lambda order, band, *_: tuple(band))
    spy(features, "_spectra", lambda a, b: a.shape)
    spy(pipeline, "compute_features",
        lambda pairs: Counter(len(p.imu_speed) for p in pairs))
    posture._butter_band.cache_clear()
    enroll(sessions, seed=0)
    # one design per rate: the IMU's 100 Hz and the video's 60 fps
    assert len(calls["butter"]) == len(set(calls["butter"])) == 2
    # one spectra call per pair length, with a row for each pair of it
    [pairs_per_length] = calls["compute_features"]
    rows = {n: m for m, n in calls["_spectra"]}
    assert len(rows) == len(calls["_spectra"]) > 1
    assert rows == pairs_per_length
