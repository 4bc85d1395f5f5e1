"""End-to-end pipeline: speed channels, enrollment, and scoring."""

import numpy as np
import pytest

from syncgait import features, posture
from syncgait.errors import TooFewSamples
from syncgait.pipeline import (aligned_speeds, consistency_score,
                               consistency_vector, enroll, gait_score,
                               imu_speed_channel, video_speed_channel)
from syncgait.syncing import ClockOffsetEstimate
from syncgait.synth import (HijackAttack, RelayAttack, SubjectParams,
                            generate_attack, generate_session, make_cohort)

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


def test_video_speed_channel_matches_imu_channel(session):
    imu, kp, _ = session
    pair = aligned_speeds(imu, kp, EST)
    r = np.corrcoef(pair.imu_speed, pair.video_speed)[0, 1]
    assert r > 0.6


def test_video_speed_flags_missing_frames(session):
    _, kp, _ = session
    _, valid = video_speed_channel(kp)
    assert valid.all()


def test_consistency_vector_sensible_for_genuine_pair(session):
    imu, kp, _ = session
    vec = consistency_vector(imu, kp, EST)
    assert vec.pcc > 0.55
    assert vec.sync_lag_score > 0.8


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


def test_enroll_designs_each_filter_once_and_batches_the_spectra(
        subject, monkeypatch):
    sessions = [generate_session(subject, duration=6.0 + 2 * (k % 2),
                                 clock_offset=OFFSET,
                                 seed_offset=300 + k)[:2] + (EST,)
                for k in range(4)]
    calls = {"butter": [], "welch": [], "csd": []}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name].append(tuple(args[1]) if name == "butter"
                               else np.shape(args[0]))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    spy(posture, "butter")
    spy(features, "welch")
    spy(features, "csd")
    posture._butter_band.cache_clear()
    enroll(sessions, seed=0)
    # one design per (band, rate): the IMU's 100 Hz and the video's 60 fps
    assert len(calls["butter"]) == len(set(calls["butter"])) == 2
    # one cross-spectrum per pair length, one Welch pass per length and side
    lengths = [shape[-1] for shape in calls["csd"]]
    assert len(lengths) == len(set(lengths)) <= 1 + len(sessions)
    assert sorted(shape[-1] for shape in calls["welch"]) == sorted(2 * lengths)
    assert calls["welch"][:2] == calls["csd"][:1] * 2
