"""End-to-end pipeline: speed channels, enrollment, and scoring."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from syncgait import features, gait, pipeline, posture
from syncgait.classify import serialize_model
from syncgait.errors import (DegenerateSeries, SeriesTooShort,
                             SyncGaitError, TooFewSamples)
from syncgait.gait import imu_chains
from syncgait.pipeline import (Capture, calibrate_keypoints,
                               consistency_score, consistency_vector, enroll,
                               enroll_subjects, gait_score, imu_speed_channel,
                               imu_speed_channels, video_speed_channel,
                               video_speed_channels)
from syncgait.protocol import (ChannelModel, _received_imu,
                               _received_keypoints, inject_loss)
from syncgait.series import JOINT_INDEX, ImuSeries, KeypointSeries
from syncgait.syncing import ClockOffsetEstimate
from syncgait.synth import (CameraModel, HijackAttack, RelayAttack,
                            SubjectParams, generate_attack, generate_session,
                            make_cohort)

OFFSET = 0.08
EST = ClockOffsetEstimate.known(OFFSET)


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
    return enroll(sessions)


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
    [chain] = imu_chains([session[0]])
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
    [pair] = pipeline._aligned_pairs([Capture(imu_chains([imu])[0], kp, EST)])
    r = np.corrcoef(pair.imu_speed, pair.video_speed)[0, 1]
    assert r > 0.6


def test_video_speed_flags_missing_frames(session):
    _, kp, _ = session
    _, valid = video_speed_channel(kp)
    assert valid.all()


def test_calibrated_arm_track_and_mask(session):
    _, kp, _ = session
    conf = kp.conf.copy()
    wrist = JOINT_INDEX[pipeline.PHONE_WRIST]
    conf[100:110, wrist] = 0.0
    wrist, measured = calibrate_keypoints(
        KeypointSeries(kp.t, kp.uv, conf, kp.frame_rate))
    assert wrist.shape == (len(kp), 2)
    assert measured.shape == (len(kp),)
    assert not measured[100:110].any()
    assert measured[:100].all() and measured[110:].all()
    assert np.isfinite(wrist).all()


def test_calibrate_keypoints_of_three_frames_raises(session):
    _, kp, _ = session
    with pytest.raises(SeriesTooShort):
        calibrate_keypoints(KeypointSeries(kp.t[:3], kp.uv[:3], kp.conf[:3],
                                           kp.frame_rate))


def test_consistency_vector_sensible_for_genuine_pair(session):
    imu, kp, _ = session
    vec = consistency_vector(imu, kp, EST)
    assert vec.pcc > 0.55
    assert vec.coh > 0.8
    # the named vector is the pair's row of the feature array
    row = features.compute_features(
        pipeline._aligned_pairs([Capture(imu_chains([imu])[0], kp, EST)]))
    assert vec.as_array().tobytes() == row[0].tobytes()


def test_wrong_offset_breaks_consistency(session):
    imu, kp, _ = session
    good = consistency_vector(imu, kp, EST)
    bad = consistency_vector(imu, kp, ClockOffsetEstimate.known(OFFSET + 0.45))
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
    # gain caches gain entries), then A again from the same sessions under
    # another seed, in one process: A's serialized models are byte-identical
    # both times, since enrollment draws no random numbers
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
    assert models(enroll(sessions_a, seed=7)) == first


def _spy_column_wise_stages(monkeypatch) -> list:
    """(stage name, values shape) of each wavelet_denoise, adct_smooth and
    adaptive_bandpass call the IMU and video chains make, in call order."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(s, *args):
            calls.append((name, s.values.shape))
            return real(s, *args)
        monkeypatch.setattr(module, name, counted)
    spy(gait, "wavelet_denoise")
    spy(pipeline, "adct_smooth")
    spy(pipeline, "adaptive_bandpass")
    return calls


def test_each_stream_makes_one_call_per_column_wise_stage(subject, session,
                                                          monkeypatch):
    imu, kp, _ = session
    calls = _spy_column_wise_stages(monkeypatch)
    imu_chains([imu])
    assert calls == [("wavelet_denoise", (len(imu), 6))]
    calls.clear()
    video_speed_channel(kp)
    # the wrist's two columns, the torso length, the wrist velocity
    assert calls == [("adct_smooth", (len(kp), 2)),
                     ("adct_smooth", (len(kp), 1)),
                     ("adaptive_bandpass", (len(kp), 2))]

    # an enrollment of m same-shape sessions makes each call once, over the
    # columns of all m streams
    m = 3
    sessions = [generate_session(subject, clock_offset=OFFSET,
                                 seed_offset=300 + k)[:2] + (EST,)
                for k in range(m)]
    calls.clear()
    enroll(sessions)
    n, frames = len(sessions[0][0]), len(sessions[0][1])
    assert Counter(calls) == Counter({
        ("wavelet_denoise", (n, 6 * m)): 1,
        ("adaptive_bandpass", (n, 3 * m)): 1,
        ("adct_smooth", (frames, 2 * m)): 1,
        ("adct_smooth", (frames, m)): 1,
        ("adaptive_bandpass", (frames, 2 * m)): 1})

    # mixed shapes: one call per (length, rate) group
    mixed = [generate_session(subject, CameraModel(fps=fps), duration,
                              OFFSET, seed_offset=310 + k)[:2] + (EST,)
             for k, (duration, fps) in enumerate(
                 [(6.0, 60.0), (8.0, 30.0), (6.0, 60.0), (8.0, 60.0)])]
    calls.clear()
    enroll(mixed)
    assert Counter(calls) == Counter({
        ("wavelet_denoise", (600, 12)): 1, ("wavelet_denoise", (800, 12)): 1,
        ("adaptive_bandpass", (600, 6)): 1,
        ("adaptive_bandpass", (800, 6)): 1,
        ("adct_smooth", (360, 4)): 1, ("adct_smooth", (360, 2)): 1,
        ("adaptive_bandpass", (360, 4)): 1,
        ("adct_smooth", (240, 2)): 1, ("adct_smooth", (240, 1)): 1,
        ("adaptive_bandpass", (240, 2)): 1,
        ("adct_smooth", (480, 2)): 1, ("adct_smooth", (480, 1)): 1,
        ("adaptive_bandpass", (480, 2)): 1})


def _mixed_batch(subject):
    """IMU streams of 6 s and 8 s, keypoint tracks at 30 and 60 fps in
    interleaved order, one track with gated (occluded) wrist and elbow
    frames and one received IMU view with lost samples filled."""
    specs = [(6.0, 60.0), (8.0, 30.0), (8.0, 60.0), (8.0, 60.0), (6.0, 30.0),
             (8.0, 30.0)]
    imus, kps = [], []
    for k, (duration, fps) in enumerate(specs):
        imu, kp, _ = generate_session(subject, CameraModel(fps=fps), duration,
                                      OFFSET, seed_offset=500 + k)
        imus.append(imu)
        kps.append(kp)
    conf = kps[2].conf.copy()
    conf[100:130, [JOINT_INDEX["wrist_r"], JOINT_INDEX["elbow_r"]]] = 0.0
    kps[2] = KeypointSeries(kps[2].t, kps[2].uv, conf, kps[2].frame_rate)
    valid = np.ones(len(imus[3]), dtype=bool)
    valid[200:260] = valid[500:520] = False
    imus[3] = _received_imu(imus[3], valid)
    return imus, kps


def test_batched_chains_equal_one_stream_at_a_time(subject):
    imus, kps = _mixed_batch(subject)
    chains = imu_chains(imus)
    for imu, chain in zip(imus, chains):
        [alone] = imu_chains([imu])
        for name in ("t", "acc", "gyro"):
            assert (getattr(chain.denoised, name).tobytes()
                    == getattr(alone.denoised, name).tobytes())
        assert chain.a_world.tobytes() == alone.a_world.tobytes()
    for chain, speed in zip(chains, imu_speed_channels(chains)):
        alone = imu_speed_channel(chain)
        assert (speed.t0, speed.rate) == (alone.t0, alone.rate)
        assert speed.values.tobytes() == alone.values.tobytes()
    for kp, (speed, valid) in zip(kps, video_speed_channels(kps)):
        alone, alone_valid = video_speed_channel(kp)
        assert (speed.t0, speed.rate) == (alone.t0, alone.rate)
        assert speed.values.tobytes() == alone.values.tobytes()
        assert valid.tobytes() == alone_valid.tobytes()
    assert not video_speed_channels(kps)[2][1][100:130].any()


def _faulty(session, fault):
    """The session with a subnormal-wide wrist column or an IMU stream too
    short to denoise."""
    imu, kp, offset = session
    if fault == "subnormal":
        uv = kp.uv.copy()
        uv[:, JOINT_INDEX["wrist_r"], 0] = np.resize([0.0, 5e-324], len(uv))
        return imu, KeypointSeries(kp.t, uv, kp.conf, kp.frame_rate), offset
    return ImuSeries(imu.t[:10], imu.acc[:10], imu.gyro[:10],
                     sample_rate=imu.sample_rate), kp, offset


@pytest.mark.parametrize("fault, error", [("subnormal", DegenerateSeries),
                                          ("short_imu", SeriesTooShort)])
def test_a_faulty_session_among_good_ones_raises_its_named_error(
        subject, fault, error):
    sessions = [generate_session(subject, clock_offset=OFFSET,
                                 seed_offset=400 + k)[:2] + (EST,)
                for k in range(4)]
    sessions[2] = _faulty(sessions[2], fault)
    with pytest.raises(error):
        enroll(sessions)


def test_several_faulty_sessions_raise_the_earliest_stage_error(subject):
    # the IMU chain runs for every session before the video chain, so a
    # later session's short IMU wins over an earlier session's keypoints
    sessions = [generate_session(subject, clock_offset=OFFSET,
                                 seed_offset=400 + k)[:2] + (EST,)
                for k in range(3)]
    sessions[0] = _faulty(sessions[0], "subnormal")
    sessions[2] = _faulty(sessions[2], "short_imu")
    with pytest.raises(SeriesTooShort):
        enroll(sessions)


def test_enroll_of_no_sessions_is_too_few_samples():
    with pytest.raises(TooFewSamples):
        enroll([])


def _captures(sessions):
    """The `Capture` of each `(imu, kp, offset)` session."""
    return [Capture(imu, kp, offset) for imu, kp, offset in sessions]


def test_a_capture_is_refused_when_built_without_a_required_field(session):
    # the streams and the offset are required, the rest only by name; a
    # built capture is not edited in place
    imu, kp, _ = session
    with pytest.raises(TypeError, match="offset"):
        Capture(imu, kp)
    with pytest.raises(TypeError):
        Capture(imu, kp, EST, np.ones(len(imu), dtype=bool))
    capture = Capture(imu, kp, EST)
    assert (capture.imu_valid, capture.kp_valid, capture.enrollment) == (
        None, None, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        capture.offset = ClockOffsetEstimate.known(0.0)


def test_enroll_subjects_gives_each_subject_what_enroll_gives_alone(subject):
    # 6 sessions of 8 s, 7 of 10 s and 6 of 8 s: two length groups
    cohort = [[generate_session(s, duration=duration, clock_offset=OFFSET,
                                seed_offset=600 + k)[:2] + (EST,)
               for k in range(count)]
              for s, count, duration in zip(make_cohort(3, seed=17),
                                            (6, 7, 6), (8.0, 10.0, 8.0))]
    enrollments = enroll_subjects([_captures(own) for own in cohort])
    assert len(enrollments) == len(cohort)
    for sessions, batched in zip(cohort, enrollments):
        alone = enroll(sessions)
        for model in ("consistency_model", "gait_model"):
            assert (serialize_model(getattr(batched, model))
                    == serialize_model(getattr(alone, model)))
        assert batched.feature_mask.tolist() == alone.feature_mask.tolist()
        assert (batched.fisher.normalized.tobytes()
                == alone.fisher.normalized.tobytes())
    assert enroll_subjects([]) == []
    # one short session trains nothing alone, and sinks the batch it sits in
    few = [generate_session(subject, clock_offset=OFFSET,
                            duration=3.5)[:2] + (EST,)]
    with pytest.raises(TooFewSamples):
        enroll(few)
    with pytest.raises(TooFewSamples):
        enroll_subjects([_captures(own) for own in (cohort[0], few,
                                                    cohort[2])])


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
    spy(features, "_spectra", lambda a, b, imu: b.shape)
    spy(pipeline, "compute_features",
        lambda pairs: Counter(len(p.imu_speed) for p in pairs))
    posture._butter_band.cache_clear()
    enroll(sessions)
    # one design per rate: the IMU's 100 Hz and the video's 60 fps
    assert len(calls["butter"]) == len(set(calls["butter"])) == 2
    # one spectra call per pair length, with a row for each pair of it
    [pairs_per_length] = calls["compute_features"]
    rows = {n: m for m, n in calls["_spectra"]}
    assert len(rows) == len(calls["_spectra"]) > 1
    assert rows == pairs_per_length


def _lost_chunks(kp, rng, share=0.3, per=6):
    """The receiver's view of kp after the channel lost each 0.1 s chunk
    (6 frames at 60 fps) with probability `share`."""
    got, _ = inject_loss(-(-len(kp) // per), ChannelModel(loss_rate=share),
                         rng)
    return _received_keypoints(kp, np.repeat(got, per)[:len(kp)])


def _passes(enrollment, imu, kp):
    try:
        return consistency_score(enrollment, imu, kp, EST) >= 0
    except SyncGaitError:       # a capture that cannot align is rejected
        return False


def test_keypoint_views_that_lost_30pct_of_chunks_pass_consistency():
    # the whole arm is lost for 0.1 s at a time: linear interpolation of
    # the wrist across the lost chunks keeps 15 or more of the 18 genuine
    # captures, and relays stay rejected
    cohort = make_cohort(6, seed=11)
    genuine = relay = 0
    for v, victim in enumerate(cohort):
        enrollment = enroll([generate_session(victim, clock_offset=OFFSET,
                                              seed_offset=10 + k)[:2] + (EST,)
                             for k in range(8)])
        for k in range(3):
            imu, kp, _ = generate_session(victim, clock_offset=OFFSET,
                                          seed_offset=60 + k)
            genuine += _passes(enrollment, imu, _lost_chunks(
                kp, np.random.default_rng(1000 * v + k)))
        for j in range(1, 4):
            imu, kp, _ = generate_attack(
                RelayAttack(victim, cohort[(v + j) % 6]),
                clock_offset=OFFSET, seed_offset=900 + 10 * v + j)
            relay += _passes(enrollment, imu, _lost_chunks(
                kp, np.random.default_rng(7000 + 10 * v + j)))
    assert genuine >= 15
    assert relay == 0
