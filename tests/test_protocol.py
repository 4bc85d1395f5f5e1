"""Lossy-channel model, retransmission, and the session state machine."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syncgait import gait as gait_module
from syncgait import pipeline, protocol
from syncgait.errors import EnrollmentMissing, SyncGaitError
from syncgait.protocol import (ARQ_ROUNDS, ChannelModel, SessionConfig,
                               SessionState, _received_imu,
                               _received_keypoints, attempt_scores,
                               exchange_with_arq, inject_loss, run_session)
from syncgait.pipeline import (Enrollment, consistency_score, enroll,
                               gait_score)
from syncgait.series import JOINT_INDEX, ImuSeries, KeypointSeries
from syncgait.syncing import ClockOffsetEstimate
from syncgait.synth import (CameraModel, RelayAttack, SubjectParams,
                            generate_attack, generate_session, make_cohort)


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(loss_rate=1.0)     # only [0, 0.6] supported
    with pytest.raises(ValueError):
        ChannelModel(loss_rate=-0.1)


def test_inject_loss_binomial_delivery():
    # 1000 chunks at loss 0.5: delivered count within 500 +/- 50
    rng = np.random.default_rng(77)
    got, arrivals = inject_loss(1000, ChannelModel(loss_rate=0.5), rng)
    assert got.shape == (1000,) and got.dtype == bool
    assert 450 <= got.sum() <= 550
    assert len(arrivals) == got.sum()


def test_inject_loss_lossless_keeps_everything_in_order():
    rng = np.random.default_rng(0)
    got, arrivals = inject_loss(100, ChannelModel(loss_rate=0.0), rng)
    assert got.all() and len(arrivals) == 100
    assert (np.diff(arrivals) >= 0).all()        # in-order delivery
    assert (arrivals >= 0).all()


def test_exchange_with_arq_completes_under_heavy_loss():
    rng = np.random.default_rng(5)
    got, rounds = exchange_with_arq(200, ChannelModel(loss_rate=0.6), rng)
    assert got.shape == (200,) and got.all()
    assert 1 <= rounds <= ARQ_ROUNDS


def test_exchange_with_arq_no_loss_uses_no_rounds():
    rng = np.random.default_rng(5)
    got, rounds = exchange_with_arq(50, ChannelModel(loss_rate=0.0), rng)
    assert got.shape == (50,) and got.all()
    assert rounds == 0


# --- full sessions -----------------------------------------------------------

OFFSET = 0.08


@pytest.fixture(scope="module")
def enrolled_subject():
    subject = SubjectParams(seed=21)
    est = ClockOffsetEstimate(OFFSET, 1e-6, 0.005)
    sessions = []
    for k in range(12):
        imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                      seed_offset=100 + k)
        sessions.append((imu, kp, est))
    return subject, enroll(sessions, seed=0)


def _session_sources(subject, seed_offset=500):
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=seed_offset)
    return (lambda attempt: imu), (lambda attempt: kp)


def test_genuine_session_accepted(enrolled_subject):
    subject, enrollment = enrolled_subject
    cfg = SessionConfig(clock_offset=OFFSET)
    imu_src, kp_src = _session_sources(subject)
    result = run_session(cfg, enrollment, imu_src, kp_src, seed=1)
    assert result.state == SessionState.ACCEPTED
    assert result.record is not None and result.record.accepted
    assert result.record.gait_pass and result.record.consistency_pass
    # the tracked offset is close to the configured true offset
    tracked = [e["detail"]["offset"] for e in result.transcript
               if e["event"] == "offset_tracked"]
    assert tracked[-1] == pytest.approx(OFFSET, abs=0.005)


def test_genuine_session_survives_loss(enrolled_subject):
    subject, enrollment = enrolled_subject
    cfg = SessionConfig(clock_offset=OFFSET,
                        channel=ChannelModel(loss_rate=0.5))
    imu_src, kp_src = _session_sources(subject, seed_offset=501)
    result = run_session(cfg, enrollment, imu_src, kp_src, seed=2)
    assert result.state == SessionState.ACCEPTED


def test_impostor_gait_rejected(enrolled_subject):
    _, enrollment = enrolled_subject
    impostor = SubjectParams(cycle_period=1.1, swing_amplitude=0.55, seed=99)
    cfg = SessionConfig(clock_offset=OFFSET)
    imu_src, kp_src = _session_sources(impostor, seed_offset=502)
    result = run_session(cfg, enrollment, imu_src, kp_src, seed=3)
    assert result.state == SessionState.FAILED
    assert result.record is not None and not result.record.gait_pass


@pytest.mark.parametrize("n", [3, 16, 20, 27, 28])
@pytest.mark.parametrize("stream", ["imu", "keypoints"])
def test_short_stream_fails_the_session_with_a_named_reason(
        enrolled_subject, stream, n):
    # too short to band-pass: the attempt fails on a SyncGaitError, never
    # on a raw scipy ValueError that run_session would not catch
    subject, enrollment = enrolled_subject
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=503)
    if stream == "imu":
        imu = ImuSeries(imu.t[:n], imu.acc[:n], imu.gyro[:n], imu.mag[:n],
                        imu.sample_rate)
    else:
        kp = KeypointSeries(kp.t[:n], kp.uv[:n], kp.conf[:n], kp.frame_rate)
    cfg = SessionConfig(clock_offset=OFFSET, max_attempts=1)
    result = run_session(cfg, enrollment, lambda a: imu, lambda a: kp, seed=5)
    assert result.state == SessionState.FAILED
    failed = [e for e in result.transcript if e["event"] == "attempt_failed"]
    assert [e["detail"]["reason"] for e in failed] in (
        ["SeriesTooShort"], ["InsufficientOverlap"])


def test_one_pass_scores_equal_per_view_scores_on_partial_views(
        enrolled_subject):
    subject, enrollment = enrolled_subject
    est = ClockOffsetEstimate(OFFSET, 1e-6, 0.005)
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=506)
    # IMU chunk 20 and keypoint chunks 30-31 (0.1 s each) lost
    imu_valid = np.ones(len(imu), dtype=bool)
    imu_valid[200:210] = False
    kp_valid = np.ones(len(kp), dtype=bool)
    kp_valid[180:192] = False

    drone, phone, gait = attempt_scores(
        enrollment, est, imu, kp, imu_valid, kp_valid)
    assert drone.hex() == consistency_score(
        enrollment, _received_imu(imu, imu_valid), kp, est,
        imu_valid=imu_valid).hex()
    assert phone.hex() == consistency_score(
        enrollment, imu, _received_keypoints(kp, kp_valid), est).hex()
    assert gait.hex() == gait_score(enrollment, imu).hex()
    # the lost chunks do reach the scores
    full = consistency_score(enrollment, imu, kp, est)
    assert drone != full and phone != full


def test_one_pass_scores_equal_per_view_scores_on_complete_views(
        enrolled_subject):
    # nothing lost: the phone's score is the drone's, computed once
    subject, enrollment = enrolled_subject
    est = ClockOffsetEstimate(OFFSET, 1e-6, 0.005)
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=506)
    imu_valid = np.ones(len(imu), dtype=bool)
    drone, phone, gait = attempt_scores(
        enrollment, est, imu, kp, imu_valid, np.ones(len(kp), dtype=bool))
    assert drone.hex() == consistency_score(
        enrollment, imu, kp, est, imu_valid=imu_valid).hex()
    assert phone.hex() == consistency_score(enrollment, imu, kp, est).hex()
    assert gait.hex() == gait_score(enrollment, imu).hex()


@pytest.mark.parametrize("lost, chains, channels", [
    ("nothing", 1, 1), ("imu", 2, 2), ("keypoints", 1, 2)])
def test_an_attempt_prepares_each_stream_once(enrolled_subject, monkeypatch,
                                              lost, chains, channels):
    # a complete attempt runs one IMU chain, one speed channel per stream
    # and one single-pair feature batch; a partial view adds its own chain
    # (IMU lost) and one channel of each stream for the phone's score
    subject, enrollment = enrolled_subject
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=506)
    imu_valid = np.ones(len(imu), dtype=bool)
    kp_valid = np.ones(len(kp), dtype=bool)
    if lost == "imu":
        imu_valid[200:210] = False
    if lost == "keypoints":
        kp_valid[180:192] = False
    calls = {"imu_chain": 0, "imu_speed_channel": 0,
             "video_speed_channel": 0, "compute_features": []}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            if name == "compute_features":
                calls[name].append(len(args[0]))
            else:
                calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    # gait.imu_chain too: a raw stream reaching as_chain would count
    for module, name in ((protocol, "imu_chain"), (gait_module, "imu_chain"),
                         (pipeline, "imu_speed_channel"),
                         (pipeline, "video_speed_channel"),
                         (pipeline, "compute_features")):
        spy(module, name)
    attempt_scores(enrollment, ClockOffsetEstimate(OFFSET, 1e-6, 0.005),
                   imu, kp, imu_valid, kp_valid)
    assert calls == {"imu_chain": chains, "imu_speed_channel": channels,
                     "video_speed_channel": channels,
                     "compute_features": [1] * channels}


def test_session_requires_enrollment():
    cfg = SessionConfig()
    with pytest.raises(EnrollmentMissing):
        run_session(cfg, None, lambda a: None, lambda a: None)


def test_transcript_is_jsonl_and_ordered(enrolled_subject):
    subject, enrollment = enrolled_subject
    cfg = SessionConfig(clock_offset=OFFSET)
    imu_src, kp_src = _session_sources(subject, seed_offset=503)
    result = run_session(cfg, enrollment, imu_src, kp_src, seed=4)
    lines = result.transcript_jsonl().strip().splitlines()
    events = [json.loads(ln) for ln in lines]
    assert events[0]["event"] == "state"
    times = [e["t"] for e in events]
    assert times == sorted(times)
    assert any(e["event"] == "decision" for e in events)


def test_session_deterministic_for_fixed_seed(enrolled_subject):
    subject, enrollment = enrolled_subject
    cfg = SessionConfig(clock_offset=OFFSET,
                        channel=ChannelModel(loss_rate=0.3))
    imu_src, kp_src = _session_sources(subject, seed_offset=504)
    r1 = run_session(cfg, enrollment, imu_src, kp_src, seed=9)
    r2 = run_session(cfg, enrollment, imu_src, kp_src, seed=9)
    assert r1.transcript_jsonl() == r2.transcript_jsonl()
    assert r1.state == r2.state


def test_session_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(max_attempts=0)
    for duration in (1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SessionConfig(sample_duration=duration)


@pytest.mark.parametrize("field", [
    {"max_attempts": True}, {"max_attempts": 2.0}, {"max_attempts": "3"},
    {"clock_offset": float("nan")}, {"clock_offset": float("inf")},
], ids=["bool_attempts", "float_attempts", "str_attempts", "nan_offset",
        "inf_offset"])
def test_session_config_refuses_ill_typed_attempts_and_non_finite_offset(
        field):
    with pytest.raises(ValueError, match=next(iter(field))):
        SessionConfig(**field)


# --- degenerate and degraded streams -----------------------------------------

# an attempt fails on a rejected decision, on no sync exchange or on a
# SyncGaitError, which it names; never on a raw exception or a warning
_FAILURE_REASONS = ({"verification", "no sync exchange"}
                    | {c.__name__ for c in SyncGaitError.__subclasses__()})


@pytest.fixture(scope="module")
def capture():
    """One genuine capture and its subject's enrollment from 6 sessions."""
    subject = make_cohort(2, seed=21)[0]
    est = ClockOffsetEstimate(OFFSET, 1e-6, 0.005)
    sessions = [generate_session(subject, clock_offset=OFFSET,
                                 seed_offset=100 + k)[:2] + (est,)
                for k in range(6)]
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=503)
    return enroll(sessions, seed=0), imu, kp


def _one_attempt(enrollment, imu, kp):
    cfg = SessionConfig(clock_offset=OFFSET, max_attempts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_session(cfg, enrollment, lambda a: imu, lambda a: kp,
                             seed=5)
    reasons = [e["detail"]["reason"] for e in result.transcript
               if e["event"] == "attempt_failed"]
    assert set(reasons) <= _FAILURE_REASONS
    return result, reasons


_DEGENERATE = (SessionState.FAILED, ["DegenerateSeries"])
_ACCEPTED = (SessionState.ACCEPTED, [])


@pytest.mark.parametrize("block, factor, outcome", [
    pytest.param(block, factor, outcome, id=f"{block}-{factor}")
    for block, factor, outcome in [
        ("acc", 0.0, _DEGENERATE), ("acc", 1e-200, _DEGENERATE),
        ("acc", 1e200, _DEGENERATE), ("mag", 0.0, _ACCEPTED),
        ("mag", 1e-200, _ACCEPTED), ("mag", 1e200, _ACCEPTED),
        ("gyro", 1e200, _DEGENERATE), ("uv", 0.0, _DEGENERATE),
        ("uv", 1e200, _DEGENERATE)]])
def test_degenerate_stream_fails_the_session_with_a_named_reason(
        capture, block, factor, outcome):
    # no gravity, frozen keypoints (a flat speed channel) or acc, gyro or
    # keypoint values whose squares overflow: the attempt fails on a named
    # reason; no stage reads the recorded field, so a capture whose field is
    # zero, tiny or huge is accepted
    enrollment, imu, kp = capture
    if block == "uv":
        kp = KeypointSeries(kp.t, kp.uv * factor, kp.conf, kp.frame_rate)
    else:
        blocks = {"acc": imu.acc, "gyro": imu.gyro, "mag": imu.mag}
        blocks[block] = blocks[block] * factor
        imu = ImuSeries(imu.t, sample_rate=imu.sample_rate, **blocks)
    result, reasons = _one_attempt(enrollment, imu, kp)
    assert (result.state, reasons) == outcome


def test_subnormal_keypoint_range_fails_the_session_with_a_named_reason(
        capture):
    # a wrist column a few subnormal steps wide is too narrow for the ADCT
    # histogram's bins: the attempt fails on DegenerateSeries, never on the
    # raw ValueError of the histogram that run_session would not catch
    enrollment, imu, kp = capture
    uv = kp.uv.copy()
    uv[:, JOINT_INDEX["wrist_r"], 0] = np.resize([0.0, 5e-324], len(uv))
    kp = KeypointSeries(kp.t, uv, kp.conf, kp.frame_rate)
    result, reasons = _one_attempt(enrollment, imu, kp)
    assert (result.state, reasons) == _DEGENERATE


@pytest.mark.parametrize("source, angle", [
    *[("genuine", a) for a in (0, 30, 90, 180)], ("relay", 30)])
def test_genuine_capture_is_accepted_from_any_approach(capture, source,
                                                       angle):
    # the enrollment walked at angle 0; the gait check reads phone-frame
    # channels, so the compass heading does not decide a genuine capture;
    # a relay is still rejected (the zero-field capture is a case of the
    # degenerate-stream test above)
    enrollment, _, _ = capture
    victim, decoy = make_cohort(2, seed=21)
    cam = CameraModel(horizontal_angle=angle)
    if source == "relay":
        imu, kp, _ = generate_attack(RelayAttack(victim, decoy), cam,
                                     clock_offset=OFFSET, seed_offset=503)
    else:
        imu, kp, _ = generate_session(victim, cam, clock_offset=OFFSET,
                                      seed_offset=503)
    result, _ = _one_attempt(enrollment, imu, kp)
    assert result.state == (SessionState.ACCEPTED if source == "genuine"
                            else SessionState.FAILED)


_FACTOR = (st.sampled_from([0.0, "constant"])
           | st.integers(-300, 300).map(lambda k: 10.0 ** k))
_STEP = st.one_of(
    st.tuples(st.just("channel"), st.sampled_from(["acc", "gyro", "mag", "uv"]),
              st.sampled_from([0, 1, 2, None]), _FACTOR),
    st.tuples(st.just("truncate"), st.sampled_from(["imu", "kp"]),
              st.integers(3, 800)),
    st.tuples(st.just("shift"), st.sampled_from(["imu", "kp"]),
              st.floats(-100.0, 100.0)),
    st.tuples(st.just("occlude"), st.sets(st.integers(0, 11), min_size=1),
              st.integers(0, 479), st.integers(1, 480)))


def _degraded(imu, kp, steps):
    """The capture with each step applied in turn: a channel (one axis or
    every axis) zeroed, held constant or scaled; a stream truncated or
    shifted in time; joints occluded over a span of frames."""
    a = {"imu_t": imu.t, "acc": imu.acc, "gyro": imu.gyro, "mag": imu.mag,
         "kp_t": kp.t, "uv": kp.uv, "conf": kp.conf}
    a = {k: v.copy() for k, v in a.items()}
    for kind, *arg in steps:
        if kind == "channel":
            block, axis, factor = arg
            cols = slice(None) if axis is None else axis % a[block].shape[-1]
            x = a[block][..., cols]
            with np.errstate(over="ignore"):   # two scalings may overflow
                a[block][..., cols] = (x[:1] if factor == "constant"
                                       else x * factor)
        elif kind == "truncate":
            stream, n = arg
            keys = (("imu_t", "acc", "gyro", "mag") if stream == "imu"
                    else ("kp_t", "uv", "conf"))
            a.update({k: a[k][:n] for k in keys})
        elif kind == "shift":
            a[arg[0] + "_t"] = a[arg[0] + "_t"] + arg[1]
        else:
            joints, i0, i1 = arg
            a["conf"][i0:i1, sorted(joints)] = 0.0
    assume(all(np.isfinite(v).all() for v in a.values()))
    return (ImuSeries(a["imu_t"], a["acc"], a["gyro"], a["mag"],
                      imu.sample_rate),
            KeypointSeries(a["kp_t"], a["uv"], a["conf"], kp.frame_rate))


@given(st.lists(_STEP, min_size=1, max_size=2))
@settings(max_examples=30, deadline=None)
def test_degraded_capture_yields_a_result_with_named_failures(capture, steps):
    # zeroed, constant or 10^k-scaled channels of both streams, truncation,
    # occluded joints and time shifts: run_session returns, with no
    # warning, and every failed attempt names its reason
    enrollment, imu, kp = capture
    result, _ = _one_attempt(enrollment, *_degraded(imu, kp, steps))
    assert result.state in (SessionState.ACCEPTED, SessionState.FAILED)


def test_imu_stream_lost_in_every_round_fails_with_a_named_reason(capture):
    # a 10-sample IMU stream is one chunk; at loss 0.6 this seed loses it in
    # every ARQ round of an attempt, and the drone's empty view ends that
    # attempt on a named reason, not a raw ValueError from the gap filler
    enrollment, imu, kp = capture
    imu = ImuSeries(imu.t[:10], imu.acc[:10], imu.gyro[:10], imu.mag[:10],
                    imu.sample_rate)
    cfg = SessionConfig(clock_offset=OFFSET,
                        channel=ChannelModel(loss_rate=0.6))
    result = run_session(cfg, enrollment, lambda a: imu, lambda a: kp,
                         seed=15180)
    assert any(e["event"] == "imu_received" and e["detail"]["chunks"] == 0
               for e in result.transcript)
    assert result.state == SessionState.FAILED
    assert [e["detail"]["reason"] for e in result.transcript
            if e["event"] == "attempt_failed"] == ["SeriesTooShort"] * 3


@pytest.mark.parametrize("relay_offset, frames, outcome", [
    *[(s, n, "failed") for s in (900, 901, 902) for n in (120, 135, 140, 480)],
    *[(None, n, "InsufficientOverlap") for n in (100, 125, 128, 150, 180)],
    (None, 190, "accepted")])
def test_video_shorter_than_the_minimum_overlap_is_never_accepted(
        capture, relay_offset, frames, outcome):
    # the genuine capture, or a relay of its subject's IMU with the other
    # cohort member's video, cut to `frames` at 60 fps; MIN_OVERLAP_S (3 s)
    # is enrollment's window, and relays cut to 2.25-2.33 s and genuine
    # captures cut to about 2.1 s were accepted under a 2 s minimum
    enrollment, imu, kp = capture
    if relay_offset is not None:
        victim, decoy = make_cohort(2, seed=21)
        imu, kp, _ = generate_attack(RelayAttack(victim, decoy),
                                     clock_offset=OFFSET,
                                     seed_offset=relay_offset)
    kp = KeypointSeries(kp.t[:frames], kp.uv[:frames], kp.conf[:frames],
                        kp.frame_rate)
    result, reasons = _one_attempt(enrollment, imu, kp)
    if outcome == "accepted":
        assert result.state == SessionState.ACCEPTED
    else:
        assert result.state == SessionState.FAILED
        assert outcome == "failed" or reasons == [outcome]
