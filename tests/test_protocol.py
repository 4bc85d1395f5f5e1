"""Lossy-channel model, retransmission, and the session state machine."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syncgait.errors import EnrollmentMissing, SyncGaitError
from syncgait.protocol import (ARQ_ROUNDS, ChannelModel, SessionConfig,
                               SessionState, _chunks, _received_imu,
                               _received_keypoints, attempt_scores,
                               exchange_with_arq, inject_loss, run_session)
from syncgait.pipeline import (Enrollment, consistency_score, enroll,
                               gait_score)
from syncgait.series import ImuSeries, KeypointSeries
from syncgait.syncing import ClockOffsetEstimate
from syncgait.synth import SubjectParams, generate_session, make_cohort


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(loss_rate=1.0)     # only [0, 0.6] supported
    with pytest.raises(ValueError):
        ChannelModel(loss_rate=-0.1)


def test_inject_loss_binomial_delivery():
    # 1000 chunks at loss 0.5: delivered count within 500 +/- 50
    rng = np.random.default_rng(77)
    delivered = inject_loss(list(range(1000)), ChannelModel(loss_rate=0.5),
                            rng)
    assert 450 <= len(delivered) <= 550


def test_inject_loss_lossless_keeps_everything_in_order():
    rng = np.random.default_rng(0)
    delivered = inject_loss(list(range(100)), ChannelModel(loss_rate=0.0), rng)
    assert [i for i, _ in delivered] == list(range(100))
    arrivals = [t for _, t in delivered]
    assert arrivals == sorted(arrivals)          # in-order delivery
    assert all(t >= 0 for t in arrivals)


def test_exchange_with_arq_completes_under_heavy_loss():
    rng = np.random.default_rng(5)
    chunks = list(range(200))
    got, rounds = exchange_with_arq(chunks, ChannelModel(loss_rate=0.6), rng)
    assert got == set(range(200))
    assert 1 <= rounds <= ARQ_ROUNDS


def test_exchange_with_arq_no_loss_uses_no_rounds():
    rng = np.random.default_rng(5)
    got, rounds = exchange_with_arq(list(range(50)),
                                    ChannelModel(loss_rate=0.0), rng)
    assert got == set(range(50))
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
    assert result.record.offset_estimate == pytest.approx(OFFSET, abs=0.005)


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


def test_complete_views_are_the_senders_streams(enrolled_subject):
    subject, _ = enrolled_subject
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=505)
    imu_chunks = _chunks(len(imu), imu.sample_rate)
    kp_chunks = _chunks(len(kp), kp.frame_rate)
    view, valid = _received_imu(imu, set(range(len(imu_chunks))), imu_chunks)
    assert view is imu and valid.all()
    assert _received_keypoints(kp, set(range(len(kp_chunks))),
                               kp_chunks) is kp


def test_one_pass_scores_equal_per_view_scores_on_partial_views(
        enrolled_subject):
    subject, enrollment = enrolled_subject
    est = ClockOffsetEstimate(OFFSET, 1e-6, 0.005)
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=506)
    imu_chunks = _chunks(len(imu), imu.sample_rate)
    kp_chunks = _chunks(len(kp), kp.frame_rate)
    imu_at_drone, imu_valid = _received_imu(
        imu, set(range(len(imu_chunks))) - {20}, imu_chunks)
    kp_at_phone = _received_keypoints(
        kp, set(range(len(kp_chunks))) - {30, 31}, kp_chunks)
    assert not imu_valid.all() and imu_at_drone is not imu
    assert kp_at_phone is not kp

    drone, phone, gait = attempt_scores(
        enrollment, est, imu, kp, imu_at_drone, imu_valid, kp_at_phone)
    assert drone.hex() == consistency_score(
        enrollment, imu_at_drone, kp, est, imu_valid=imu_valid).hex()
    assert phone.hex() == consistency_score(
        enrollment, imu, kp_at_phone, est).hex()
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
        enrollment, est, imu, kp, imu, imu_valid, kp)
    assert drone.hex() == consistency_score(
        enrollment, imu, kp, est, imu_valid=imu_valid).hex()
    assert phone.hex() == consistency_score(enrollment, imu, kp, est).hex()
    assert gait.hex() == gait_score(enrollment, imu).hex()


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
    with pytest.raises(ValueError):
        SessionConfig(sample_duration=1.0)


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


@pytest.mark.parametrize("block, factor", [
    ("acc", 0.0), ("acc", 1e-200), ("acc", 1e200),
    ("mag", 0.0), ("mag", 1e-200), ("mag", 1e200), ("gyro", 1e200),
    ("uv", 1e200)])
def test_degenerate_stream_fails_the_session_with_a_named_reason(
        capture, block, factor):
    # no gravity, no field or values whose squares overflow: the attempt
    # fails on a named reason; with no field the attitude is gravity-only
    enrollment, imu, kp = capture
    if block == "uv":
        kp = KeypointSeries(kp.t, kp.uv * factor, kp.conf, kp.frame_rate)
    else:
        blocks = {"acc": imu.acc, "gyro": imu.gyro, "mag": imu.mag}
        blocks[block] = blocks[block] * factor
        imu = ImuSeries(imu.t, sample_rate=imu.sample_rate, **blocks)
    result, reasons = _one_attempt(enrollment, imu, kp)
    assert result.state == SessionState.FAILED
    assert reasons == ["verification" if block == "mag" and factor < 1
                       else "DegenerateSeries"]


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
