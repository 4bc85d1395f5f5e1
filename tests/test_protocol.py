"""Lossy-channel model, retransmission, and the session state machine."""

import functools
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syncgait import gait as gait_module
from syncgait import pipeline, protocol
from syncgait.errors import EnrollmentMissing, SyncGaitError
from syncgait.protocol import (ARQ_ROUNDS, DELAY_JITTER_S, DELAY_MEAN_S,
                               ChannelModel, DecisionRecord, SessionConfig,
                               SessionState, _received_imu,
                               _received_keypoints, attempt_scores,
                               exchange_with_arq, inject_loss, run_session)
from syncgait.pipeline import (Capture, Enrollment, consistency_score,
                               enroll, gait_score)
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


def _arrival_list_inject_loss(n, loss_rate, rng):
    """Reference: inject_loss as it was written before the channel's `send`,
    one chunk at a time with a running arrival list."""
    got = np.zeros(n, dtype=bool)
    arrivals = []
    t_arr = 0.0
    for i in range(n):
        if bool(rng.random() < loss_rate):
            continue
        t_arr = max(t_arr, max(0.0, DELAY_MEAN_S
                               + DELAY_JITTER_S * rng.normal()))
        got[i] = True
        arrivals.append(t_arr)
    return got, np.array(arrivals)


def _arrival_list_arq(n, loss_rate, rng, rounds):
    """Reference: exchange_with_arq as it was written before, each round an
    inject_loss call whose arrivals are thrown away."""
    got, _ = _arrival_list_inject_loss(n, loss_rate, rng)
    used = 0
    while not got.all() and used < rounds:
        used += 1
        missing = np.flatnonzero(~got)
        got[missing[_arrival_list_inject_loss(len(missing), loss_rate,
                                              rng)[0]]] = True
    return got, used


@pytest.mark.parametrize("rounds", [0, 1, 3, 20])
@pytest.mark.parametrize("loss", [0.0, 0.3, 0.6])
def test_exchange_with_arq_is_the_arrival_list_form_bit_for_bit(loss,
                                                                rounds):
    channel = ChannelModel(loss_rate=loss)
    for seed, n in itertools.product(range(50), (1, 7, 80, 200)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, used = exchange_with_arq(n, channel, rng, rounds=rounds)
        want, want_used = _arrival_list_arq(n, loss, ref_rng, rounds)
        assert got.dtype == bool and np.array_equal(got, want)
        assert used == want_used
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("loss", [0.0, 0.3, 0.6])
def test_inject_loss_is_the_arrival_list_form_bit_for_bit(loss):
    channel = ChannelModel(loss_rate=loss)
    for seed, n in itertools.product(range(20), (0, 1, 7, 80)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, arrivals = inject_loss(n, channel, rng)
        want, want_arrivals = _arrival_list_inject_loss(n, loss, ref_rng)
        assert got.dtype == bool and np.array_equal(got, want)
        assert arrivals.dtype == want_arrivals.dtype
        assert arrivals.tobytes() == want_arrivals.tobytes()
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("n, rounds, name", [
    (-1, 20, "n"), (2.5, 20, "n"), (True, 20, "n"),
    (80, -1, "rounds"), (80, 2.5, "rounds"), (80, "3", "rounds")])
def test_exchange_with_arq_counts_must_be_ints_at_least_zero(n, rounds,
                                                             name):
    # before the check, rounds=-1 returned the burst's view and reported 0
    # rounds, rounds=2.5 ran 3 rounds, n=-1 raised numpy's unnamed error
    with pytest.raises(ValueError, match=rf"^{name} must be an int >= 0"):
        exchange_with_arq(n, ChannelModel(loss_rate=0.6),
                          np.random.default_rng(0), rounds=rounds)


@pytest.mark.parametrize("n", [-1, 2.5])
def test_inject_loss_count_must_be_an_int_at_least_zero(n):
    with pytest.raises(ValueError, match=r"^n must be an int >= 0"):
        inject_loss(n, ChannelModel(loss_rate=0.6), np.random.default_rng(0))


def test_numpy_int_counts_are_accepted():
    channel = ChannelModel(loss_rate=0.6)
    got, rounds = exchange_with_arq(np.int64(80), channel,
                                    np.random.default_rng(0),
                                    rounds=np.int64(3))
    want, want_rounds = exchange_with_arq(80, channel,
                                          np.random.default_rng(0), rounds=3)
    assert np.array_equal(got, want) and rounds == want_rounds == 3
    assert exchange_with_arq(0, channel, np.random.default_rng(0))[1] == 0


# --- full sessions -----------------------------------------------------------

OFFSET = 0.08


@pytest.fixture(scope="module")
def enrolled_subject():
    subject = SubjectParams(seed=21)
    est = ClockOffsetEstimate.known(OFFSET)
    sessions = []
    for k in range(12):
        imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                      seed_offset=100 + k)
        sessions.append((imu, kp, est))
    return subject, enroll(sessions)


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
        imu = ImuSeries(imu.t[:n], imu.acc[:n], imu.gyro[:n],
                        sample_rate=imu.sample_rate)
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
    est = ClockOffsetEstimate.known(OFFSET)
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=506)
    # IMU chunk 20 and keypoint chunks 30-31 (0.1 s each) lost
    imu_valid = np.ones(len(imu), dtype=bool)
    imu_valid[200:210] = False
    kp_valid = np.ones(len(kp), dtype=bool)
    kp_valid[180:192] = False

    [(drone, phone, gait)] = attempt_scores(
        [Capture(imu, kp, est, imu_valid=imu_valid, kp_valid=kp_valid,
                 enrollment=enrollment)])
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
    est = ClockOffsetEstimate.known(OFFSET)
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=506)
    imu_valid = np.ones(len(imu), dtype=bool)
    [(drone, phone, gait)] = attempt_scores(
        [Capture(imu, kp, est, imu_valid=imu_valid,
                 kp_valid=np.ones(len(kp), dtype=bool),
                 enrollment=enrollment)])
    assert drone.hex() == consistency_score(
        enrollment, imu, kp, est, imu_valid=imu_valid).hex()
    assert phone.hex() == consistency_score(enrollment, imu, kp, est).hex()
    assert gait.hex() == gait_score(enrollment, imu).hex()


@pytest.mark.parametrize("lost, chains, channels", [
    ("nothing", 1, 1), ("imu", 2, 2), ("keypoints", 1, 2)])
def test_an_attempt_prepares_each_stream_once(enrolled_subject, monkeypatch,
                                              lost, chains, channels):
    # a complete attempt runs one IMU chain, one speed channel per stream
    # and one single-capture scoring and feature batch; a partial view adds
    # its own chain (IMU lost), one channel of each stream and one more
    # single-capture batch for the phone's score. Each batch call counts its
    # streams, as the ahrs_calls fixture does
    subject, enrollment = enrolled_subject
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=506)
    imu_valid = np.ones(len(imu), dtype=bool)
    kp_valid = np.ones(len(kp), dtype=bool)
    if lost == "imu":
        imu_valid[200:210] = False
    if lost == "keypoints":
        kp_valid[180:192] = False
    calls = {"imu_chains": 0, "imu_speed_channels": 0,
             "video_speed_channels": 0, "compute_features": [],
             "consistency_scores": []}

    def spy(module, name):
        real = getattr(module, name)

        def counted(batch):
            if isinstance(calls[name], list):
                calls[name].append(len(batch))
            else:
                calls[name] += len(batch)
            return real(batch)
        monkeypatch.setattr(module, name, counted)
    # gait.imu_chains too: a raw stream reaching as_chain calls it there;
    # the phone's partial view reaches pipeline.consistency_scores through
    # consistency_score
    for module, name in ((protocol, "imu_chains"), (gait_module, "imu_chains"),
                         (pipeline, "imu_speed_channels"),
                         (pipeline, "video_speed_channels"),
                         (pipeline, "compute_features"),
                         (protocol, "consistency_scores"),
                         (pipeline, "consistency_scores")):
        spy(module, name)
    attempt_scores([Capture(imu, kp, ClockOffsetEstimate.known(OFFSET),
                            imu_valid=imu_valid, kp_valid=kp_valid,
                            enrollment=enrollment)])
    assert calls == {"imu_chains": chains, "imu_speed_channels": channels,
                     "video_speed_channels": channels,
                     "compute_features": [1] * channels,
                     "consistency_scores": [1] * channels}


def _partial(result) -> bool:
    """Whether an exchange of the session left a receiver a partial view."""
    return any(e["detail"]["chunks"] < e["detail"]["sent"]
               for e in result.transcript
               if "retransmit_rounds" in e.get("detail", {}))


SCORE_FIELDS = ("consistency_score_drone", "consistency_score_phone",
                "gait_score")


def test_run_sessions_gives_each_session_what_it_gives_alone(
        enrolled_subject, monkeypatch):
    # one lockstep batch under two enrollments: four genuine sessions
    # accepted at attempt 1, a relay rejected at all three attempts, and a
    # session rejected twice whose third capture is too short to band-pass,
    # so its last round fails on its named reason beside the relay's scored
    # attempt. One retransmission round leaves some receivers a partial
    # view, as in the golden partial-view session, so complete and partial
    # views share the batches
    monkeypatch.setattr(protocol, "exchange_with_arq",
                        functools.partial(protocol.exchange_with_arq,
                                          rounds=1))
    subject, enrollment = enrolled_subject
    other = SubjectParams(cycle_period=1.1, swing_amplitude=0.55, seed=99)
    est = ClockOffsetEstimate.known(OFFSET)
    enrollment_b = enroll([(*generate_session(other, clock_offset=OFFSET,
                                              seed_offset=100 + k)[:2], est)
                           for k in range(8)])
    relays = [generate_attack(RelayAttack(subject, other), clock_offset=OFFSET,
                              seed_offset=540 + a)[:2] for a in range(3)]
    imu, kp = relays[2]
    relays_then_short = relays[:2] + [(
        ImuSeries(imu.t[:20], imu.acc[:20], imu.gyro[:20],
                  sample_rate=imu.sample_rate), kp)]
    sessions = [(enrollment, *_session_sources(subject, seed_offset=520), 11),
                (enrollment_b, *_session_sources(other, seed_offset=521), 12)]
    for captures, seed in ((relays, 13), (relays_then_short, 14)):
        sessions.append((enrollment,
                         lambda a, c=captures: c[a - 1][0],
                         lambda a, c=captures: c[a - 1][1], seed))
    sessions += [(enrollment, *_session_sources(subject, seed_offset=522), 15),
                 (enrollment_b, *_session_sources(other, seed_offset=523), 16)]
    cfg = SessionConfig(clock_offset=OFFSET,
                        channel=ChannelModel(loss_rate=0.1))

    batches = []
    real = protocol.attempt_scores

    def spy(attempts):
        batches.append(len(attempts))
        return real(attempts)
    monkeypatch.setattr(protocol, "attempt_scores", spy)
    batch = protocol.run_sessions(cfg, sessions)
    # rounds of 6 and 2 attempts; the third round's pair raises and each
    # attempt is re-scored alone
    assert batches == [6, 2, 2, 1, 1]
    alone = [run_session(cfg, *session) for session in sessions]

    assert [(r.state.value, r.attempts) for r in alone] == [
        ("accepted", 1), ("accepted", 1), ("failed", 3), ("failed", 3),
        ("accepted", 1), ("accepted", 1)]
    assert [[e["detail"]["reason"] for e in r.transcript
             if e["event"] == "attempt_failed"] for r in alone[2:4]] == [
        ["verification"] * 3, ["verification"] * 2 + ["SeriesTooShort"]]
    assert alone[3].record.attempt == 2
    assert {_partial(r) for r in alone} == {True, False}
    for got, want in zip(batch, alone):
        assert got.transcript_jsonl() == want.transcript_jsonl()
        assert (got.state, got.attempts) == (want.state, want.attempts)
        assert [getattr(got.record, f).hex() for f in SCORE_FIELDS] == \
            [getattr(want.record, f).hex() for f in SCORE_FIELDS]


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
    est = ClockOffsetEstimate.known(OFFSET)
    sessions = [generate_session(subject, clock_offset=OFFSET,
                                 seed_offset=100 + k)[:2] + (est,)
                for k in range(6)]
    imu, kp, _ = generate_session(subject, clock_offset=OFFSET,
                                  seed_offset=503)
    return enroll(sessions), imu, kp


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
    # reason; ImuSeries drops a magnetometer block unread, so a capture
    # passed with a zero, tiny or huge one is accepted
    enrollment, imu, kp = capture
    if block == "uv":
        kp = KeypointSeries(kp.t, kp.uv * factor, kp.conf, kp.frame_rate)
    else:
        blocks = {"acc": imu.acc, "gyro": imu.gyro,
                  "mag": np.tile([22.0, 0.0, -43.0], (len(imu), 1))}
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
    st.tuples(st.just("channel"), st.sampled_from(["acc", "gyro", "uv"]),
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
    a = {"imu_t": imu.t, "acc": imu.acc, "gyro": imu.gyro,
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
            keys = (("imu_t", "acc", "gyro") if stream == "imu"
                    else ("kp_t", "uv", "conf"))
            a.update({k: a[k][:n] for k in keys})
        elif kind == "shift":
            a[arg[0] + "_t"] = a[arg[0] + "_t"] + arg[1]
        else:
            joints, i0, i1 = arg
            a["conf"][i0:i1, sorted(joints)] = 0.0
    assume(all(np.isfinite(v).all() for v in a.values()))
    return (ImuSeries(a["imu_t"], a["acc"], a["gyro"],
                      sample_rate=imu.sample_rate),
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
    imu = ImuSeries(imu.t[:10], imu.acc[:10], imu.gyro[:10],
                    sample_rate=imu.sample_rate)
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


# --- the fused decision ------------------------------------------------------

def _record(drone, phone, gait):
    return DecisionRecord(attempt=1, consistency_score_drone=drone,
                          consistency_score_phone=phone, gait_score=gait)


def test_decision_record_truth_table():
    # accepted only when both peers' consistency checks and the gait check
    # pass; a score of exactly 0 passes
    for drone, phone, gait in itertools.product((-0.5, 0.0, 0.5), repeat=3):
        passes = (drone >= 0 and phone >= 0, gait >= 0)
        rec = _record(drone, phone, gait)
        assert (rec.consistency_pass, rec.gait_pass) == passes
        assert rec.accepted is all(passes)


_SCORE = st.floats(allow_nan=False, allow_infinity=False)


@given(_SCORE, _SCORE, _SCORE)
def test_decision_record_score_streams_state_the_fused_rule(drone, phone,
                                                            gait):
    rec = _record(drone, phone, gait)
    assert rec.accepted == all(s >= 0 for s in (drone, phone, gait))
    assert rec.consistency == min(drone, phone)
    assert rec.fused == min(rec.consistency, gait)
    assert (rec.fused >= 0) == rec.accepted


@given(st.lists(st.tuples(_SCORE, _SCORE, _SCORE), min_size=1,
                max_size=200))
def test_fused_far_never_exceeds_module_fars(scores):
    # conjunction fusion: the fused accept count is bounded by each module's
    records = [_record(*s) for s in scores]
    accepted = sum(r.accepted for r in records)
    assert accepted <= sum(r.consistency_pass for r in records)
    assert accepted <= sum(r.gait_pass for r in records)
