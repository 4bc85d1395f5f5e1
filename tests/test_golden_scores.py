"""Golden outputs: session scores and enrollment models, bit for bit.

The constants were recorded from the pipeline that recomputed every stream
chain per score, and the consistency scores, models and transcripts were
re-captured when the AHRS became 6-axis. The enrollment model and the
consistency scores of two sessions were re-captured when the Welch spectra
and correlations became numpy row operations (at most 5e-16 relative).
Restructuring how the chains are computed and shared must reproduce them
exactly: the float.hex() of each score, the session state and attempt
count, the transcript, and the serialized models.
"""

import functools
import hashlib

import pytest

from syncgait import protocol
from syncgait.classify import serialize_model
from syncgait.pipeline import enroll
from syncgait.protocol import ChannelModel, SessionConfig, run_session
from syncgait.syncing import ClockOffsetEstimate
from syncgait.synth import SubjectParams, generate_session

OFFSET = 0.08
SUBJECT = SubjectParams(seed=21)
IMPOSTOR = SubjectParams(cycle_period=1.1, swing_amplitude=0.55, seed=99)

ENROLLMENT_SHA256 = (
    "1fd0caaf6a8beb94a52548908e3ac6c2000c362e1ca7338080b20ae2f5bcd096")

# name -> (subject, capture seed_offset base, loss rate, session seed,
#          retransmission rounds or None for the default,
#          state, attempts, (drone, phone, gait) score hex, transcript sha256)
SESSIONS = {
    "genuine_loss0": (
        SUBJECT, 500, 0.0, 1, None, "accepted", 1,
        ("0x1.b8b359469775ep-2", "0x1.b8b359469775ep-2",
         "0x1.c40d2ad6c85c0p-5"),
        "4a6e543a436a80fed9c0e5750c599412e02ba67ac45436b02a85a087b1986a81"),
    "genuine_loss03": (
        SUBJECT, 510, 0.3, 2, None, "accepted", 1,
        ("0x1.b9bb58e559306p-2", "0x1.b9bb58e559306p-2",
         "0x1.c9ac1386875f0p-5"),
        "88fb0825cd11e2600e77c35e250973cd04f42671c67c9ccb70acdf32ab42c7fe"),
    # no retransmission: both receivers hold a view with lost chunks
    "genuine_partial_views": (
        SUBJECT, 520, 0.3, 3, 0, "accepted", 1,
        ("0x1.b88fe9335c2c2p-2", "0x1.f91a280fcd5b0p-3",
         "0x1.36650d75513d0p-5"),
        "d5af9b5e97576bc3c3146f71ab76898c7fbb42aea59ffb90b555d4e2aaa5ec35"),
    "impostor_three_attempts": (
        IMPOSTOR, 530, 0.3, 4, None, "failed", 3,
        ("0x1.95bfafdb55dd6p-2", "0x1.95bfafdb55dd6p-2",
         "-0x1.7c445ac01a910p-1"),
        "50a6c2ac702b7aa4b505a72949437351bc7228c856b942f4629b45785be4d295"),
}


@pytest.fixture(scope="module")
def enrollment():
    est = ClockOffsetEstimate(OFFSET, 1e-6, 0.005)
    sessions = []
    for k in range(6):
        imu, kp, _ = generate_session(SUBJECT, clock_offset=OFFSET,
                                      seed_offset=100 + k)
        sessions.append((imu, kp, est))
    return enroll(sessions, seed=0)


def test_enrollment_models_are_golden(enrollment):
    blob = (serialize_model(enrollment.consistency_model)
            + serialize_model(enrollment.gait_model)
            + enrollment.feature_mask.tobytes())
    assert hashlib.sha256(blob).hexdigest() == ENROLLMENT_SHA256


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_scores_are_golden(enrollment, monkeypatch, name):
    (subject, base, loss, seed, rounds, state, attempts, scores,
     transcript_sha) = SESSIONS[name]
    captures = [generate_session(subject, clock_offset=OFFSET,
                                 seed_offset=base + a)[:2] for a in range(3)]
    if rounds is not None:
        monkeypatch.setattr(protocol, "exchange_with_arq",
                            functools.partial(protocol.exchange_with_arq,
                                              rounds=rounds))
    cfg = SessionConfig(clock_offset=OFFSET,
                        channel=ChannelModel(loss_rate=loss))
    result = run_session(cfg, enrollment,
                         lambda a: captures[a - 1][0],
                         lambda a: captures[a - 1][1], seed=seed)
    rec = result.record
    assert result.state.value == state
    assert result.attempts == attempts
    assert (rec.consistency_score_drone.hex(), rec.consistency_score_phone.hex(),
            rec.gait_score.hex()) == scores
    transcript = result.transcript_jsonl().encode()
    assert hashlib.sha256(transcript).hexdigest() == transcript_sha
