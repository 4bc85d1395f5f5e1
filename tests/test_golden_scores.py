"""Golden outputs: session scores and enrollment models, bit for bit.

The constants were recorded from the pipeline that recomputed every stream
chain per score, and the consistency scores, models and transcripts were
re-captured when the AHRS became 6-axis. The enrollment model and the
consistency scores of two sessions were re-captured when the Welch spectra
and correlations became numpy row operations (at most 5e-16 relative).
Every value was re-captured when the attitude became the levelled prefix
product of the gyro. The partial-view session's phone score and transcript
were re-captured when the wrist's Kalman pass replaced the cooperative
chain filter on tracks with lost frames. The enrollment model, every
consistency score and every transcript were re-captured when the
consistency features went from six to three (pcc, mae, coh); the gait
scores, states and attempt counts did not move.
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
    "2287daed3e831d82df6e8c59c9cb3d5487f3081af01c261d237014b631a4967a")

# name -> (subject, capture seed_offset base, loss rate, session seed,
#          retransmission rounds or None for the default,
#          state, attempts, (drone, phone, gait) score hex, transcript sha256)
SESSIONS = {
    "genuine_loss0": (
        SUBJECT, 500, 0.0, 1, None, "accepted", 1,
        ("0x1.d719ada6e50c4p-2", "0x1.d719ada6e50c4p-2",
         "0x1.d9335850ef5a0p-5"),
        "1c9bb10d6e2427d0ac598ccec135d3241ec72cb51e2788764e98299364088dd0"),
    "genuine_loss03": (
        SUBJECT, 510, 0.3, 2, None, "accepted", 1,
        ("0x1.d74e7812996c2p-2", "0x1.d74e7812996c2p-2",
         "0x1.cfdbd6b6ea650p-5"),
        "85f223c27abbc3ad68b14ed9b80077649fccaa7762e4fcbb052ee7e2ba4687cf"),
    # no retransmission: both receivers hold a view with lost chunks
    "genuine_partial_views": (
        SUBJECT, 520, 0.3, 3, 0, "accepted", 1,
        ("0x1.d764aa16fb7f6p-2", "0x1.d2aa1f3556376p-2",
         "0x1.21100db4df4a0p-5"),
        "4d66b3b58326129b85ffd9e8b985f8d51c1fe3b54d121c54c97ee893728f7da8"),
    "impostor_three_attempts": (
        IMPOSTOR, 530, 0.3, 4, None, "failed", 3,
        ("0x1.3b50c49619840p-2", "0x1.3b50c49619840p-2",
         "-0x1.7b283f4cf29f8p-1"),
        "473325f1cd5971e0adcc3b4bcf6b01a30ee5ff0dd91d3e503b456ae3abe02f3c"),
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
