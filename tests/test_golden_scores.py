"""Golden outputs: session scores and enrollment models, bit for bit.

The constants were recorded from the pipeline that recomputed every stream
chain per score. Restructuring how the chains are computed and shared must
reproduce them exactly: the float.hex() of each score, the session state
and attempt count, the transcript, and the serialized models.
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
    "1f819ed46b6780668ef5f6876992549304632383b8634d9cf5c3b1588aed7468")

# name -> (subject, capture seed_offset base, loss rate, session seed,
#          retransmission rounds or None for the default,
#          state, attempts, (drone, phone, gait) score hex, transcript sha256)
SESSIONS = {
    "genuine_loss0": (
        SUBJECT, 500, 0.0, 1, None, "accepted", 1,
        ("0x1.b9ef62be44404p-2", "0x1.b9ef62be44404p-2",
         "0x1.15a3a555ec140p-4"),
        "2d15c59b691871d90f9c75cf0fb247a45d8b771cadc77883a116d50a23ab74f1"),
    "genuine_loss03": (
        SUBJECT, 510, 0.3, 2, None, "accepted", 1,
        ("0x1.baf4b1e1c68d6p-2", "0x1.baf4b1e1c68d6p-2",
         "0x1.1dda4c50a3cd0p-4"),
        "f8a2f615fa67d1ebe4915790ba637998a57e7771504db9de36e41820d785cf39"),
    # no retransmission: both receivers hold a view with lost chunks
    "genuine_partial_views": (
        SUBJECT, 520, 0.3, 3, 0, "accepted", 1,
        ("0x1.b9c2e89b17fd0p-2", "0x1.f9d9e922ed478p-3",
         "0x1.1fa320930ad28p-4"),
        "a761fa9cd495a5030d08939b1fd3fa861130e6228d8c9f5ebf74bdfb201f7b70"),
    "impostor_three_attempts": (
        IMPOSTOR, 530, 0.3, 4, None, "failed", 3,
        ("0x1.962061e8798fep-2", "0x1.962061e8798fep-2",
         "-0x1.764075f8c9e47p-1"),
        "2f01463f0da6359a5a4c299376d5874826c38752602359b2d1b348cfb4bed28e"),
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
