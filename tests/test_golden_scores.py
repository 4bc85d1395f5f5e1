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
    "a3d0035461180f7cbb63217fd29195d6eab771688febf8aa41f1d51749469593")

# name -> (subject, capture seed_offset base, loss rate, session seed,
#          retransmission rounds or None for the default,
#          state, attempts, (drone, phone, gait) score hex, transcript sha256)
SESSIONS = {
    "genuine_loss0": (
        SUBJECT, 500, 0.0, 1, None, "accepted", 1,
        ("0x1.b9ef62be44409p-2", "0x1.b9ef62be44409p-2",
         "0x1.c40d2ad6c85c0p-5"),
        "5d119abd4da2a9c674e33007c65e289f6697f192adc88b8f9a607fb9f0d27efb"),
    "genuine_loss03": (
        SUBJECT, 510, 0.3, 2, None, "accepted", 1,
        ("0x1.baf4b1e1c68dbp-2", "0x1.baf4b1e1c68dbp-2",
         "0x1.c9ac1386875f0p-5"),
        "e27b3f782534b20019f03be10824e8feaac8624e9dc2df807424610f7ab12fb1"),
    # no retransmission: both receivers hold a view with lost chunks
    "genuine_partial_views": (
        SUBJECT, 520, 0.3, 3, 0, "accepted", 1,
        ("0x1.b9c2e89b17fd5p-2", "0x1.f9d9e922ed486p-3",
         "0x1.36650d75513d0p-5"),
        "85c6485563d0c038f0e8d5c7f6be6bef5e036466cf7c504297fc01980b2e05f9"),
    "impostor_three_attempts": (
        IMPOSTOR, 530, 0.3, 4, None, "failed", 3,
        ("0x1.962061e879903p-2", "0x1.962061e879903p-2",
         "-0x1.7c445ac01a910p-1"),
        "0b83f5053b48b329565da83531909755736026f24fac47be52416167f5a756be"),
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
