"""Mutual-authentication session simulator over a lossy channel.

A session walks through hello, clock synchronization, chunked cross-exchange
of the two sensor streams, and dual verification: both peers check the
cross-modal consistency of what they hold, and the phone side additionally
checks the gait signature; `DecisionRecord` fuses the three checks. The
transport drops and delays messages independently in both directions; every
delivered or dropped message is logged to a transcript.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import EnrollmentMissing, SyncGaitError
from .gait import imu_chain
from .pipeline import Enrollment, consistency_score, gait_score
from .series import ImuSeries, KeypointSeries, fill_gaps
from .syncing import (MIN_SESSION_S, SYNC_EXCHANGE_PERIOD,
                      ClockOffsetEstimate, kalman_track_offset,
                      two_way_offset)

CHUNK_S = 0.1          # stream exchange chunk length
ARQ_ROUNDS = 20        # bounded selective-repeat retransmission rounds
DELAY_MEAN_S = 0.004   # one-way message delay, the same both ways
DELAY_JITTER_S = 0.001


class SessionState(enum.Enum):
    HELLO = "hello"
    TIME_SYNC = "time_sync"
    EXCHANGE = "exchange"
    VERIFY = "verify"
    ACCEPTED = "accepted"
    FAILED = "failed"


@dataclass(frozen=True)
class ChannelModel:
    loss_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.loss_rate <= 0.6:
            raise ValueError("loss_rate must lie in [0, 0.6]")

    def delay(self, rng: np.random.Generator) -> float:
        return max(0.0, DELAY_MEAN_S + DELAY_JITTER_S * rng.normal())

    def dropped(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.loss_rate)


@dataclass
class SessionConfig:
    max_attempts: int = 3
    sample_duration: float = 8.0
    channel: ChannelModel = field(default_factory=ChannelModel)
    clock_offset: float = 0.0    # true drone clock minus phone clock

    def __post_init__(self):
        if type(self.max_attempts) is not int or self.max_attempts < 1:
            raise ValueError("max_attempts must be an int >= 1")
        if not abs(self.clock_offset) < np.inf:
            raise ValueError("clock_offset must be finite")
        if not MIN_SESSION_S <= self.sample_duration < np.inf:
            raise ValueError("session duration must be finite and "
                             f">= {MIN_SESSION_S} s")


@dataclass(frozen=True)
class DecisionRecord:
    """An attempt's fused decision: accepted iff all three scores are >= 0.
    `consistency` (the weaker peer's) and `fused` (the weaker of that and
    gait) are score streams, and `fused >= 0` exactly when accepted."""

    attempt: int
    consistency_score_drone: float
    consistency_score_phone: float
    gait_score: float

    @property
    def accepted(self) -> bool:
        return self.consistency_pass and self.gait_pass

    @property
    def consistency_pass(self) -> bool:
        return (self.consistency_score_drone >= 0
                and self.consistency_score_phone >= 0)

    @property
    def gait_pass(self) -> bool:
        return self.gait_score >= 0

    @property
    def consistency(self) -> float:
        return min(self.consistency_score_drone, self.consistency_score_phone)

    @property
    def fused(self) -> float:
        return min(self.consistency, self.gait_score)


@dataclass
class SessionResult:
    state: SessionState
    record: DecisionRecord | None
    attempts: int
    transcript: list[dict]

    def transcript_jsonl(self) -> str:
        return "\n".join(json.dumps(e, sort_keys=True)
                         for e in self.transcript) + "\n"


class _Transcript:
    def __init__(self):
        self.events: list[dict] = []

    def log(self, t: float, actor: str, event: str, **detail):
        entry = {"t": round(float(t), 6), "actor": actor, "event": event}
        if detail:
            entry["detail"] = detail
        self.events.append(entry)


def inject_loss(n: int, channel: ChannelModel,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Which of n chunks survive the channel and when they arrive.

    Returns the (n,) delivered mask and the arrival delays of the delivered
    chunks in index order; arrival order is monotone (a transport with
    in-order delivery), drops are independent.
    """
    got = np.zeros(n, dtype=bool)
    arrivals = []
    t_arr = 0.0
    for i in range(n):
        if channel.dropped(rng):
            continue
        t_arr = max(t_arr, channel.delay(rng))
        got[i] = True
        arrivals.append(t_arr)
    return got, np.array(arrivals)


def exchange_with_arq(n: int, channel: ChannelModel,
                      rng: np.random.Generator,
                      rounds: int = ARQ_ROUNDS) -> tuple[np.ndarray, int]:
    """Selective-repeat transfer of n chunks: the initial burst plus up to
    `rounds` retransmission rounds for whatever is still missing, in index
    order. Returns the (n,) delivered mask and the rounds actually used."""
    got, _ = inject_loss(n, channel, rng)
    used = 0
    while not got.all() and used < rounds:
        used += 1
        missing = np.flatnonzero(~got)
        got[missing[inject_loss(len(missing), channel, rng)[0]]] = True
    return got, used


def _received_imu(imu: ImuSeries, valid: np.ndarray) -> ImuSeries:
    """The receiver's view: the full timeline with the acc and gyro samples
    that are not valid linearly interpolated."""
    return ImuSeries(imu.t, fill_gaps(imu.t, imu.acc, valid),
                     fill_gaps(imu.t, imu.gyro, valid),
                     sample_rate=imu.sample_rate)


def _received_keypoints(kp: KeypointSeries,
                        valid: np.ndarray) -> KeypointSeries:
    """The receiver's view: lost frames stay on the timeline with confidence
    0, so the calibration stage bridges them like any occlusion."""
    conf = kp.conf.copy()
    conf[~valid] = 0.0
    return KeypointSeries(kp.t, kp.uv, conf, kp.frame_rate)


def attempt_scores(enrollment: Enrollment, offset: ClockOffsetEstimate,
                   imu: ImuSeries, kp: KeypointSeries, imu_valid: np.ndarray,
                   kp_valid: np.ndarray) -> tuple[float, float, float]:
    """Drone consistency, phone consistency and gait scores of one attempt.

    `imu_valid` and `kp_valid` mark the samples of the phone's `imu` and the
    drone's `kp` that reached the other peer. The drone scores the IMU as it
    arrived against its own `kp`; the phone scores its own `imu` against the
    keypoints as they arrived and checks the gait on `imu`. A receiver's
    view is built only for a stream that lost samples. Each IMU view's
    chain (denoise and attitude scan) is run once and shared by the scores
    that read it. When both views are complete the phone's score is the
    drone's, computed once (on the uniform IMU speed grid an all-valid mask
    drops no aligned point), so an attempt runs one IMU chain and one
    speed channel of each stream. When one view is partial the phone's
    score recomputes one channel of the sender's own stream: the video
    channel when only IMU chunks were lost, the IMU speed channel when only
    keypoints were, a small share of the attempt's time. The scores equal
    consistency_score and gait_score on the views.
    """
    imu_whole, kp_whole = imu_valid.all(), kp_valid.all()
    chain = imu_chain(imu if imu_whole else _received_imu(imu, imu_valid))
    s_drone = consistency_score(enrollment, chain, kp, offset,
                                imu_valid=imu_valid)
    if imu_whole and kp_whole:
        return s_drone, s_drone, gait_score(enrollment, chain)
    if not imu_whole:
        chain = imu_chain(imu)
    kp_view = kp if kp_whole else _received_keypoints(kp, kp_valid)
    s_phone = consistency_score(enrollment, chain, kp_view, offset)
    return s_drone, s_phone, gait_score(enrollment, chain)


def _time_sync(cfg: SessionConfig, rng: np.random.Generator,
               log: _Transcript, t0: float) -> ClockOffsetEstimate | None:
    """Periodic two-way exchanges filtered to one offset estimate.

    Each exchange needs both the request and the reply to survive.
    """
    n = max(int(cfg.sample_duration / SYNC_EXCHANGE_PERIOD), 1)
    estimates = []
    ch = cfg.channel
    for seq in range(n):
        t1 = t0 + seq * SYNC_EXCHANGE_PERIOD
        if ch.dropped(rng):
            log.log(t1, "phone", "sync_request_lost", seq=seq)
            continue
        t2 = t1 + ch.delay(rng) + cfg.clock_offset
        t3 = t2 + 0.001
        if ch.dropped(rng):
            log.log(t1, "drone", "sync_reply_lost", seq=seq)
            continue
        t4 = t3 - cfg.clock_offset + ch.delay(rng)
        try:
            est = two_way_offset(t1, t2, t3, t4)
        except SyncGaitError:
            continue
        estimates.append(est)
        log.log(t4, "phone", "sync_sample", seq=seq,
                offset=round(est.offset, 6))
    if not estimates:
        return None
    tracked = kalman_track_offset(estimates)
    return tracked[-1]


def run_session(cfg: SessionConfig, enrollment: Enrollment,
                imu_source, keypoint_source, seed: int = 0) -> SessionResult:
    """Simulate one full mutual-authentication session with retries.

    imu_source(attempt) and keypoint_source(attempt) supply the raw streams
    captured during the given attempt (phone clock / drone clock).
    """
    if enrollment is None or enrollment.consistency_model is None \
            or enrollment.gait_model is None:
        raise EnrollmentMissing("both user models are required")
    rng = np.random.default_rng(seed)
    log = _Transcript()
    t = 0.0
    log.log(t, "phone", "state", state=SessionState.HELLO.value)
    record = None

    for attempt in range(1, cfg.max_attempts + 1):
        log.log(t, "phone", "attempt_start", attempt=attempt)
        imu = imu_source(attempt)
        kp = keypoint_source(attempt)

        log.log(t, "phone", "state", state=SessionState.TIME_SYNC.value)
        offset = _time_sync(cfg, rng, log, t)
        t += cfg.sample_duration
        if offset is None:
            log.log(t, "phone", "attempt_failed", reason="no sync exchange")
            continue
        log.log(t, "phone", "offset_tracked",
                offset=round(offset.offset, 6))

        log.log(t, "phone", "state", state=SessionState.EXCHANGE.value)
        valid = []
        for actor, event, n, rate in (
                ("drone", "imu_received", len(imu), imu.sample_rate),
                ("phone", "keypoints_received", len(kp), kp.frame_rate)):
            per = max(int(round(CHUNK_S * rate)), 1)
            got, rounds = exchange_with_arq(-(-n // per), cfg.channel, rng)
            valid.append(np.repeat(got, per)[:n])
            log.log(t, actor, event, chunks=int(got.sum()), sent=len(got),
                    retransmit_rounds=rounds)

        log.log(t, "phone", "state", state=SessionState.VERIFY.value)
        try:
            s_drone, s_phone, s_gait = attempt_scores(
                enrollment, offset, imu, kp, *valid)
        except SyncGaitError as exc:
            log.log(t, "phone", "attempt_failed",
                    reason=type(exc).__name__)
            continue

        record = DecisionRecord(
            attempt=attempt,
            consistency_score_drone=s_drone,
            consistency_score_phone=s_phone,
            gait_score=s_gait,
        )
        log.log(t, "drone", "decision", score=round(s_drone, 6),
                passed=s_drone >= 0)
        log.log(t, "phone", "decision", consistency=round(s_phone, 6),
                gait=round(s_gait, 6), accepted=record.accepted)
        if record.accepted:
            log.log(t, "phone", "state", state=SessionState.ACCEPTED.value)
            return SessionResult(SessionState.ACCEPTED, record, attempt,
                                 log.events)
        log.log(t, "phone", "attempt_failed", reason="verification")

    log.log(t, "phone", "state", state=SessionState.FAILED.value)
    return SessionResult(SessionState.FAILED, record,
                         cfg.max_attempts, log.events)
