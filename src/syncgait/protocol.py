"""Mutual-authentication session simulator over a lossy channel.

A session walks through hello, clock synchronization, chunked cross-exchange
of the two sensor streams, and dual verification: both peers check the
cross-modal consistency of what they hold, and the phone side additionally
checks the gait signature; `DecisionRecord` fuses the three checks. The
transport drops and delays messages independently in both directions; every
delivered or dropped message is logged to a transcript.

`run_sessions` runs a batch of sessions in lockstep and scores the
attempts of each round that reach verification as one `attempt_scores`
batch: they share each stream chain's column-wise stages and one feature
pass. Each session keeps its own rng, clock and transcript, so it ends
exactly as it does alone, and `run_session` is the batch of one.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import EnrollmentMissing, SyncGaitError
from .gait import imu_chains
from .pipeline import (Enrollment, consistency_score, consistency_scores,
                       gait_score)
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


def attempt_scores(attempts: list[tuple]) -> list[tuple[float, float, float]]:
    """Drone consistency, phone consistency and gait scores of each attempt.

    An attempt is `(enrollment, offset, imu, kp, imu_valid, kp_valid)`:
    `imu_valid` and `kp_valid` mark the samples of the phone's `imu` and the
    drone's `kp` that reached the other peer. The drone scores the IMU as it
    arrived against its own `kp`; the phone scores its own `imu` against the
    keypoints as they arrived and checks the gait on `imu`. A receiver's
    view is built only for a stream that lost samples.

    The drone views of the batch run one `imu_chains` call and one
    `consistency_scores` batch. When both views of an attempt are complete
    the phone's score is the drone's, computed once (on the uniform IMU
    speed grid an all-valid mask drops no aligned point). An attempt left
    with a partial view, which the ARQ makes rare, scores the phone's view
    alone, on its own chain when IMU chunks were lost. The gait check then
    runs once per own chain. So a batch of one raises the error of the
    attempt's first failing stage, and each score is bit for bit
    consistency_score and gait_score on its views.
    """
    chains = imu_chains([imu if imu_valid.all()
                         else _received_imu(imu, imu_valid)
                         for _, _, imu, _, imu_valid, _ in attempts])
    drone = consistency_scores(
        [(enrollment, chain, kp, offset, imu_valid)
         for (enrollment, offset, _, kp, imu_valid, _), chain
         in zip(attempts, chains)])
    out = []
    for (enrollment, offset, imu, kp, imu_valid, kp_valid), chain, s_drone \
            in zip(attempts, chains, drone):
        imu_whole, kp_whole = imu_valid.all(), kp_valid.all()
        s_phone = s_drone
        if not (imu_whole and kp_whole):
            if not imu_whole:
                chain = imu_chains([imu])[0]
            kp_view = kp if kp_whole else _received_keypoints(kp, kp_valid)
            s_phone = consistency_score(enrollment, chain, kp_view, offset)
        out.append((s_drone, s_phone, gait_score(enrollment, chain)))
    return out


def _scored(attempts: list[tuple]) -> list:
    """attempt_scores of each attempt, or the SyncGaitError that scoring it
    alone raises: a batch that raises is re-scored one attempt at a time."""
    try:
        return attempt_scores(attempts)
    except SyncGaitError as exc:
        if len(attempts) == 1:
            return [exc]
    return [r for attempt in attempts for r in _scored([attempt])]


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


def _session(cfg: SessionConfig, enrollment: Enrollment, imu_source,
             keypoint_source, seed: int):
    """One session with retries, as run_sessions drives it: a generator
    that yields each attempt reaching VERIFY, as attempt_scores takes it,
    is sent back its scores or the SyncGaitError scoring it raised, and
    returns the SessionResult."""
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
        scores = yield (enrollment, offset, imu, kp, *valid)
        if isinstance(scores, SyncGaitError):
            log.log(t, "phone", "attempt_failed",
                    reason=type(scores).__name__)
            continue
        s_drone, s_phone, s_gait = scores

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


def run_sessions(cfg: SessionConfig,
                 sessions: list[tuple]) -> list[SessionResult]:
    """Simulate full mutual-authentication sessions with retries, in
    lockstep.

    Each session is `(enrollment, imu_source, keypoint_source, seed)`:
    imu_source(attempt) and keypoint_source(attempt) supply the raw streams
    captured during the given attempt (phone clock / drone clock). Each
    session keeps its own rng, clock and transcript, so its result is byte
    for byte what it gives alone. In each round every unfinished session
    runs to its next attempt that reaches VERIFY, and those attempts are
    scored as one attempt_scores batch; a batch that raises is re-scored
    one attempt at a time, so each session logs its own failure reason.
    """
    for enrollment, *_ in sessions:
        if enrollment is None or enrollment.consistency_model is None \
                or enrollment.gait_model is None:
            raise EnrollmentMissing("both user models are required")
    runs = [_session(cfg, *session) for session in sessions]
    results = [None] * len(runs)
    replies = [None] * len(runs)    # what each run is sent when it resumes
    live = range(len(runs))
    while True:
        waiting = []
        for i in live:
            try:
                waiting.append((i, runs[i].send(replies[i])))
            except StopIteration as end:
                results[i] = end.value
        if not waiting:
            return results
        for (i, _), reply in zip(waiting, _scored([a for _, a in waiting])):
            replies[i] = reply
        live = [i for i, _ in waiting]


def run_session(cfg: SessionConfig, enrollment: Enrollment,
                imu_source, keypoint_source, seed: int = 0) -> SessionResult:
    """Simulate one full mutual-authentication session with retries: the
    batch of one of run_sessions."""
    return run_sessions(cfg, [(enrollment, imu_source, keypoint_source,
                               seed)])[0]
