"""End-to-end composition: raw paired streams -> speed channels -> aligned
consistency features -> per-user models and signed decision scores.

The video chain calibrates the track of the phone's wrist, the one arm
joint read (gap fill across its lost frames, adaptive DCT smoothing, the
wrist's Kalman pass), then differentiates and band-passes it. The IMU
chain is denoise, orientation, gravity removal, velocity integration,
gait-band band-pass, magnitude. A stream too short for a stage is
SeriesTooShort at the first stage that needs the length.
A batch of streams (`gait.imu_chains`, `imu_speed_channels`,
`video_speed_channels`) runs each column-wise stage once per (length,
rate) shape and the attitude scan once per length. The batch stages take
prepared `ImuChain`s: `consistency_scores` scores captures in one video
channel batch and one feature pass, and `enroll_subjects` enrolls a cohort
in one chain batch and one feature pass, then fits each subject on its own
rows (`enroll` is its batch of one). The single-capture entry points
(`consistency_score`, `consistency_vector`, the gait scores) take an
`ImuSeries` or its `ImuChain` and build the one chain they need, so an
attempt's consistency and gait checks share one denoise and attitude scan.
The features of m pairs are one (m, 3) array, one array pass per pair
length, and a session's cycles are resampled one at a time.

The pipeline takes no settings: each stage reads its module's constants
(the MJCKF noise levels, `series.DENOISE_LEVELS`, the `gait` period
bounds, `syncing.COMMON_RATE`, the OC-SVM hyperparameters and calibration
in `classify`) and the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .classify import OcSvmModel, train_ocsvm, train_ocsvm_calibrated
from .errors import TooFewSamples
from .features import (FeatureVector, FisherReport, compute_features,
                       fisher_select)
from .gait import (ImuChain, as_chain, cycle_feature_rows,
                   gait_representation, imu_chains)
from .orientation import integrate_velocity
from .posture import AdctConfig, adaptive_bandpass, adct_smooth, mjckf_correct
from .series import (JOINT_INDEX, MISSING_CONF, ImuSeries, KeypointSeries,
                     Series1D, by_shape, fill_gaps, normalize,
                     require_squarable)
from .syncing import (COMMON_RATE, MIN_OVERLAP_SAMPLES, AlignedPair,
                      ClockOffsetEstimate, align)

PHONE_WRIST = "wrist_r"    # the joint that carries the phone
MISALIGN_SHIFTS_S = (0.3, 0.55, 0.8)  # surrogate-negative video shifts
GAIT_RHO_MARGIN = 0.05


def _joint_tracks(kp: KeypointSeries,
                  names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The named joints' (n, J, 2) pixel track, each joint interpolated
    across its missing detections, and their (n, J) measured mask,
    confidence >= MISSING_CONF."""
    cols = [JOINT_INDEX[name] for name in names]
    measured = kp.conf[:, cols] >= MISSING_CONF
    track = np.stack([fill_gaps(kp.t, kp.uv[:, j], measured[:, k])
                      for k, j in enumerate(cols)], axis=1)
    return track, measured


def _calibrated_wrists(kps: list[KeypointSeries]) -> list[tuple]:
    """calibrate_keypoints of each track; one adct_smooth per (frames, fps)
    smooths the wrists' pixel columns."""
    require_squarable("keypoint", *(kp.uv for kp in kps))
    tracks = [_joint_tracks(kp, (PHONE_WRIST,)) for kp in kps]
    wrists = by_shape(adct_smooth, [t[:, 0] for t, _ in tracks],
                      [kp.frame_rate for kp in kps])
    return [(mjckf_correct(wrist, kp.frame_rate), m[:, 0])
            for kp, wrist, (_, m) in zip(kps, wrists, tracks)]


def calibrate_keypoints(kp: KeypointSeries) -> tuple[np.ndarray, np.ndarray]:
    """The calibrated (n, 2) wrist of the phone's arm and its (n,) measured
    mask: the PHONE_WRIST track linearly interpolated across its unmeasured
    frames, its two pixel columns smoothed by adaptive DCT, then the
    wrist's Kalman pass (`posture.mjckf_correct`)."""
    return _calibrated_wrists([kp])[0]


def _torso_length(kp: KeypointSeries) -> np.ndarray:
    """Per-frame torso length in pixels, shoulder midpoint to hip midpoint."""
    joints, _ = _joint_tracks(kp, ("shoulder_l", "shoulder_r",
                                   "hip_l", "hip_r"))
    mid = 0.5 * (joints[:, 0::2] + joints[:, 1::2])   # shoulders, hips
    return np.hypot(*(mid[:, 0] - mid[:, 1]).T)


def video_speed_channels(kps: list[KeypointSeries]) -> list[tuple]:
    """Wrist swing speed and validity mask of each track. Pixel velocities
    over the smoothed torso length, which cancels the perspective growth of
    the approaching subject, are band-passed in the gait band before the
    magnitude, which strips the translation drift. A frame whose wrist is
    not measured is invalid. Tracks of one (frames, fps) share each call."""
    calibrated = _calibrated_wrists(kps)
    rates = [kp.frame_rate for kp in kps]
    scales = by_shape(adct_smooth, [_torso_length(kp) for kp in kps], rates,
                      AdctConfig(f_base=0.02, alpha=0.0))
    vels = by_shape(adaptive_bandpass,
                    [np.gradient(wrist, kp.t, axis=0)
                     / np.maximum(scale, 1e-6)[:, None]
                     for kp, (wrist, _), scale in zip(kps, calibrated, scales)],
                    rates)
    return [(normalize(Series1D(np.hypot(vel[:, 0], vel[:, 1]),
                                float(kp.t[0]), kp.frame_rate)), measured)
            for kp, vel, (_, measured) in zip(kps, vels, calibrated)]


def video_speed_channel(kp: KeypointSeries) -> tuple[Series1D, np.ndarray]:
    """The wrist speed and validity mask of one track."""
    return video_speed_channels([kp])[0]


def imu_speed_channels(chains: list[ImuChain]) -> list[Series1D]:
    """Hand speed of each IMU chain: the world-frame acceleration integrated
    to velocity, band-passed in the gait band (which suppresses integration
    drift far more cleanly than hard velocity resets) and reduced to a
    z-scored magnitude, which a turn about the vertical leaves unchanged."""
    rates = [chain.denoised.sample_rate for chain in chains]
    v_world = by_shape(adaptive_bandpass,
                       [integrate_velocity(chain.a_world, rate)
                        for chain, rate in zip(chains, rates)], rates)
    return [normalize(Series1D(np.linalg.norm(v, axis=1),
                               float(chain.denoised.t[0]), rate))
            for chain, v, rate in zip(chains, v_world, rates)]


def imu_speed_channel(imu: ImuSeries | ImuChain) -> Series1D:
    """The hand speed of one stream; a prepared `ImuChain` is used as is."""
    return imu_speed_channels([as_chain(imu)])[0]


def _aligned_pairs(captures: list[tuple]) -> list[AlignedPair]:
    """Both speed channels of each (chain, kp, offset, imu_valid) capture
    on one timeline: the IMU channels of the batch first, then the video
    channels, then each pair aligned."""
    imu_speeds = imu_speed_channels([chain for chain, *_ in captures])
    videos = video_speed_channels([kp for _, kp, _, _ in captures])
    return [align(speed, video, offset, imu_valid=imu_valid,
                  video_valid=video_valid)
            for speed, (video, video_valid), (_, _, offset, imu_valid)
            in zip(imu_speeds, videos, captures)]


def consistency_vector(imu: ImuSeries | ImuChain, kp: KeypointSeries,
                       offset: ClockOffsetEstimate) -> FeatureVector:
    """The 3-feature cross-modal consistency vector for one session."""
    row = compute_features(_aligned_pairs([(as_chain(imu), kp, offset,
                                            None)]))[0]
    return FeatureVector(*row.tolist())


def _window_pairs(pair: AlignedPair) -> list[AlignedPair]:
    """The full aligned pair plus half-overlapping sub-windows of the
    shortest overlap a verification accepts; enrollment trains on all of
    them so the boundary covers short-window variance."""
    out = [pair]
    n = len(pair.imu_speed)
    w = MIN_OVERLAP_SAMPLES
    step = max(w // 2, 1)
    if n >= w + step:
        for a in range(0, n - w + 1, step):
            out.append(AlignedPair(pair.imu_speed[a:a + w],
                                   pair.video_speed[a:a + w]))
    return out


def _shifted_pairs(pair: AlignedPair) -> list[AlignedPair]:
    """Misaligned surrogate negatives: the video channel circularly shifted
    by a fraction of a gait cycle, breaking the cross-modal phase lock while
    keeping every marginal statistic of both channels."""
    return [AlignedPair(pair.imu_speed,
                        np.roll(pair.video_speed, int(s * COMMON_RATE)))
            for s in MISALIGN_SHIFTS_S]


def gait_vectors(imu: ImuSeries | ImuChain) -> np.ndarray:
    """Per-cycle gait feature rows for one session, one batched pass over
    its cycles."""
    return cycle_feature_rows(gait_representation(imu))


@dataclass
class Enrollment:
    """Per-user models: cross-modal consistency and IMU gait signature.

    feature_mask selects the consistency features that discriminate aligned
    from misaligned pairs (Fisher-scored at enrollment); the remaining
    features carry mostly subject-specific channel quality, which the
    consistency check must not key on."""

    consistency_model: OcSvmModel
    gait_model: OcSvmModel
    feature_mask: np.ndarray
    fisher: FisherReport | None = None


def enroll_subjects(sessions_by_subject: list[list[tuple]]) -> list[Enrollment]:
    """Train both one-class models of each subject from its genuine
    enrollment sessions, `(imu, kp, offset)` tuples.

    The consistency model is calibrated against misaligned surrogate
    negatives (time-shifted channel pairings of the same sessions), so its
    threshold separates "streams agree" from "streams disagree" rather than
    hugging this user's training cloud. Enrollment draws no random numbers.

    The cohort runs one `imu_chains` call, one `_aligned_pairs` batch and
    one feature pass over every subject's windows and shifted pairs; then
    each subject runs its own Fisher selection and two fits. Each
    enrollment is bit for bit what the subject's sessions give alone, and
    a batch raises the error of its first failing stage.
    """
    sessions = [s for own in sessions_by_subject for s in own]
    chains = imu_chains([imu for imu, _, _ in sessions])
    pairs = _aligned_pairs([(chain, kp, offset, None)
                            for chain, (_, kp, offset) in zip(chains, sessions)])
    gaits = [gait_vectors(chain) for chain in chains]
    ends = list(accumulate(len(own) for own in sessions_by_subject))
    subjects = [slice(start, end) for start, end in zip([0, *ends], ends)]
    pos = [[w for pair in pairs[own] for w in _window_pairs(pair)]
           for own in subjects]
    neg = [[s for pair in pairs[own] for s in _shifted_pairs(pair)]
           for own in subjects]
    # one batch, each subject's windows then its shifted pairs: the pairs
    # of one length share their spectral passes
    sides = [side for both in zip(pos, neg) for side in both]
    rows = compute_features([pair for side in sides for pair in side])
    parts = np.split(rows, list(accumulate(map(len, sides)))[:-1])
    return [_fit(p, n, gaits[own])
            for p, n, own in zip(parts[0::2], parts[1::2], subjects)]


def _fit(pos: np.ndarray, neg: np.ndarray, gaits: list) -> Enrollment:
    """One subject's Fisher selection and its two fits, from its window
    rows `pos`, its shifted rows `neg` and its sessions' gait rows."""
    if len(pos) < 2 or len(neg) < 2:
        raise TooFewSamples("enrollment sessions yield too few feature "
                            "windows; record more or longer sessions")
    fisher = fisher_select(pos, neg)
    mask = fisher.selected.copy()
    if mask.sum() < 2:   # degenerate selection: keep the two strongest
        mask = fisher.normalized >= np.sort(fisher.normalized)[-2]
    cons = train_ocsvm_calibrated(pos[:, mask], neg[:, mask])
    gait = train_ocsvm(np.vstack(gaits))
    # fresh-session cycles sit slightly outside the enrollment cloud while
    # other subjects score far below; widen the boundary by a fixed margin
    # that absorbs the generalization gap without approaching impostors
    gait.rho -= GAIT_RHO_MARGIN
    return Enrollment(consistency_model=cons, gait_model=gait,
                      feature_mask=mask, fisher=fisher)


def enroll(sessions: list[tuple[ImuSeries, KeypointSeries, ClockOffsetEstimate]],
           seed: int = 0) -> Enrollment:
    """The models of one subject: the batch of one of enroll_subjects.
    `seed` is accepted and ignored, kept only for the callers that still
    pass it: tests/test_acceptance.py:77, tests/test_golden_scores.py and
    the benchmark's verify set-up."""
    return enroll_subjects([sessions])[0]


def consistency_scores(captures: list[tuple]) -> list[float]:
    """Consistency decision value of each paired capture, an `(enrollment,
    chain, kp, offset, imu_valid)` tuple whose IMU is a prepared `ImuChain`.
    The batch runs the video channels' column-wise stages once per shape
    and one feature pass, each value bit for bit its capture's alone."""
    rows = compute_features(_aligned_pairs([capture[1:]
                                            for capture in captures]))
    return [enrollment.consistency_model.score(row[enrollment.feature_mask])
            for (enrollment, *_), row in zip(captures, rows)]


def consistency_score(enrollment: Enrollment, imu: ImuSeries | ImuChain,
                      kp: KeypointSeries, offset: ClockOffsetEstimate,
                      imu_valid: np.ndarray | None = None) -> float:
    """Consistency decision value of one paired capture: the batch of one
    of consistency_scores, on the chain of `imu`."""
    return consistency_scores([(enrollment, as_chain(imu), kp, offset,
                                imu_valid)])[0]


def gait_score(enrollment: Enrollment, imu: ImuSeries | ImuChain) -> float:
    """Median per-cycle decision value for one session."""
    rows = gait_vectors(imu)
    return float(np.median(enrollment.gait_model.scores(rows)))
