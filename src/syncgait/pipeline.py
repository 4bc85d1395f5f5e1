"""End-to-end composition: raw paired streams -> speed channels -> aligned
consistency features -> per-user models and signed decision scores.

The video chain calibrates one array track of the phone's arm (gap fill,
adaptive DCT smoothing, cooperative Kalman), differentiates its wrist and
band-passes. The IMU chain is denoise, orientation, gravity removal,
velocity integration, gait-band band-pass, magnitude. A stream too short
for a stage is SeriesTooShort at the first stage that needs the length.
Every entry point takes the streams themselves: the IMU as an `ImuSeries`
or its `ImuChain`, so a caller that scores one IMU view several times
(the consistency and gait checks of an attempt) runs its denoise and AHRS
once, and the keypoints as a `KeypointSeries`. The consistency features
of one or many pairs are one (m, 6) array, FEATURE_NAMES columns.

The pipeline takes no settings: each stage reads its module's constants
(`posture.ARM_CHAIN` and the MJCKF noise levels, the AHRS gains in
`orientation`, `series.DENOISE_LEVELS`, the `gait` period bounds,
`syncing.COMMON_RATE`, the OC-SVM grids and calibration in `classify`) and
the enrollment constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import OcSvmModel, train_ocsvm, train_ocsvm_calibrated
from .errors import TooFewSamples
from .features import (FeatureVector, FisherReport, compute_features,
                       fisher_select)
from .gait import (ImuChain, as_chain, cycle_feature_rows,
                   gait_representation, imu_chain)
from .orientation import integrate_velocity
from .posture import (ARM_CHAIN, AdctConfig, adaptive_bandpass, adct_smooth,
                      mjckf_correct)
from .series import (JOINT_INDEX, MISSING_CONF, ImuSeries, KeypointSeries,
                     Series1D, fill_gaps, normalize, require_squarable)
from .syncing import (COMMON_RATE, MIN_OVERLAP_S, AlignedPair,
                      ClockOffsetEstimate, align)

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


def calibrate_keypoints(kp: KeypointSeries) -> tuple[np.ndarray, np.ndarray]:
    """The calibrated (n, 3, 2) ARM_CHAIN track and its (n, 3) measured mask.

    Each joint is interpolated across its missing detections, the six pixel
    columns are smoothed by adaptive DCT in one call, and the cooperative
    Kalman pass corrects the chain, bridging the unmeasured frames. Only
    the phone's arm is calibrated, the one the speed channel reads."""
    require_squarable("keypoint", kp.uv)
    track, measured = _joint_tracks(kp, ARM_CHAIN)
    arm = adct_smooth(Series1D(track.reshape(len(track), -1),
                               rate=kp.frame_rate)).values
    return mjckf_correct(arm.reshape(track.shape), measured,
                         kp.frame_rate), measured


def _torso_scale(kp: KeypointSeries) -> np.ndarray:
    """Smoothed per-frame torso length in pixels (shoulder midpoint to hip
    midpoint); the apparent-size reference that cancels perspective growth
    as the subject approaches the camera."""
    joints, _ = _joint_tracks(kp, ("shoulder_l", "shoulder_r",
                                   "hip_l", "hip_r"))
    mid = 0.5 * (joints[:, 0::2] + joints[:, 1::2])   # shoulders, hips
    torso = mid[:, 0] - mid[:, 1]
    scale = np.hypot(torso[:, 0], torso[:, 1])
    scale = adct_smooth(Series1D(scale, rate=kp.frame_rate),
                        AdctConfig(f_base=0.02, alpha=0.0)).values
    return np.maximum(scale, 1e-6)


def video_speed_channel(kp: KeypointSeries) -> tuple[Series1D, np.ndarray]:
    """Wrist swing speed from calibrated keypoints plus a validity mask.

    Pixel velocities are divided by the smoothed torso scale (cancelling
    the perspective amplitude growth of the approaching subject) and
    band-passed per component in the gait band before taking the magnitude,
    which strips the slow translation drift. Frames whose wrist detection
    fell below the missing-confidence level are marked invalid (bridged,
    not measured).
    """
    track, measured = calibrate_keypoints(kp)
    vel = np.gradient(track[:, 0], kp.t, axis=0) / _torso_scale(kp)[:, None]
    vel = adaptive_bandpass(Series1D(vel, rate=kp.frame_rate)).values
    speed = normalize(Series1D(np.hypot(vel[:, 0], vel[:, 1]),
                               t0=float(kp.t[0]), rate=kp.frame_rate))
    return speed, measured[:, 0]


def imu_speed_channel(imu: ImuSeries | ImuChain) -> Series1D:
    """Hand speed from the IMU alone.

    Orientation comes from the attitude filter; the world-frame acceleration
    (gravity removed) is integrated to velocity, the components are
    band-passed in the gait band (which suppresses integration drift far
    more cleanly than hard velocity resets), and the result is reduced to a
    z-scored speed magnitude, which a turn about the vertical leaves
    unchanged. A prepared `ImuChain` is used as is.
    """
    chain = as_chain(imu)
    rate = chain.denoised.sample_rate
    v_world = integrate_velocity(chain.a_world, rate)
    v_world = adaptive_bandpass(Series1D(v_world, rate=rate)).values
    return normalize(Series1D(np.linalg.norm(v_world, axis=1),
                              float(chain.denoised.t[0]), rate))


def aligned_speeds(imu: ImuSeries | ImuChain, kp: KeypointSeries,
                   offset: ClockOffsetEstimate,
                   imu_valid: np.ndarray | None = None) -> AlignedPair:
    """Both speed channels on one timeline, the IMU's computed first."""
    imu_speed = imu_speed_channel(imu)
    video_speed, video_valid = video_speed_channel(kp)
    return align(imu_speed, video_speed, offset,
                 imu_valid=imu_valid, video_valid=video_valid)


def consistency_vector(imu: ImuSeries | ImuChain, kp: KeypointSeries,
                       offset: ClockOffsetEstimate,
                       imu_valid: np.ndarray | None = None) -> FeatureVector:
    """The 6-feature cross-modal consistency vector for one session."""
    row = compute_features([aligned_speeds(imu, kp, offset, imu_valid)])[0]
    return FeatureVector(*row.tolist())


def _window_pairs(pair: AlignedPair) -> list[AlignedPair]:
    """The full aligned pair plus half-overlapping sub-windows of the
    shortest overlap a verification accepts; enrollment trains on all of
    them so the boundary covers short-window variance."""
    out = [pair]
    n = len(pair.imu_speed)
    w = int(MIN_OVERLAP_S * COMMON_RATE)
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


def enroll(sessions: list[tuple[ImuSeries, KeypointSeries, ClockOffsetEstimate]],
           seed: int = 0) -> Enrollment:
    """Train both one-class models from genuine enrollment sessions.

    The consistency model is calibrated against misaligned surrogate
    negatives (time-shifted channel pairings of the same sessions), so its
    threshold separates "streams agree" from "streams disagree" rather than
    hugging this user's training cloud.
    """
    pos_pairs: list[AlignedPair] = []
    neg_pairs: list[AlignedPair] = []
    gaits = []
    for imu, kp, offset in sessions:
        chain = imu_chain(imu)
        pair = aligned_speeds(chain, kp, offset)
        pos_pairs += _window_pairs(pair)
        neg_pairs += _shifted_pairs(pair)
        gaits.append(gait_vectors(chain))
    # one batch: the pairs of one length share their spectral passes
    rows = compute_features(pos_pairs + neg_pairs)
    pos, neg = rows[:len(pos_pairs)], rows[len(pos_pairs):]
    if len(pos) < 2 or len(neg) < 2:
        raise TooFewSamples("enrollment sessions yield too few feature "
                            "windows; record more or longer sessions")
    fisher = fisher_select(pos, neg)
    mask = fisher.selected.copy()
    if mask.sum() < 2:   # degenerate selection: keep the two strongest
        mask = fisher.normalized >= np.sort(fisher.normalized)[-2]
    cons = train_ocsvm_calibrated(pos[:, mask], neg[:, mask])
    gait = train_ocsvm(np.vstack(gaits), seed=seed)
    # fresh-session cycles sit slightly outside the enrollment cloud while
    # other subjects score far below; widen the boundary by a fixed margin
    # that absorbs the generalization gap without approaching impostors
    gait.rho -= GAIT_RHO_MARGIN
    return Enrollment(consistency_model=cons, gait_model=gait,
                      feature_mask=mask, fisher=fisher)


def consistency_score(enrollment: Enrollment, imu: ImuSeries | ImuChain,
                      kp: KeypointSeries, offset: ClockOffsetEstimate,
                      imu_valid: np.ndarray | None = None) -> float:
    """Consistency decision value of one paired capture."""
    row = compute_features([aligned_speeds(imu, kp, offset, imu_valid)])[0]
    return enrollment.consistency_model.score(row[enrollment.feature_mask])


def gait_score(enrollment: Enrollment, imu: ImuSeries | ImuChain) -> float:
    """Median per-cycle decision value for one session."""
    rows = gait_vectors(imu)
    return float(np.median(enrollment.gait_model.scores(rows)))
