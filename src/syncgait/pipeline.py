"""End-to-end composition: raw paired streams -> speed channels -> aligned
consistency features -> per-user models and signed decision scores.

The video chain is calibrate (adaptive DCT smoothing + cooperative Kalman),
differentiate the wrist, band-pass. The IMU chain is denoise, orientation,
gravity removal, velocity integration, gait-band band-pass,
body-relative projection. Every scoring entry point also takes prepared
streams (an `ImuChain`, the speed channels), so a session computes each
chain once and scores all three checks from it.

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
from .gait import (ImuChain, as_chain, cycle_feature_vector,
                   gait_representation, imu_chain)
from .orientation import integrate_velocity, project_body_relative
from .posture import (ARM_CHAIN, GAIT_BAND_HI, GAIT_BAND_LO, AdctConfig,
                      SpectralBand, adaptive_bandpass, adct_smooth,
                      mjckf_correct)
from .series import (JOINT_INDEX, MISSING_CONF, ImuSeries, KeypointSeries,
                     Series1D, fill_gaps, normalize, require_squarable)
from .syncing import (COMMON_RATE, MIN_OVERLAP_S, AlignedPair,
                      ClockOffsetEstimate, align)

HEADING_SMOOTH_S = 0.5
MISALIGN_SHIFTS_S = (0.3, 0.55, 0.8)  # surrogate-negative video shifts
GAIT_RHO_MARGIN = 0.05

# the scoring entry points take each stream raw or prepared
VideoSpeed = tuple[Series1D, np.ndarray]      # video_speed_channel output
ImuInput = ImuSeries | ImuChain | Series1D    # Series1D: imu_speed_channel
VideoInput = KeypointSeries | VideoSpeed


def _gait_band(rate: float) -> SpectralBand:
    return SpectralBand(GAIT_BAND_LO, min(GAIT_BAND_HI, 0.45 * rate))


def _fill_gaps(kp: KeypointSeries, name: str, k: int) -> np.ndarray:
    """Pixel coordinate k of one joint's track, interpolated across missing
    detections before smoothing."""
    j = JOINT_INDEX[name]
    return fill_gaps(kp.t, kp.uv[:, j, k], kp.conf[:, j] >= MISSING_CONF)


def calibrate_keypoints(kp: KeypointSeries) -> KeypointSeries:
    """Adaptive DCT smoothing of each ARM_CHAIN joint track, then the
    cooperative Kalman correction pass (which also bridges low-confidence
    frames).

    Only the phone's arm is calibrated, the one the speed channel reads;
    the sides are independent, so the other arm's joints pass through."""
    require_squarable("keypoint", kp.uv)
    uv = kp.uv.copy()
    for name in ARM_CHAIN:
        for k in (0, 1):
            x = _fill_gaps(kp, name, k)
            if len(x) >= 4:
                x = adct_smooth(Series1D(x, rate=kp.frame_rate)).values
            uv[:, JOINT_INDEX[name], k] = x
    return mjckf_correct(KeypointSeries(kp.t, uv, kp.conf, kp.frame_rate))


def _torso_scale(kp: KeypointSeries) -> np.ndarray:
    """Smoothed per-frame torso length in pixels (shoulder midpoint to hip
    midpoint); the apparent-size reference that cancels perspective growth
    as the subject approaches the camera."""
    su, sv, hu, hv = (0.5 * (_fill_gaps(kp, f"{part}_l", k)
                             + _fill_gaps(kp, f"{part}_r", k))
                      for part in ("shoulder", "hip") for k in (0, 1))
    scale = np.hypot(su - hu, sv - hv)
    if len(scale) >= 4:
        scale = adct_smooth(Series1D(scale, rate=kp.frame_rate),
                            AdctConfig(f_base=0.02, alpha=0.0)).values
    return np.maximum(scale, 1e-6)


def video_speed_channel(kp: KeypointSeries) -> VideoSpeed:
    """Wrist swing speed from calibrated keypoints plus a validity mask.

    Pixel velocities are divided by the smoothed torso scale (cancelling
    the perspective amplitude growth of the approaching subject) and
    band-passed per component in the gait band before taking the magnitude,
    which strips the slow translation drift. Frames whose wrist detection
    fell below the missing-confidence level are marked invalid (bridged,
    not measured).
    """
    wrist = JOINT_INDEX[ARM_CHAIN[0]]
    uv = calibrate_keypoints(kp).uv[:, wrist]
    t = kp.t
    scale = _torso_scale(kp)
    vel = np.column_stack([np.gradient(uv[:, 0], t) / scale,
                           np.gradient(uv[:, 1], t) / scale])
    vel = adaptive_bandpass(Series1D(vel, rate=kp.frame_rate),
                            _gait_band(kp.frame_rate)).values
    speed = normalize(Series1D(np.hypot(vel[:, 0], vel[:, 1]),
                               t0=float(t[0]), rate=kp.frame_rate))
    return speed, kp.conf[:, wrist] >= MISSING_CONF


def imu_speed_channel(imu: ImuSeries | ImuChain) -> Series1D:
    """Body-relative hand speed from the IMU alone.

    Orientation comes from the attitude filter; the world-frame acceleration
    (gravity removed) is integrated to velocity, the components are
    band-passed in the gait band (which suppresses integration drift far
    more cleanly than hard velocity resets), and the result is projected
    into the body frame using the smoothed heading and reduced to a
    z-scored speed magnitude. A prepared `ImuChain` is used as is.
    """
    chain = as_chain(imu)
    denoised = chain.denoised
    v_world = integrate_velocity(chain.a_world, denoised.sample_rate)
    v_world = adaptive_bandpass(Series1D(v_world, rate=denoised.sample_rate),
                                _gait_band(denoised.sample_rate)).values

    yaw = np.unwrap(chain.euler[:, 2])
    win = max(int(HEADING_SMOOTH_S * denoised.sample_rate), 1)
    pad = np.pad(yaw, (win // 2, win - 1 - win // 2), mode="edge")
    heading = np.convolve(pad, np.ones(win) / win, mode="valid")

    v_body = project_body_relative(v_world, heading)
    return normalize(Series1D(np.linalg.norm(v_body, axis=1),
                              float(denoised.t[0]), denoised.sample_rate))


def aligned_speeds(imu: ImuInput, kp: VideoInput,
                   offset: ClockOffsetEstimate,
                   imu_valid: np.ndarray | None = None) -> AlignedPair:
    """Both speed channels on one timeline.

    Either stream may come prepared, so a session computes each chain once:
    `imu` is an ImuSeries, its ImuChain or its imu_speed_channel output;
    `kp` is a KeypointSeries or its video_speed_channel output.
    """
    imu_speed = (imu_speed_channel(imu)
                 if isinstance(imu, (ImuSeries, ImuChain)) else imu)
    video_speed, video_valid = (video_speed_channel(kp)
                                if isinstance(kp, KeypointSeries) else kp)
    return align(imu_speed, video_speed, offset,
                 imu_valid=imu_valid, video_valid=video_valid)


def consistency_vector(imu: ImuInput, kp: VideoInput,
                       offset: ClockOffsetEstimate,
                       imu_valid: np.ndarray | None = None) -> FeatureVector:
    """The 6-feature cross-modal consistency vector for one session."""
    return compute_features([aligned_speeds(imu, kp, offset, imu_valid)])[0]


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
    """Per-cycle gait feature rows for one session."""
    cycles = gait_representation(imu)
    return np.array([cycle_feature_vector(c) for c in cycles])


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
    vecs = compute_features(pos_pairs + neg_pairs)
    pos_vecs, neg_vecs = vecs[:len(pos_pairs)], vecs[len(pos_pairs):]
    if len(pos_vecs) < 2 or len(neg_vecs) < 2:
        raise TooFewSamples("enrollment sessions yield too few feature "
                            "windows; record more or longer sessions")
    fisher = fisher_select(pos_vecs, neg_vecs)
    mask = fisher.selected.copy()
    if mask.sum() < 2:   # degenerate selection: keep the two strongest
        mask = fisher.normalized >= np.sort(fisher.normalized)[-2]
    pos = np.array([v.as_array() for v in pos_vecs])[:, mask]
    neg = np.array([v.as_array() for v in neg_vecs])[:, mask]
    cons = train_ocsvm_calibrated(pos, neg)
    gait = train_ocsvm(np.vstack(gaits), seed=seed)
    # fresh-session cycles sit slightly outside the enrollment cloud while
    # other subjects score far below; widen the boundary by a fixed margin
    # that absorbs the generalization gap without approaching impostors
    gait.rho -= GAIT_RHO_MARGIN
    return Enrollment(consistency_model=cons, gait_model=gait,
                      feature_mask=mask, fisher=fisher)


def consistency_score(enrollment: Enrollment, imu: ImuInput,
                      kp: VideoInput, offset: ClockOffsetEstimate,
                      imu_valid: np.ndarray | None = None) -> float:
    """Consistency decision value of one paired capture; the streams may
    come prepared (see aligned_speeds)."""
    vec = consistency_vector(imu, kp, offset, imu_valid).as_array()
    return enrollment.consistency_model.score(vec[enrollment.feature_mask])


def gait_score(enrollment: Enrollment, imu: ImuSeries | ImuChain) -> float:
    """Median per-cycle decision value for one session."""
    rows = gait_vectors(imu)
    return float(np.median(enrollment.gait_model.scores(rows)))
