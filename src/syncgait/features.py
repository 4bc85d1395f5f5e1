"""Cross-modal consistency features and Fisher-score selection.

Four time-domain features (Pearson, Spearman, MAE, synchronization-lag
score) and two frequency-domain features (band-limited coherence mean,
spectral difference) computed on an aligned speed pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import coherence, welch
from scipy.stats import pearsonr, spearmanr

from .errors import (DegenerateChannel, DegenerateClass, PairTooShort,
                     SyncGaitError)
from .posture import GAIT_BAND_HI, GAIT_BAND_LO, SpectralBand, estimate_band
from .series import Series1D
from .syncing import AlignedPair

MAX_LAG_S = 0.5
FISHER_SELECT_THRESHOLD = 0.7
FEATURE_NAMES = ("pcc", "spearman", "mae", "sync", "coh", "specdiff")


@dataclass(frozen=True)
class FeatureVector:
    pcc: float
    spearman: float
    mae: float
    sync_lag_score: float
    coherence_mean: float
    spectral_diff: float

    def as_array(self) -> np.ndarray:
        return np.array([self.pcc, self.spearman, self.mae,
                         self.sync_lag_score, self.coherence_mean,
                         self.spectral_diff])


@dataclass(frozen=True)
class FisherReport:
    names: tuple[str, ...]
    raw_scores: np.ndarray
    normalized: np.ndarray
    selected: np.ndarray


def _sync_lag_score(a: np.ndarray, b: np.ndarray, rate: float) -> float:
    max_lag = max(int(round(MAX_LAG_S * rate)), 1)
    az = a - a.mean()
    bz = b - b.mean()
    full = np.correlate(az, bz, mode="full")
    center = len(a) - 1
    window = full[center - max_lag:center + max_lag + 1]
    lag = int(np.argmax(window)) - max_lag
    return 1.0 - abs(lag) / max_lag


def _band_bins(freqs: np.ndarray, band: SpectralBand) -> np.ndarray:
    mask = (freqs >= band.f_lo) & (freqs <= band.f_hi)
    if not mask.any():
        mask = freqs > 0
    return mask


def compute_features(pair: AlignedPair) -> FeatureVector:
    """The 6 consistency features on one aligned speed pair, the spectral
    ones in the band estimated from the IMU channel."""
    a = pair.imu_speed.values
    b = pair.video_speed.values
    if len(a) < 100:
        raise PairTooShort(f"{len(a)} samples")
    if a.std() == 0 or b.std() == 0:
        raise DegenerateChannel("zero-variance channel")
    rate = pair.common_rate
    try:
        band = estimate_band(Series1D(a, rate=rate))
    except SyncGaitError:
        band = SpectralBand(GAIT_BAND_LO, GAIT_BAND_HI)

    pcc = float(pearsonr(a, b)[0])
    rho = float(spearmanr(a, b)[0])
    mae = float(np.mean(np.abs(a - b)))
    sync = _sync_lag_score(a, b, rate)

    nper = min(int(2 * rate), len(a))
    freqs_c, coh = coherence(a, b, fs=rate, nperseg=nper, noverlap=nper // 2)
    _, pxx = welch(a, fs=rate, nperseg=nper, noverlap=nper // 2)
    cb = _band_bins(freqs_c, band)
    # power-weighted so empty bins inside the band cannot dilute the score
    w = pxx[cb]
    coh_mean = float((coh[cb] * w).sum() / w.sum()) if w.sum() > 0 \
        else float(np.mean(coh[cb]))

    spec_a = np.abs(np.fft.rfft(a - a.mean()))
    spec_b = np.abs(np.fft.rfft(b - b.mean()))
    freqs = np.fft.rfftfreq(len(a), d=1.0 / rate)
    bins = _band_bins(freqs, band)
    sa, sb = spec_a[bins], spec_b[bins]
    na, nb = np.linalg.norm(sa), np.linalg.norm(sb)
    if na == 0 or nb == 0:
        raise DegenerateChannel("empty spectrum in gait band")
    spec_diff = float(np.linalg.norm(sa / na - sb / nb))

    return FeatureVector(pcc=pcc, spearman=rho, mae=mae, sync_lag_score=sync,
                         coherence_mean=coh_mean, spectral_diff=spec_diff)


def fisher_select(genuine: list[FeatureVector],
                  impostor: list[FeatureVector]) -> FisherReport:
    """Per-feature Fisher score (mu_g - mu_i)^2 / (var_g + var_i), normalized
    by the maximum; features above the selection threshold are kept."""
    if len(genuine) < 2 or len(impostor) < 2:
        raise ValueError("need >= 2 samples per class")
    g = np.array([f.as_array() for f in genuine])
    i = np.array([f.as_array() for f in impostor])
    num = (g.mean(axis=0) - i.mean(axis=0)) ** 2
    den = g.var(axis=0) + i.var(axis=0)
    raw = np.zeros(g.shape[1])
    for k in range(g.shape[1]):
        if den[k] == 0:
            if num[k] == 0:
                raw[k] = 0.0
            else:
                raise DegenerateClass(f"feature {FEATURE_NAMES[k]}: zero variance, "
                                      "distinct means")
        else:
            raw[k] = num[k] / den[k]
    peak = raw.max()
    normalized = raw / peak if peak > 0 else raw.copy()
    return FisherReport(names=FEATURE_NAMES, raw_scores=raw, normalized=normalized,
                        selected=normalized > FISHER_SELECT_THRESHOLD)

