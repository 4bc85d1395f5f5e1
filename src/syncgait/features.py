"""Cross-modal consistency features and Fisher-score selection.

Four time-domain features (Pearson, Spearman, MAE, synchronization-lag
score) and two frequency-domain features (band-limited coherence mean,
spectral difference) of each aligned speed pair in a batch.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.signal import csd, welch
from scipy.stats import pearsonr, spearmanr

from .errors import (DegenerateChannel, DegenerateClass, PairTooShort,
                     SyncGaitError)
from .posture import SpectralBand, estimate_band
from .series import Series1D
from .syncing import COMMON_RATE, MIN_OVERLAP_S, AlignedPair

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
    normalized: np.ndarray
    selected: np.ndarray


def _sync_lag_score(a: np.ndarray, b: np.ndarray) -> float:
    max_lag = max(int(round(MAX_LAG_S * COMMON_RATE)), 1)
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


def _pair_error(pair: AlignedPair) -> SyncGaitError | None:
    """The error a pair too short or too flat to score raises, else None."""
    a, b = pair.imu_speed, pair.video_speed
    if len(a) < int(MIN_OVERLAP_S * COMMON_RATE):
        return PairTooShort(f"{len(a)} samples")
    if a.std() == 0 or b.std() == 0:
        return DegenerateChannel("zero-variance channel")
    return None


def _spectra(a: np.ndarray, b: np.ndarray) -> list[tuple]:
    """Per row of the equal-length rows a, b (m, n): Pearson r, the Welch
    frequencies, coherence and IMU power, and both centred FFT magnitudes.

    One Welch pass per side, one cross-spectrum, one Pearson call and one
    FFT per side cover every row. Coherence is scipy's own
    |Pxy|^2 / Pxx / Pyy, so its power weights come from the same Pxx."""
    nper = min(int(2 * COMMON_RATE), a.shape[1])
    kw = dict(fs=COMMON_RATE, nperseg=nper, noverlap=nper // 2)
    freqs, pxx = welch(a, **kw)
    _, pyy = welch(b, **kw)
    _, pxy = csd(a, b, **kw)
    coh = np.abs(pxy) ** 2 / pxx / pyy
    pcc = pearsonr(a, b, axis=-1)[0]
    spec_a = np.abs(np.fft.rfft(a - a.mean(axis=1, keepdims=True)))
    spec_b = np.abs(np.fft.rfft(b - b.mean(axis=1, keepdims=True)))
    return [(pcc[r], freqs, coh[r], pxx[r], spec_a[r], spec_b[r])
            for r in range(len(a))]


def _features(pair: AlignedPair, pcc: float, freqs_c: np.ndarray,
              coh: np.ndarray, pxx: np.ndarray, spec_a: np.ndarray,
              spec_b: np.ndarray) -> FeatureVector:
    """One pair's features from its row of _spectra."""
    a, b = pair.imu_speed, pair.video_speed
    band = estimate_band(Series1D(a, rate=COMMON_RATE))
    cb = _band_bins(freqs_c, band)
    # power-weighted so empty bins inside the band cannot dilute the score
    w = pxx[cb]
    coh_mean = float((coh[cb] * w).sum() / w.sum()) if w.sum() > 0 \
        else float(np.mean(coh[cb]))

    bins = _band_bins(np.fft.rfftfreq(len(a), d=1.0 / COMMON_RATE), band)
    sa, sb = spec_a[bins], spec_b[bins]
    na, nb = np.linalg.norm(sa), np.linalg.norm(sb)
    if na == 0 or nb == 0:
        raise DegenerateChannel("empty spectrum in gait band")
    spec_diff = float(np.linalg.norm(sa / na - sb / nb))

    return FeatureVector(pcc=float(pcc), spearman=float(spearmanr(a, b)[0]),
                         mae=float(np.mean(np.abs(a - b))),
                         sync_lag_score=_sync_lag_score(a, b),
                         coherence_mean=coh_mean, spectral_diff=spec_diff)


def compute_features(pairs: Sequence[AlignedPair]) -> list[FeatureVector]:
    """The 6 consistency features of each aligned speed pair, in order, the
    spectral ones in the band estimated from the pair's IMU channel.

    The pairs of one length are stacked into rows that share one Welch pass
    per side, one cross-spectrum, one Pearson call and one FFT per side
    (_spectra); the band, Spearman, sync lag, MAE and band sums are per
    pair. Each vector is bit for bit what its pair gives alone, and a
    batch raises the error of its first pair that cannot be scored.
    """
    pairs = list(pairs)
    bad = next((i for i, p in enumerate(pairs) if _pair_error(p)),
               len(pairs))
    rows: dict[int, tuple] = {}
    for n in {len(p.imu_speed) for p in pairs[:bad]}:
        idx = [i for i in range(bad) if len(pairs[i].imu_speed) == n]
        rows.update(zip(idx, _spectra(
            np.stack([pairs[i].imu_speed for i in idx]),
            np.stack([pairs[i].video_speed for i in idx]))))
    out = [_features(pairs[i], *rows[i]) for i in range(bad)]
    if bad < len(pairs):
        raise _pair_error(pairs[bad])
    return out


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
    return FisherReport(names=FEATURE_NAMES, normalized=normalized,
                        selected=normalized > FISHER_SELECT_THRESHOLD)

