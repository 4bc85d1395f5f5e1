"""Cross-modal consistency features and Fisher-score selection.

Four time-domain features (Pearson, Spearman, MAE, synchronization-lag
score) and two frequency-domain features (band-limited coherence mean,
spectral difference) of each aligned speed pair in a batch, from one
segment FFT and one whole-row FFT per side and row-wise correlations.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import get_window
from scipy.stats import rankdata

from .errors import (DegenerateChannel, DegenerateClass, PairTooShort,
                     SyncGaitError)
from .posture import estimate_band
from .series import groups
from .syncing import COMMON_RATE, MIN_OVERLAP_SAMPLES, AlignedPair

MAX_LAG_S = 0.5
FISHER_SELECT_THRESHOLD = 0.7
FEATURE_NAMES = ("pcc", "spearman", "mae", "sync", "coh", "specdiff")


class FeatureVector(namedtuple("FeatureVector", FEATURE_NAMES)):
    """One pair's features by name: its compute_features row, as_array."""

    __slots__ = ()

    def as_array(self) -> np.ndarray:
        return np.array(self)


@dataclass(frozen=True)
class FisherReport:
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


def _band_bins(freqs: np.ndarray, band: tuple[float, float]) -> np.ndarray:
    mask = (freqs >= band[0]) & (freqs <= band[1])
    if not mask.any():
        mask = freqs > 0
    return mask


def _pair_error(pair: AlignedPair) -> SyncGaitError | None:
    """The error a pair too short or too flat to score raises, else None."""
    a, b = pair.imu_speed, pair.video_speed
    if len(a) < MIN_OVERLAP_SAMPLES:
        return PairTooShort(f"{len(a)} samples")
    if a.std() == 0 or b.std() == 0:
        return DegenerateChannel("zero-variance channel")
    return None


def _correlation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson r of each row pair of x, y (m, n), clipped as pearsonr's."""
    x, y = x - x.mean(axis=1, keepdims=True), y - y.mean(axis=1, keepdims=True)
    r = (x * y).sum(axis=1) / np.sqrt((x * x).sum(axis=1) * (y * y).sum(axis=1))
    return np.clip(r, -1.0, 1.0)


def _spectra(a: np.ndarray, b: np.ndarray) -> list[tuple]:
    """Per row of the equal-length rows a, b (m, n): Pearson r, Spearman
    rho, the Welch frequencies, coherence and IMU power, and both centred
    FFT magnitudes. The Welch spectra come from one FFT per side of the
    rows' mean-removed, Hann-windowed 2 s segments at half overlap; a bin
    where either side has no Welch power has coherence 0, not 0 / 0."""
    nper = int(2 * COMMON_RATE)   # pairs are at least 3 s long
    win = get_window("hann", nper)
    win *= np.sqrt(1 / (COMMON_RATE * (win * win).sum()))   # density scale

    def segment_fft(x: np.ndarray) -> np.ndarray:
        seg = sliding_window_view(x, nper, axis=1)[:, ::nper // 2]
        return np.fft.rfft((seg - seg.mean(axis=2, keepdims=True)) * win)
    fa, fb = segment_fft(a), segment_fft(b)
    pxx = (fa.real ** 2 + fa.imag ** 2).mean(axis=1)
    pyy = (fb.real ** 2 + fb.imag ** 2).mean(axis=1)
    pxy = (fa.conj() * fb).mean(axis=1)
    for p in (pxx, pyy, pxy):   # one-sided: every bin but DC and Nyquist
        p[:, 1:-1] *= 2
    power = (pxx > 0) & (pyy > 0)
    coh = np.zeros_like(pxx)
    coh[power] = np.abs(pxy[power]) ** 2 / pxx[power] / pyy[power]
    freqs = np.fft.rfftfreq(nper, d=1.0 / COMMON_RATE)
    pcc = _correlation(a, b)
    rho = _correlation(rankdata(a, axis=1), rankdata(b, axis=1))
    spec_a = np.abs(np.fft.rfft(a - a.mean(axis=1, keepdims=True)))
    spec_b = np.abs(np.fft.rfft(b - b.mean(axis=1, keepdims=True)))
    return [(pcc[r], rho[r], freqs, coh[r], pxx[r], spec_a[r], spec_b[r])
            for r in range(len(a))]


def _features(pair: AlignedPair, pcc: float, spearman: float,
              freqs_c: np.ndarray, coh: np.ndarray, pxx: np.ndarray,
              spec_a: np.ndarray, spec_b: np.ndarray) -> list[float]:
    """One pair's feature row, FEATURE_NAMES order, from its row of
    _spectra."""
    a, b = pair.imu_speed, pair.video_speed
    band = estimate_band(spec_a ** 2, len(a), COMMON_RATE)
    cb = _band_bins(freqs_c, band)
    # power-weighted so empty bins inside the band cannot dilute the score
    w = pxx[cb]
    coh_mean = float((coh[cb] * w).sum() / w.sum()) if w.sum() > 0 else 0.0

    bins = _band_bins(np.fft.rfftfreq(len(a), d=1.0 / COMMON_RATE), band)
    sa, sb = spec_a[bins], spec_b[bins]
    na, nb = np.linalg.norm(sa), np.linalg.norm(sb)
    if na == 0 or nb == 0:
        raise DegenerateChannel("empty spectrum in gait band")
    spec_diff = float(np.linalg.norm(sa / na - sb / nb))

    return [pcc, spearman, np.mean(np.abs(a - b)), _sync_lag_score(a, b),
            coh_mean, spec_diff]


def compute_features(pairs: Sequence[AlignedPair]) -> np.ndarray:
    """The (m, 6) consistency features of m aligned speed pairs, one row per
    pair in order and columns in FEATURE_NAMES order, the spectral ones in
    the band estimated from the pair's IMU channel.

    The pairs of one length are stacked into rows that share one segment
    FFT and one whole-row FFT per side and row-wise Pearson and Spearman
    (_spectra); the band (from the IMU row's FFT), sync lag, MAE and band
    sums are per pair. Each row is bit for bit what its pair gives alone,
    and a batch raises the error of its first pair that cannot be scored.
    """
    pairs = list(pairs)
    bad = next((i for i, p in enumerate(pairs) if _pair_error(p)),
               len(pairs))
    rows: dict[int, tuple] = {}
    for idx in groups([len(p.imu_speed) for p in pairs[:bad]]).values():
        rows.update(zip(idx, _spectra(
            np.stack([pairs[i].imu_speed for i in idx]),
            np.stack([pairs[i].video_speed for i in idx]))))
    out = [_features(pairs[i], *rows[i]) for i in range(bad)]
    if bad < len(pairs):
        raise _pair_error(pairs[bad])
    return np.array(out, dtype=float).reshape(-1, len(FEATURE_NAMES))


def fisher_select(g: np.ndarray, i: np.ndarray) -> FisherReport:
    """Per-feature Fisher score (mu_g - mu_i)^2 / (var_g + var_i) of the
    genuine rows g against the impostor rows i, normalized by the maximum;
    features above the selection threshold are kept."""
    if len(g) < 2 or len(i) < 2:
        raise ValueError("need >= 2 samples per class")
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
    return FisherReport(normalized=normalized,
                        selected=normalized > FISHER_SELECT_THRESHOLD)

