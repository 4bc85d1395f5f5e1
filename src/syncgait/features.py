"""Cross-modal consistency features and Fisher-score selection.

Two time-domain features (Pearson r, mean absolute difference) and one
frequency-domain feature (band-limited coherence mean) of each aligned
speed pair in a batch. The pairs of one length run as one group, in array
passes: one std per side, one segment FFT per side and one whole-row FFT
of the IMU side, row-wise correlations, and the in-band sums as row
reductions. The IMU side (its FFTs and the gait band's two-pointer scan)
runs once per distinct IMU array of the group.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import get_window

from .errors import (DegenerateChannel, DegenerateClass, PairTooShort,
                     SyncGaitError)
from .posture import estimate_band
from .series import groups
from .syncing import COMMON_RATE, MIN_OVERLAP_SAMPLES, AlignedPair

FISHER_SELECT_THRESHOLD = 0.7
FEATURE_NAMES = ("pcc", "mae", "coh")


class FeatureVector(namedtuple("FeatureVector", FEATURE_NAMES)):
    """One pair's features by name: its compute_features row, as_array."""

    __slots__ = ()

    def as_array(self) -> np.ndarray:
        return np.array(self)


@dataclass(frozen=True)
class FisherReport:
    normalized: np.ndarray
    selected: np.ndarray


_NPER = int(2 * COMMON_RATE)   # Welch segments of 2 s; pairs are >= 3 s
_WELCH_FREQS = np.fft.rfftfreq(_NPER, d=1.0 / COMMON_RATE)
_WINDOW = get_window("hann", _NPER)
_WINDOW *= np.sqrt(1 / (COMMON_RATE * (_WINDOW * _WINDOW).sum()))   # density
_WELCH_FREQS.flags.writeable = _WINDOW.flags.writeable = False

# one length group's spectral pass, one row per pair: Pearson r, Welch
# coherence and IMU power at _WELCH_FREQS, and the (lo, hi) gait band of
# the IMU row
_Spectra = namedtuple("_Spectra", "pcc coh pxx band")


def _correlation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson r of each row pair of x, y (m, n), clipped as pearsonr's."""
    x, y = x - x.mean(axis=1, keepdims=True), y - y.mean(axis=1, keepdims=True)
    r = (x * y).sum(axis=1) / np.sqrt((x * x).sum(axis=1) * (y * y).sum(axis=1))
    return np.clip(r, -1.0, 1.0)


def _segment_fft(x: np.ndarray) -> np.ndarray:
    """The rfft of each row's mean-removed, Hann-windowed 2 s segments at
    half overlap: (m, segments, bins)."""
    seg = sliding_window_view(x, _NPER, axis=1)[:, ::_NPER // 2]
    return np.fft.rfft((seg - seg.mean(axis=2, keepdims=True)) * _WINDOW)


def _spectra(a: np.ndarray, b: np.ndarray, imu: np.ndarray) -> _Spectra:
    """The _Spectra of the equal-length pairs whose video rows are b (m, n)
    and whose IMU rows are a[imu], a (u, n) holding each distinct IMU row
    once. The IMU side (its segment FFT, and the whole-row FFT its band is
    read from) is computed once per row of a. The Welch spectra are
    averaged over the segments; a bin where either side has no Welch power
    has coherence 0, not 0 / 0."""
    fa, fb = _segment_fft(a), _segment_fft(b)
    pxx = (fa.real ** 2 + fa.imag ** 2).mean(axis=1)
    pyy = (fb.real ** 2 + fb.imag ** 2).mean(axis=1)
    pxy = (fa[imu].conj() * fb).mean(axis=1)
    for p in (pxx, pyy, pxy):   # one-sided: every bin but DC and Nyquist
        p[:, 1:-1] *= 2
    pxx = pxx[imu]
    power = (pxx > 0) & (pyy > 0)
    coh = np.zeros_like(pxx)
    coh[power] = np.abs(pxy[power]) ** 2 / pxx[power] / pyy[power]
    spec_a = np.abs(np.fft.rfft(a - a.mean(axis=1, keepdims=True)))
    band = np.array([estimate_band(s ** 2, a.shape[1], COMMON_RATE)
                     for s in spec_a])
    return _Spectra(_correlation(a[imu], b), coh, pxx, band[imu])


def _bands(freqs: np.ndarray, band: np.ndarray):
    """Each row's bins of `freqs` inside its (lo, hi) band, every bin but DC
    when none is: per distinct band width, the rows and the index that
    gathers their bins left-aligned into one (rows, width) block. A band is
    a contiguous run of bins, so each block row sums as its slice does."""
    start = np.searchsorted(freqs, band[:, 0], "left")
    stop = np.searchsorted(freqs, band[:, 1], "right")
    none = stop <= start
    start, stop = np.where(none, 1, start), np.where(none, len(freqs), stop)
    for width, rows in groups((stop - start).tolist()).items():
        rows = np.array(rows)
        yield rows, (rows[:, None], start[rows, None] + np.arange(width))


def _group_features(a: np.ndarray, b: np.ndarray,
                    imu: np.ndarray) -> np.ndarray:
    """The feature rows of the equal-length pairs (b, a[imu]) of _spectra."""
    s = _spectra(a, b, imu)
    coh_mean = np.zeros(len(b))
    for rows, at in _bands(_WELCH_FREQS, s.band):
        # power-weighted so empty bins inside the band cannot dilute it
        w = s.pxx[at]
        total = w.sum(axis=1)
        coh_mean[rows] = np.divide((s.coh[at] * w).sum(axis=1), total,
                                   out=np.zeros(len(rows)), where=total > 0)
    return np.column_stack([s.pcc, np.abs(a[imu] - b).mean(axis=1),
                            coh_mean])


def compute_features(pairs: Sequence[AlignedPair]) -> np.ndarray:
    """The (m, 3) consistency features of m aligned speed pairs, one row per
    pair in order and columns in FEATURE_NAMES order, the coherence in the
    band estimated from the pair's IMU channel.

    The pairs of one length are one group that runs one array pass
    (_group_features): one std per row and side, one segment FFT per side
    and one whole-row FFT of the IMU side, row-wise Pearson, and the band
    sums as row reductions. A group's IMU rows are stacked once per
    distinct IMU array, by identity. Each row is bit for bit what its pair
    gives alone, and a batch raises the error of its first pair, in input
    order, that is too short or flat.
    """
    pairs = list(pairs)
    out = np.empty((len(pairs), len(FEATURE_NAMES)))
    errors: dict[int, SyncGaitError] = {}
    for n, idx in groups([len(p.imu_speed) for p in pairs]).items():
        if n < MIN_OVERLAP_SAMPLES:
            errors[idx[0]] = PairTooShort(f"{n} samples")
            continue
        # a holds each distinct IMU array once, and imu is each pair's row
        _, first, imu = np.unique([id(pairs[i].imu_speed) for i in idx],
                                  return_index=True, return_inverse=True)
        a = np.stack([pairs[idx[k]].imu_speed for k in first])
        b = np.stack([pairs[i].video_speed for i in idx])
        flat = (a.std(axis=1) == 0)[imu] | (b.std(axis=1) == 0)
        idx = np.array(idx)
        errors.update((i, DegenerateChannel("zero-variance channel"))
                      for i in idx[flat].tolist())
        out[idx[~flat]] = _group_features(a, b[~flat], imu[~flat])
    if errors:
        raise errors[min(errors)]
    return out


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

