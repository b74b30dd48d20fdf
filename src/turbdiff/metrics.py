"""Full-reference image quality metrics: PSNR and SSIM.

Both operate on single-channel images with values in [0, 1].  PSNR of
identical images is reported as a documented 99 dB cap rather than
infinity.  SSIM follows the canonical formulation: 11x11 Gaussian window
with sigma 1.5, C1 = 0.01^2 and C2 = 0.03^2 on unit dynamic range, averaged
over valid window positions only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PSNR_CAP = 99.0

_SSIM_WIN = 11
_SSIM_SIGMA = 1.5
_C1 = 0.01 ** 2
_C2 = 0.03 ** 2


def _check_pair(a: np.ndarray, b: np.ndarray, op: str):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
    return a, b


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for unit dynamic range, capped at
    99 dB (the value reported for identical images)."""
    a, b = _check_pair(a, b, "psnr")
    err = float(np.mean((a - b) ** 2))
    if err == 0.0:
        return PSNR_CAP
    return min(10.0 * np.log10(1.0 / err), PSNR_CAP)


def _ssim_window() -> np.ndarray:
    half = _SSIM_WIN // 2
    xs = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(xs * xs) / (2.0 * _SSIM_SIGMA ** 2))
    w = np.outer(g, g)
    return w / w.sum()


_WIN = _ssim_window()


def _local_mean(img: np.ndarray) -> np.ndarray:
    """Gaussian-weighted local mean over valid window positions."""
    win = np.lib.stride_tricks.sliding_window_view(img, (_SSIM_WIN, _SSIM_WIN))
    return np.tensordot(win, _WIN, axes=([2, 3], [0, 1]))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Structural similarity index in [-1, 1]; 1 exactly for a == b."""
    a, b = _check_pair(a, b, "ssim")
    if a.ndim != 2:
        raise ValueError(f"ssim: need single-channel 2-D images, got {a.shape}")
    if min(a.shape) < _SSIM_WIN:
        raise ValueError(
            f"ssim: image {a.shape} smaller than {_SSIM_WIN}x{_SSIM_WIN} window")
    mu_a, mu_b = _local_mean(a), _local_mean(b)
    var_a = _local_mean(a * a) - mu_a * mu_a
    var_b = _local_mean(b * b) - mu_b * mu_b
    cov = _local_mean(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + _C1) * (2.0 * cov + _C2)
    den = (mu_a ** 2 + mu_b ** 2 + _C1) * (var_a + var_b + _C2)
    return float(np.mean(num / den))


@dataclass
class MetricReport:
    """Per-item scores and aggregates for a prediction/reference set."""

    ids: list[str]
    psnr_values: list[float]
    ssim_values: list[float]

    @property
    def count(self) -> int:
        return len(self.ids)

    @property
    def psnr_mean(self) -> float:
        return float(np.mean(self.psnr_values)) if self.psnr_values else float("nan")

    @property
    def psnr_median(self) -> float:
        return float(np.median(self.psnr_values)) if self.psnr_values else float("nan")

    @property
    def ssim_mean(self) -> float:
        return float(np.mean(self.ssim_values)) if self.ssim_values else float("nan")

    def csv_rows(self) -> list[str]:
        rows = ["item_id,psnr,ssim"]
        rows += [f"{i},{p:.6f},{s:.6f}"
                 for i, p, s in zip(self.ids, self.psnr_values, self.ssim_values)]
        if self.ids:
            rows.append(f"mean,{self.psnr_mean:.6f},{self.ssim_mean:.6f}")
        return rows


def evaluate_pairs(pairs) -> MetricReport:
    """Score an iterable of (item_id, prediction, reference) image triples."""
    ids, ps, ss = [], [], []
    for item_id, pred, ref in pairs:
        ids.append(str(item_id))
        ps.append(psnr(pred, ref))
        ss.append(ssim(pred, ref))
    return MetricReport(ids=ids, psnr_values=ps, ssim_values=ss)
