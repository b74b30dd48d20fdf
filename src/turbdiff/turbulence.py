"""Synthetic turbulence-style degradation.

A degraded observation is built from a clean image as

    degraded = warp(blur(clean, sigma), random smooth field) + noise

i.e. an optical blur applied first, then a random geometric deformation,
then additive Gaussian noise, clipped back to [0, 1].  The deformation is
an elastic transform: per-pixel uniform displacements smoothed by a
Gaussian kernel and scaled to a target amplitude, which jointly realizes a
spatially varying point-spread function and geometric distortion.

A deterministic weak degradation (box downsample + bicubic upsample) stands
in for a super-resolution-style task in the progressive training recipe.

Images here are 2-D (H, W) float arrays in [0, 1].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .rng import Rng


@dataclass(frozen=True)
class DegradationConfig:
    """Parameters of the strong degradation.

    ``elastic_sigma`` smooths the displacement field (pixels),
    ``elastic_alpha`` bounds its amplitude (pixels), ``blur_sigma_range``
    is the uniform range of the Gaussian PSF width, and ``noise_std`` is
    additive noise in [0, 1] units.
    """

    elastic_sigma: float = 4.0
    elastic_alpha: float = 2.0
    blur_sigma_range: tuple[float, float] = (0.5, 1.5)
    noise_std: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.elastic_sigma < 0:
            raise ValueError(f"elastic_sigma must be >= 0, got {self.elastic_sigma}")
        if self.elastic_alpha < 0:
            raise ValueError(f"elastic_alpha must be >= 0, got {self.elastic_alpha}")
        lo, hi = self.blur_sigma_range
        if lo > hi or lo < 0:
            raise ValueError(f"bad blur_sigma_range {self.blur_sigma_range}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")


@dataclass
class DisplacementField:
    """Per-pixel displacements in pixels; same spatial shape as the image."""

    dx: np.ndarray
    dy: np.ndarray


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian truncated at 3 sigma; identity for sigma=0."""
    if sigma <= 0:
        return np.ones(1)
    radius = int(math.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return k / k.sum()


def _smooth(a: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing over the last two axes with
    edge-clamped boundaries; leading axes stack independent images."""
    k = gaussian_kernel1d(sigma)
    if len(k) == 1:
        return a
    a = ndimage.correlate1d(a, k, axis=-2, mode="nearest")
    return ndimage.correlate1d(a, k, axis=-1, mode="nearest")


def make_field(shape: tuple[int, int], config: DegradationConfig,
               rng: Rng) -> DisplacementField:
    """Smoothed uniform noise field, amplitude-bounded by ``elastic_alpha``.

    Raw displacements are i.i.d. U(-1, 1); smoothing with a sum-1 kernel
    keeps them in [-1, 1], so the scaled field never exceeds the amplitude.
    Consumes the stream in the order dx, dy (one draw of both).
    """
    dx, dy = config.elastic_alpha * _smooth(
        2.0 * rng.uniform((2, *shape)) - 1.0, config.elastic_sigma)
    return DisplacementField(dx=dx, dy=dy)


def warp(img: np.ndarray, field: DisplacementField) -> np.ndarray:
    """Bilinear resampling at (x + dx, y + dy) with edge-clamped coordinates."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    if field.dx.shape != img.shape or field.dy.shape != img.shape:
        raise ValueError(
            f"warp: field shape {field.dx.shape} != image shape {img.shape}")
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    xq = np.clip(xs + field.dx, 0.0, w - 1.0)
    yq = np.clip(ys + field.dy, 0.0, h - 1.0)
    x0 = np.floor(xq).astype(np.int64)
    y0 = np.floor(yq).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xq - x0
    fy = yq - y0
    top = img[y0, x0] * (1.0 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1.0 - fx) + img[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur (3 sigma truncation, sum-1 kernel, clamped
    edges); sigma = 0 is the identity."""
    if sigma < 0:
        raise ValueError(f"blur: sigma must be >= 0, got {sigma}")
    img = np.asarray(img, dtype=np.float64)
    if sigma == 0:
        return img.copy()
    return _smooth(img, sigma)


def degrade_strong(img: np.ndarray, config: DegradationConfig,
                   rng: Rng) -> np.ndarray:
    """Blur, then elastic warp, then additive noise, clipped to [0, 1].

    Stream consumption order: blur sigma, field dx, field dy, noise.
    """
    img = np.asarray(img, dtype=np.float64)
    lo, hi = config.blur_sigma_range
    sigma = float(rng.uniform_range(lo, hi, (1,))[0])
    out = blur(img, sigma)
    out = warp(out, make_field(img.shape, config, rng))
    if config.noise_std > 0:
        out = out + config.noise_std * rng.gauss(img.shape)
    return np.clip(out, 0.0, 1.0)


@functools.cache
def _zoom_operator(n: int, factor: int) -> np.ndarray:
    """(n * factor, n) matrix of the 1-D bicubic ``ndimage.zoom`` by
    ``factor``: column j is the zoom of the j-th unit vector.  Read-only,
    since every caller shares the cached array."""
    z = np.stack([ndimage.zoom(e, factor, order=3, mode="nearest",
                               grid_mode=True) for e in np.eye(n)], axis=1)
    z.setflags(write=False)
    return z


def degrade_weak(img: np.ndarray, factor: int = 4) -> np.ndarray:
    """Box-downsample by ``factor`` then bicubic upsample back (deterministic).

    The upsample is ``ndimage.zoom(down, factor, order=3, mode="nearest",
    grid_mode=True)``, which is linear and separable, so it is applied as
    ``Z_h @ down @ Z_w.T`` with each ``Z`` that same zoom on the unit
    vectors (equal to the 2-D zoom up to float rounding, ~1e-15).
    """
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    if factor < 1:
        raise ValueError(f"degrade_weak: factor must be >= 1, got {factor}")
    if h % factor or w % factor:
        raise ValueError(f"degrade_weak: factor {factor} does not divide {(h, w)}")
    if factor == 1:
        return img.copy()
    down = img.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))
    up = (_zoom_operator(h // factor, factor) @ down
          @ _zoom_operator(w // factor, factor).T)
    return np.clip(up, 0.0, 1.0)


def degrade_item(img: np.ndarray, config: DegradationConfig, item_index: int,
                 weak_factor: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """(weak, strong) pair for one corpus item, reproducible from
    (config.seed, item_index) alone."""
    rng = Rng(config.seed).stream(item_index)
    return degrade_weak(img, weak_factor), degrade_strong(img, config, rng)
