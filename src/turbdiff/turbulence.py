"""Synthetic turbulence-style degradation.

A degraded observation is built from a clean image as

    degraded = warp(G_sigma * clean, random smooth field) + noise

i.e. an optical blur (correlation with a Gaussian point-spread function
G_sigma of random width) applied first, then a random geometric deformation,
then additive Gaussian noise, clipped back to [0, 1].  The deformation is
an elastic transform: per-pixel uniform displacements smoothed by a
Gaussian kernel and scaled to a target amplitude, which jointly realizes a
spatially varying point-spread function and geometric distortion.

A deterministic weak degradation (box downsample + bicubic upsample) stands
in for a super-resolution-style task in the progressive training recipe.

Images here are 2-D (H, W) float arrays in [0, 1], or stacks (N, H, W) of
them that one vectorized pass degrades as N single calls would, bit for bit.

Every filter here is linear and separable, so each is an (n_out, n_in)
matrix per axis, applied as ``M_h @ img @ M_w.T`` in numpy alone.  The
matrices reproduce ``scipy.ndimage`` (the tests keep it as their oracle):
the Gaussian smoothing is ``correlate1d(mode="nearest")`` with the kernel
of :func:`gaussian_kernel1d`, and the bicubic upsample is
``zoom(order=3, mode="nearest", grid_mode=True)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domain import check, check_fields, check_order, setting
from .rng import Rng

# the weak degradation's down/up-sampling factor: the default and domain of
# gen-data's weak_factor and of degrade_weak
WEAK_FACTOR, WEAK_FACTOR_DOMAIN = 4, "[1, inf)"


@dataclass(frozen=True)
class DegradationConfig:
    """Parameters of the strong degradation.

    ``elastic_sigma`` smooths the displacement field (pixels),
    ``elastic_alpha`` bounds its amplitude (pixels), the Gaussian PSF width
    is uniform on [``blur_sigma_min``, ``blur_sigma_max``], and
    ``noise_std`` is additive noise in [0, 1] units.  A smoothing sigma
    sizes its kernel (2 * ceil(3 sigma) + 1 taps) and operator, so the
    sigmas stop at 100 pixels, three times the width of gen-data's faces.
    """

    seed: int = setting(0, "(-inf, inf)")
    elastic_sigma: float = setting(4.0, "[0, 100]")
    elastic_alpha: float = setting(2.0, "[0, inf)")
    blur_sigma_min: float = setting(0.5, "[0, 100]")
    blur_sigma_max: float = setting(1.5, "[0, 100]")
    noise_std: float = setting(1e-4, "[0, inf)")

    def __post_init__(self):
        check_fields(self)
        check_order("blur_sigma_min", "blur_sigma_max", self.blur_sigma_min,
                    self.blur_sigma_max)


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian truncated at 3 sigma; identity for sigma=0."""
    if sigma <= 0:
        return np.ones(1)
    radius = int(math.ceil(3.0 * sigma))
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    k *= k  # in place: degrade_strong builds a kernel for every item
    k /= -2.0 * sigma * sigma
    np.exp(k, out=k)
    k /= np.add.reduce(k)
    return k


def _smoothing_matrix(n: int, sigma: float) -> np.ndarray:
    """(n, n) matrix of ``ndimage.correlate1d(a, gaussian_kernel1d(sigma),
    mode="nearest")`` along an axis of length n: output i is
    ``sum_t k[t] * a[clip(i + t - r, 0, n - 1)]`` for the 2r + 1 taps k.

    Row i of the unclamped band holds k at columns i..i + 2r of an
    (n, n + 2r) grid, whose columns are the input positions -r..n - 1 + r;
    the taps left of position 0 fold into column 0 and those right of
    n - 1 into column n - 1.
    """
    k = gaussian_kernel1d(sigma)
    r = len(k) // 2
    m = n + 2 * r
    band = np.zeros((n, m + 1))
    band[:, :2 * r + 1] = k  # read with row stride m, each row shifts by one
    s = band.ravel()[:n * m].reshape(n, m)[:, r:r + n]
    # row i's taps left of the image sum to k[:r - i]; by the kernel's
    # symmetry row n - 1 - i's taps right of it sum to the same
    folded = np.add.accumulate(k[:r])[::-1][:n]
    s[:len(folded), 0] += folded
    s[n - len(folded):, -1] += folded[::-1]
    return s


@functools.cache
def _cached_smoothing_matrix(n: int, sigma: float) -> np.ndarray:
    """Read-only :func:`_smoothing_matrix` for ``make_field``, whose sigma
    is the fixed ``elastic_sigma``.  The blur draws a new sigma for every
    item, so it builds its matrix each call instead of growing this cache."""
    s = np.ascontiguousarray(_smoothing_matrix(n, sigma))
    s.setflags(write=False)
    return s


def _smooth(a: np.ndarray, sigma: float,
            matrix=_smoothing_matrix) -> np.ndarray:
    """Separable Gaussian smoothing over the last two axes with
    edge-clamped boundaries; leading axes stack independent images.
    ``matrix(n, sigma)`` gives the per-axis operator."""
    if sigma <= 0:
        return a
    h, w = a.shape[-2:]
    s_h = matrix(h, sigma)
    s_w = s_h if w == h else matrix(w, sigma)
    return s_h @ a @ s_w.T


def make_field(shape: tuple[int, int], config: DegradationConfig,
               rng: Rng) -> np.ndarray:
    """Smoothed uniform noise field, amplitude-bounded by ``elastic_alpha``:
    the (2, H, W) array of per-pixel displacements (dx, dy) in pixels.

    Raw displacements are i.i.d. U(-1, 1); smoothing with a sum-1 kernel
    keeps them in [-1, 1], so the scaled field never exceeds the amplitude.
    Consumes the stream in the order dx, dy (one draw of both).
    """
    return config.elastic_alpha * _smooth(
        2.0 * rng.uniform((2, *shape)) - 1.0, config.elastic_sigma,
        _cached_smoothing_matrix)


def warp(img: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Bilinear resampling at (x + dx, y + dy) with edge-clamped
    coordinates, for the (2, H, W) displacements ``field = (dx, dy)`` of
    :func:`make_field`; a stack (N, H, W) takes (N, 2, H, W)."""
    img = np.asarray(img, dtype=np.float64)
    lead, (h, w) = img.shape[:-2], img.shape[-2:]
    if np.shape(field) != (*lead, 2, h, w):
        raise ValueError(
            f"warp: field shape {np.shape(field)} != (2, *image shape "
            f"{img.shape})")
    dx, dy = field[..., 0, :, :], field[..., 1, :, :]
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    fx = np.clip(xs + dx, 0.0, w - 1.0)  # the sample point, then (in place,
    fy = np.clip(ys + dy, 0.0, h - 1.0)  # to hold fewer stacks) its fraction
    x0 = np.floor(fx).astype(np.int64)
    y0 = np.floor(fy).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx -= x0
    fy -= y0
    flat = img.ravel()  # each item's pixels at their own offset
    off = np.arange(0, img.size, h * w).reshape(*lead, 1, 1)
    r0, r1 = off + y0 * w, off + y1 * w
    top = flat[r0 + x0] * (1.0 - fx) + flat[r0 + x1] * fx
    bot = flat[r1 + x0] * (1.0 - fx) + flat[r1 + x1] * fx
    return top * (1.0 - fy) + bot * fy


def degrade_strong(img: np.ndarray, config: DegradationConfig,
                   rng: Rng) -> np.ndarray:
    """Blur, then elastic warp, then additive noise, clipped to [0, 1].

    Stream consumption order: blur sigma, field dx, field dy, noise.  A
    stack (N, H, W) takes an N-stream :class:`Rng`, one stream per item.
    """
    img = np.asarray(img, dtype=np.float64)
    shape = img.shape[-2:]
    sigmas = rng.uniform_range(config.blur_sigma_min, config.blur_sigma_max)
    out = np.stack([_smooth(x, sigma) for x, sigma in zip(
        img.reshape(-1, *shape), sigmas.ravel().tolist())]).reshape(img.shape)
    out = warp(out, make_field(shape, config, rng))
    if config.noise_std > 0:
        out = out + config.noise_std * rng.gauss(shape)
    return np.clip(out, 0.0, 1.0)


# edge samples ndimage.zoom pads on each side before its spline prefilter
# in mode "nearest"
_ZOOM_PAD = 12


def _cubic_bspline(t: np.ndarray) -> np.ndarray:
    """Centred cubic B-spline, nonzero on (-2, 2)."""
    t = np.abs(t)
    return np.where(t < 1.0, 2.0 / 3.0 - t * t + 0.5 * t ** 3,
                    np.where(t < 2.0, (2.0 - t) ** 3 / 6.0, 0.0))


@functools.cache
def _zoom_operator(n: int, factor: int) -> np.ndarray:
    """(n * factor, n) matrix of the 1-D ``ndimage.zoom(order=3,
    mode="nearest", grid_mode=True)`` by ``factor``, computed as ndimage
    does:

    1. pad ``_ZOOM_PAD`` copies of each edge sample on both sides (m
       samples in all);
    2. prefilter: the B-spline coefficients c solve
       ``(c[k-1] + 4 c[k] + c[k+1]) / 6 = padded[k]`` with the
       half-sample symmetric boundary ``c[-1] = c[0]``, ``c[m] = c[m-1]``
       that ndimage's prefilter uses for mode "nearest";
    3. output o is ``sum_k c[k] B3(x_o - k)`` at the grid-mode coordinate
       ``x_o = (o + 0.5) * n / (n * factor) - 0.5``, shifted by the pad.

    Read-only, since every caller shares the cached array.
    """
    m = n + 2 * _ZOOM_PAD
    k = np.arange(m)
    padded = np.zeros((m, n))
    padded[k, np.clip(k - _ZOOM_PAD, 0, n - 1)] = 1.0
    spline = (4.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1)) / 6.0
    spline[0, 0] = spline[-1, -1] = 5.0 / 6.0
    coef = np.linalg.solve(spline, padded)
    x = (np.arange(n * factor) + 0.5) * (n / (n * factor)) - 0.5 + _ZOOM_PAD
    z = _cubic_bspline(x[:, None] - k) @ coef
    z.setflags(write=False)
    return z


def degrade_weak(img: np.ndarray, factor: int = WEAK_FACTOR) -> np.ndarray:
    """Box-downsample by ``factor`` then bicubic upsample back (deterministic).

    The upsample is ``ndimage.zoom(down, factor, order=3, mode="nearest",
    grid_mode=True)``, which is linear and separable, so it is applied as
    ``Z_h @ down @ Z_w.T`` with each ``Z`` from :func:`_zoom_operator`
    (equal to the 2-D zoom up to float rounding, ~1e-15).
    """
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[-2:]
    check("factor", factor, WEAK_FACTOR_DOMAIN)
    if h % factor or w % factor:
        raise ValueError(f"degrade_weak: factor {factor} does not divide {(h, w)}")
    if factor == 1:
        return img.copy()
    down = img.reshape(*img.shape[:-2], h // factor, factor, w // factor,
                       factor).mean(axis=(-3, -1))
    up = (_zoom_operator(h // factor, factor) @ down
          @ _zoom_operator(w // factor, factor).T)
    return np.clip(up, 0.0, 1.0)
