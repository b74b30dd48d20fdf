import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from scipy import ndimage

import turbdiff
from turbdiff.rng import Rng
from turbdiff.toyfaces import make_corpus
from turbdiff.turbulence import (DegradationConfig,
                                 _cached_smoothing_matrix, _smooth,
                                 _zoom_operator, blur, degrade_item,
                                 degrade_strong, degrade_weak,
                                 gaussian_kernel1d, make_field, warp)


# ---------------------------------------------------------------------------
# numpy operators against their scipy.ndimage definitions
# ---------------------------------------------------------------------------

def test_importing_the_cli_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(turbdiff.__file__)))
    code = ("import sys, turbdiff.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _correlate_ref(a, sigma):
    k = gaussian_kernel1d(sigma)
    a = ndimage.correlate1d(a, k, axis=-2, mode="nearest")
    return ndimage.correlate1d(a, k, axis=-1, mode="nearest")


@pytest.mark.parametrize("sigma,shape", [
    *((s, shape) for s in (0.5, 1.0, 1.5, 4.0)
      for shape in ((32, 32), (2, 32, 32), (16, 32))),
    (4.0, (8, 8))])  # the kernel (25 taps) is longer than the image
def test_smooth_matches_ndimage_correlate1d(sigma, shape):
    for seed in range(5):
        a = Rng(seed).uniform(shape)
        for got in (_smooth(a, sigma), _smooth(a, sigma,
                                               _cached_smoothing_matrix)):
            assert got.shape == shape
            assert np.max(np.abs(got - _correlate_ref(a, sigma))) <= 1e-14


@pytest.mark.parametrize("n,factor", [(1, 32), (2, 16), (4, 8), (8, 4),
                                      (16, 2), (3, 5)])
def test_zoom_operator_matches_ndimage_zoom_of_unit_vectors(n, factor):
    want = np.stack([ndimage.zoom(e, factor, order=3, mode="nearest",
                                  grid_mode=True) for e in np.eye(n)], axis=1)
    assert np.max(np.abs(_zoom_operator(n, factor) - want)) <= 1e-14


def test_blur_sigmas_grow_no_cache():
    img = make_corpus(1, seed=2)[0]
    cfg = DegradationConfig(seed=0)
    degrade_strong(img, cfg, Rng(0))  # caches the elastic_sigma operator
    before = (_cached_smoothing_matrix.cache_info().currsize,
              _zoom_operator.cache_info().currsize)
    for i in range(20):
        degrade_strong(img, cfg, Rng(0).stream(i))  # a new blur sigma each
        blur(img, 0.3 + 0.1 * i)
    assert (_cached_smoothing_matrix.cache_info().currsize,
            _zoom_operator.cache_info().currsize) == before
    s = _cached_smoothing_matrix(32, cfg.elastic_sigma)
    with pytest.raises(ValueError):
        s[0, 0] = 1.0


# ---------------------------------------------------------------------------
# displacement fields
# ---------------------------------------------------------------------------

def test_zero_amplitude_gives_zero_field():
    cfg = DegradationConfig(elastic_alpha=0.0)
    f = make_field((16, 16), cfg, Rng(0))
    assert np.all(f[0] == 0.0) and np.all(f[1] == 0.0)


def test_field_equals_dx_then_dy_draws():
    # one draw of both components equals a draw and a smoothing per component
    for sigma in (0.0, 1.5, 4.0):
        cfg = DegradationConfig(elastic_sigma=sigma, elastic_alpha=1.7)
        for seed, shape in ((0, (32, 32)), (1, (16, 24))):
            f = make_field(shape, cfg, Rng(seed))
            r = Rng(seed)
            for got in (f[0], f[1]):
                want = 1.7 * _smooth(2.0 * r.uniform(shape) - 1.0, sigma)
                assert np.array_equal(got, want)


def test_field_amplitude_bound():
    cfg = DegradationConfig(elastic_sigma=3.0, elastic_alpha=2.5)
    for seed in range(5):
        f = make_field((24, 24), cfg, Rng(seed))
        assert np.abs(f[0]).max() <= 2.5 + 1e-12
        assert np.abs(f[1]).max() <= 2.5 + 1e-12


def test_field_std_matches_analytic_oracle():
    # smoothing U(-1,1) noise with a sum-1 kernel w gives interior pixels
    # std alpha * sqrt(sum(w^2) / 3); Monte Carlo over many fields
    sigma, alpha = 4.0, 2.0
    cfg = DegradationConfig(elastic_sigma=sigma, elastic_alpha=alpha)
    k = gaussian_kernel1d(sigma)
    w2 = float(np.sum(k * k)) ** 2  # separable 2-D kernel
    want = alpha * math.sqrt(w2 / 3.0)
    vals = []
    r = max(1, int(math.ceil(3 * sigma)))
    for seed in range(300):
        f = make_field((64, 64), cfg, Rng(seed))
        vals.append(f[0][r:-r, r:-r].ravel())
    got = np.std(np.concatenate(vals))
    assert abs(got - want) / want < 0.10


# ---------------------------------------------------------------------------
# warp
# ---------------------------------------------------------------------------

def test_warp_zero_field_is_bitwise_identity():
    img = Rng(1).uniform((12, 12))
    f = np.stack([np.zeros((12, 12)), np.zeros((12, 12))])
    assert np.array_equal(warp(img, f), img)


def test_warp_integer_shift_with_clamped_edge():
    img = Rng(2).uniform((8, 8))
    f = np.stack([np.ones((8, 8)), np.zeros((8, 8))])
    out = warp(img, f)
    assert np.allclose(out[:, :-1], img[:, 1:], atol=1e-15)
    assert np.allclose(out[:, -1], img[:, -1], atol=1e-15)  # clamped edge


def test_warp_moves_nonconstant_images():
    img = make_corpus(1, seed=3)[0]
    cfg = DegradationConfig(elastic_sigma=4.0, elastic_alpha=2.0)
    f = make_field(img.shape, cfg, Rng(4))
    assert np.mean(np.abs(warp(img, f) - img)) > 0.0


def test_warp_shape_mismatch():
    with pytest.raises(ValueError, match="field"):
        warp(np.zeros((4, 4)), np.stack([np.zeros((3, 3)),
                                         np.zeros((3, 3))]))


# ---------------------------------------------------------------------------
# blur
# ---------------------------------------------------------------------------

def test_blur_zero_sigma_is_identity():
    img = Rng(5).uniform((9, 9))
    assert np.array_equal(blur(img, 0.0), img)


def test_blur_preserves_constant_images():
    img = np.full((16, 16), 0.371)
    assert np.max(np.abs(blur(img, 1.3) - img)) < 1e-12


def test_blur_impulse_reproduces_kernel_formula():
    # direct kernel-formula oracle: response to a centered impulse is the
    # normalized separable Gaussian
    sigma = 1.2
    n = 21
    img = np.zeros((n, n))
    img[n // 2, n // 2] = 1.0
    out = blur(img, sigma)
    r = int(math.ceil(3 * sigma))
    xs = np.arange(-r, r + 1, dtype=float)
    k = np.exp(-xs ** 2 / (2 * sigma ** 2))
    k /= k.sum()
    want = np.outer(k, k)
    got = out[n // 2 - r:n // 2 + r + 1, n // 2 - r:n // 2 + r + 1]
    assert np.max(np.abs(got - want)) < 1e-10
    assert abs(out.sum() - 1.0) < 1e-10


def test_blur_mean_preservation_interior():
    img = np.full((20, 20), 0.625)
    out = blur(img, 2.0)
    assert abs(out.mean() - img.mean()) < 1e-10


def test_blur_negative_sigma():
    with pytest.raises(ValueError):
        blur(np.zeros((4, 4)), -1.0)


# ---------------------------------------------------------------------------
# strong degradation
# ---------------------------------------------------------------------------

def test_degrade_strong_all_zero_config_is_identity():
    cfg = DegradationConfig(elastic_sigma=0.0, elastic_alpha=0.0,
                            blur_sigma_min=0.0, blur_sigma_max=0.0,
                            noise_std=0.0)
    img = Rng(6).uniform((10, 10))
    assert np.array_equal(degrade_strong(img, cfg, Rng(7)), img)


def test_degrade_strong_noise_only_std():
    cfg = DegradationConfig(elastic_sigma=0.0, elastic_alpha=0.0,
                            blur_sigma_min=0.0, blur_sigma_max=0.0,
                            noise_std=0.02)
    img = np.full((64, 64), 0.5)  # interior values, no clipping
    diffs = []
    for seed in range(20):
        out = degrade_strong(img, cfg, Rng(seed))
        diffs.append((out - img).ravel())
    got = np.std(np.concatenate(diffs))
    assert abs(got - 0.02) / 0.02 < 0.05


def test_degrade_strong_is_blur_then_warp_then_noise():
    # replicate the documented stream consumption order independently
    cfg = DegradationConfig(seed=0)
    img = make_corpus(1, seed=8)[0]
    rng = Rng(99)
    got = degrade_strong(img, cfg, rng)

    ref_rng = Rng(99)
    sigma = float(ref_rng.uniform_range(cfg.blur_sigma_min, cfg.blur_sigma_max,
                                        (1,))[0])
    stage = blur(img, sigma)
    field = make_field(img.shape, cfg, ref_rng)
    stage = warp(stage, field)
    stage = stage + cfg.noise_std * ref_rng.gauss(img.shape)
    assert np.array_equal(got, np.clip(stage, 0.0, 1.0))


def test_degrade_strong_deterministic_per_item():
    cfg = DegradationConfig(seed=5)
    img = make_corpus(1, seed=9)[0]
    a = degrade_strong(img, cfg, Rng(cfg.seed).stream(3))
    b = degrade_strong(img, cfg, Rng(cfg.seed).stream(3))
    assert np.array_equal(a, b)
    c = degrade_strong(img, cfg, Rng(cfg.seed).stream(4))
    assert not np.array_equal(a, c)


def test_default_degradation_psnr_band():
    # pinned regression band, measured once over a fixed 64-item corpus
    from turbdiff.metrics import psnr
    cfg = DegradationConfig(seed=0)
    faces = make_corpus(64, seed=1234)
    scores = []
    for i, face in enumerate(faces):
        out = degrade_strong(face, cfg, Rng(cfg.seed).stream(i))
        scores.append(psnr(out, face))
    mean = float(np.mean(scores))
    assert 21.0 < mean < 26.0, f"degradation severity drifted: {mean:.2f} dB"


def test_degradation_config_validation():
    with pytest.raises(ValueError, match="elastic_sigma"):
        DegradationConfig(elastic_sigma=-0.5)
    with pytest.raises(ValueError):
        DegradationConfig(elastic_alpha=-1.0)
    for (lo, hi), msg in (
            ((2.0, 1.0), "blur_sigma_min must be <= blur_sigma_max, "
                         "got 2.0 > 1.0"),
            ((-1.0, 1.5), "blur_sigma_min must be in [0, inf), got -1.0")):
        with pytest.raises(ValueError, match=re.escape(msg)):
            DegradationConfig(blur_sigma_min=lo, blur_sigma_max=hi)
    with pytest.raises(ValueError):
        DegradationConfig(noise_std=-1e-3)
    nan, inf = float("nan"), float("inf")
    for key, bad in (("noise_std", nan), ("noise_std", inf),
                     ("elastic_sigma", nan), ("elastic_sigma", inf),
                     ("blur_sigma_max", inf),
                     ("elastic_alpha", nan)):
        with pytest.raises(ValueError, match=key):
            DegradationConfig(**{key: bad})


# ---------------------------------------------------------------------------
# weak degradation
# ---------------------------------------------------------------------------

def test_degrade_weak_factor_one_is_identity():
    img = Rng(10).uniform((16, 16))
    assert np.array_equal(degrade_weak(img, 1), img)


def test_degrade_weak_preserves_constants():
    img = np.full((32, 32), 0.77)
    assert np.max(np.abs(degrade_weak(img, 4) - img)) < 1e-10


def test_degrade_weak_checkerboard_closed_form():
    # 2x2 box average of a +-checkerboard is exactly 0.5 everywhere, and
    # upsampling a constant stays constant
    img = np.indices((8, 8)).sum(axis=0) % 2
    out = degrade_weak(img.astype(float), 2)
    assert np.max(np.abs(out - 0.5)) < 1e-10


@pytest.mark.parametrize("factor,shape", [
    (1, (32, 32)), (2, (32, 32)), (4, (32, 32)), (8, (32, 32)),
    (4, (16, 32)), (8, (32, 16)), (8, (8, 8))])
def test_degrade_weak_matches_ndimage_zoom(factor, shape):
    h, w = shape
    for seed in range(20):
        img = Rng(seed).uniform(shape)
        down = img.reshape(h // factor, factor, w // factor, factor) \
            .mean(axis=(1, 3))
        want = np.clip(ndimage.zoom(down, factor, order=3, mode="nearest",
                                    grid_mode=True), 0.0, 1.0)
        got = degrade_weak(img, factor)
        assert got.shape == shape
        assert np.max(np.abs(got - want)) <= 1e-12


def test_zoom_operator_is_cached_and_read_only():
    z = _zoom_operator(8, 4)
    assert z.shape == (32, 8) and z is _zoom_operator(8, 4)
    with pytest.raises(ValueError):
        z[0, 0] = 1.0


def test_degrade_weak_divisibility():
    with pytest.raises(ValueError, match="divide"):
        degrade_weak(np.zeros((10, 10)), 4)
    with pytest.raises(ValueError):
        degrade_weak(np.zeros((8, 8)), 0)


def test_degrade_item_reproducible():
    cfg = DegradationConfig(seed=21)
    img = make_corpus(1, seed=11)[0]
    w1, s1 = degrade_item(img, cfg, 17)
    w2, s2 = degrade_item(img, cfg, 17)
    assert np.array_equal(w1, w2) and np.array_equal(s1, s2)
