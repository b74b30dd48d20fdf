import tracemalloc

import numpy as np
import pytest

from turbdiff.diffusion import (posterior_mean, q_sample, q_step, restore,
                                restore_batched, to_signed, to_unit)
from turbdiff.rng import Rng
from turbdiff.schedule import linear_schedule, respace


def test_q_sample_noiseless_projection():
    s = linear_schedule(100)
    y0 = Rng(0).gauss((2, 1, 4, 4))
    out = q_sample(y0, 50, np.zeros_like(y0), s)
    assert np.allclose(out, np.sqrt(s.alpha_bar[49]) * y0, atol=1e-15)


def test_q_sample_tiny_beta_is_near_identity():
    s = linear_schedule(100, 1e-10, 1e-10)
    y0 = Rng(1).gauss((4, 4))
    out = q_sample(y0, 100, Rng(2).gauss((4, 4)), s)
    assert np.max(np.abs(out - y0)) < 1e-3


def test_q_sample_per_item_timesteps():
    s = linear_schedule(100)
    y0 = np.ones((3, 1, 2, 2))
    t = np.array([1, 50, 100])
    out = q_sample(y0, t, np.zeros_like(y0), s)
    for i, ti in enumerate(t):
        assert np.allclose(out[i], np.sqrt(s.alpha_bar[ti - 1]), atol=1e-15)


def test_q_sample_monte_carlo_moments():
    # moment oracle on a fixed 4x4 image, reduced-size version of the
    # acceptance check
    s = linear_schedule(1000)
    t = 500
    y0 = Rng(3).uniform((4, 4)) * 2.0 - 1.0
    n = 4000
    draws = q_sample(np.broadcast_to(y0, (n, 4, 4)), t,
                     Rng(4).gauss((n, 4, 4)), s)
    abar = s.alpha_bar[t - 1]
    mean_tol = 4.0 * np.sqrt((1.0 - abar) / n)
    assert np.max(np.abs(draws.mean(axis=0) - np.sqrt(abar) * y0)) < mean_tol
    var = draws.var(axis=0)
    assert np.all(np.abs(var - (1.0 - abar)) < 0.1 * (1.0 - abar))


def test_q_step_identity_at_zero_beta():
    s = linear_schedule(10, 1e-300, 1e-300)
    y = Rng(5).gauss((3, 3))
    out = q_step(y, 5, np.zeros_like(y), s)
    assert np.allclose(out, y, atol=1e-12)


def test_q_step_pure_noise_scaling():
    s = linear_schedule(10, 0.04, 0.04)
    eps = Rng(6).gauss((3, 3))
    out = q_step(np.zeros((3, 3)), 1, eps, s)
    assert np.allclose(out, 0.2 * eps, atol=1e-15)


def test_q_step_composition_matches_closed_form():
    # composition-vs-closed-form oracle (Monte Carlo on a 4x4 image)
    s = linear_schedule(100)
    t_star = 60
    y0 = Rng(7).uniform((4, 4)) * 2.0 - 1.0
    n = 3000
    rng = Rng(8)
    y = np.broadcast_to(y0, (n, 4, 4)).copy()
    for t in range(1, t_star + 1):
        y = q_step(y, t, rng.gauss((n, 4, 4)), s)
    abar = s.alpha_bar[t_star - 1]
    mean_tol = 5.0 * np.sqrt((1.0 - abar) / n)
    assert np.max(np.abs(y.mean(axis=0) - np.sqrt(abar) * y0)) < mean_tol
    assert np.all(np.abs(y.var(axis=0) - (1.0 - abar)) < 0.12 * (1.0 - abar))


def test_posterior_mean_zero_eps():
    r = respace(linear_schedule(100), 10)
    y = Rng(9).gauss((2, 2))
    out = posterior_mean(y, np.zeros_like(y), 5, r)
    assert np.allclose(out, y / np.sqrt(1.0 - r.beta[4]), atol=1e-15)


def test_posterior_mean_small_beta_identity():
    r = respace(linear_schedule(100, 1e-12, 1e-12), 10)
    y = Rng(10).gauss((2, 2))
    out = posterior_mean(y, Rng(11).gauss((2, 2)), 3, r)
    assert np.max(np.abs(out - y)) < 1e-5


def test_posterior_mean_scalar_oracle():
    # independent scalar-arithmetic oracle on a 2x2 image
    s = linear_schedule(50)
    r = respace(s, 5)
    k = 3
    y0 = np.array([[0.2, -0.4], [0.9, 0.0]])
    eps = np.array([[1.0, -0.5], [0.25, 2.0]])
    y_t = q_sample(y0, k, eps, r)
    out = posterior_mean(y_t, eps, k, r)
    bk = float(r.beta[k - 1])
    ab = float(r.alpha_bar[k - 1])
    for i in range(2):
        for j in range(2):
            yt_ij = (ab ** 0.5) * y0[i, j] + ((1 - ab) ** 0.5) * eps[i, j]
            want = (yt_ij - bk / ((1 - ab) ** 0.5) * eps[i, j]) / ((1 - bk) ** 0.5)
            assert abs(out[i, j] - want) < 1e-14


def _zero_denoiser(y, x, t):
    return np.zeros_like(y)


@pytest.mark.parametrize("K", [1, 8])
def test_restore_final_step_is_posterior_mean(K):
    # at t1 = 1 the chain is its q_sample start and one reverse step, and
    # the last step adds no noise
    r = respace(linear_schedule(100), K)
    x = Rng(12).gauss((2, 1, 4, 4))
    calls = []

    def half(y, xx, t):
        calls.append(t)
        return 0.5 * y

    out, snapshots = restore(x, half, r, t1=1, rng=Rng(3))
    z = np.stack([Rng(3).stream(i).stream(0).gauss((1, 4, 4))
                  for i in range(2)])
    y1 = q_sample(x, 1, z, r)
    assert np.array_equal(out, posterior_mean(y1, 0.5 * y1, 1, r))
    assert calls == [int(r.steps[0])]
    assert snapshots == []


@pytest.mark.parametrize("denoise", [_zero_denoiser,
                                     lambda y, x, t: 0.3 * y - 0.1 * x],
                         ids=["zero", "linear"])
def test_restore_runs_on_a_full_schedule(denoise):
    # the training schedule and its K = T respacing hold the same steps,
    # and betas that differ only by the rounding of 1 - abar_t / abar_{t-1}
    s = linear_schedule(100)
    r = respace(s, 100)
    assert np.array_equal(r.steps, s.steps)
    assert np.max(np.abs(r.beta - s.beta)) <= 1.7e-16
    x = Rng(21).gauss((2, 1, 4, 4))
    a, _ = restore(x, denoise, s, t1=100, rng=Rng(22))
    b, _ = restore(x, denoise, r, t1=100, rng=Rng(22))
    assert np.max(np.abs(a - b)) < 1e-12


def test_reverse_step_noise_contract():
    # a reverse step k > 1 adds sqrt(beta_k) times the keyed draw k of the
    # item's stream; the same seed repeats the chain, another seed does not
    r = respace(linear_schedule(100), 8)
    x = Rng(13).gauss((2, 1, 4, 4))
    a, _ = restore(x, _zero_denoiser, r, t1=2, rng=Rng(5))
    b, _ = restore(x, _zero_denoiser, r, t1=2, rng=Rng(5))
    c, _ = restore(x, _zero_denoiser, r, t1=2, rng=Rng(6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

    def draw(key):
        return np.stack([Rng(5).stream(i).stream(key).gauss((1, 4, 4))
                         for i in range(2)])

    zero = np.zeros_like(x)
    y = q_sample(x, 2, draw(0), r)
    y = posterior_mean(y, zero, 2, r) + np.sqrt(r.beta[1]) * draw(2)
    assert np.array_equal(a, posterior_mean(y, zero, 1, r))


def test_restore_nfe_equals_t1():
    r = respace(linear_schedule(1000), 60)
    x = Rng(15).gauss((2, 1, 4, 4))
    calls = []

    def counting(y, xx, t):
        calls.append(t)
        return np.zeros_like(y)

    out, snapshots = restore(x, counting, r, t1=30, rng=Rng(0))
    assert len(calls) == 30
    assert snapshots == []
    assert out.shape == x.shape
    # denoiser sees the original-schedule timesteps, descending
    assert calls == [int(r.steps[k - 1]) for k in range(30, 0, -1)]


def test_restore_boundaries():
    r = respace(linear_schedule(100), 10)
    x = Rng(16).gauss((1, 1, 4, 4))
    with pytest.raises(ValueError):
        restore(x, _zero_denoiser, r, t1=0, rng=Rng(0))
    with pytest.raises(ValueError):
        restore(x, _zero_denoiser, r, t1=11, rng=Rng(0))
    calls = []

    def counting(y, xx, t):
        calls.append(t)
        return np.zeros_like(y)

    # t1 = K, the full chain
    restore(x, counting, r, t1=10, rng=Rng(0))
    assert len(calls) == 10
    for bad in (0, -3):
        with pytest.raises(ValueError, match="batch_size"):
            restore_batched(x, _zero_denoiser, r, t1=5, rng=Rng(0),
                            batch_size=bad)


def test_restore_raises_on_a_non_finite_result_naming_the_items():
    # a denoiser that blows up on the batch's second item only
    def blow_up_second(y, x, t):
        eps = np.zeros_like(y)
        eps[1] = np.nan
        return eps

    r = respace(linear_schedule(100), 10)
    x = Rng(19).gauss((3, 1, 4, 4))
    with pytest.raises(FloatingPointError,
                       match=r"restore: items \[5\] are not finite"):
        restore(x, blow_up_second, r, t1=4, rng=Rng(0), stream_offset=4)
    # restore_batched stops at its first chunk
    with pytest.raises(FloatingPointError,
                       match=r"restore: items \[0, 1\] are not finite"):
        restore_batched(x, lambda y, xx, t: np.full_like(y, np.nan), r,
                        t1=1, rng=Rng(0), batch_size=2)


def test_restore_deterministic_and_batch_invariant():
    r = respace(linear_schedule(100), 12)
    x = Rng(17).gauss((6, 1, 4, 4))
    a, _ = restore(x, _zero_denoiser, r, t1=6, rng=Rng(9))
    b, _ = restore(x, _zero_denoiser, r, t1=6, rng=Rng(9))
    c, _ = restore(x, _zero_denoiser, r, t1=6, rng=Rng(10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    chunked, _ = restore_batched(x, _zero_denoiser, r, t1=6, rng=Rng(9),
                                 batch_size=2)
    assert np.array_equal(a, chunked)


def test_restore_batched_releases_each_chunk_before_the_next():
    # three 64-item chunks with a zero denoiser: the 1.5 MiB output and one
    # chunk's working set peak at 3.7 MiB; the previous chunk's 0.5 MiB
    # result, held while the next one restores, read 4.2
    r = respace(linear_schedule(1000), 60)
    x = Rng(1).uniform((192, 1, 32, 32)) * 2 - 1
    restore_batched(x[:64], _zero_denoiser, r, 30, Rng(0))
    tracemalloc.start()
    try:
        out, _ = restore_batched(x, _zero_denoiser, r, 30, Rng(0))
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 4.0, peak
    first, _ = restore(x[:64], _zero_denoiser, r, 30, Rng(0))
    assert np.array_equal(out[:64], first)


def test_restore_snapshots():
    r = respace(linear_schedule(100), 10)
    x = Rng(18).gauss((1, 1, 4, 4))
    _, snapshots = restore(x, _zero_denoiser, r, t1=6, rng=Rng(0),
                           snapshot_every=2)
    steps = [t for t, _ in snapshots]
    assert steps[0] == int(r.steps[5])     # first reverse step
    assert steps[-1] == int(r.steps[0])    # final step always recorded
    assert all(s.shape == x.shape for _, s in snapshots)
    # (t1 - k) % M == 0 holds at every step for M < 0
    with pytest.raises(ValueError, match="snapshot_every"):
        restore(x, _zero_denoiser, r, t1=6, rng=Rng(0), snapshot_every=-1)


def test_range_conversions():
    img = np.array([0.0, 0.5, 1.0])
    assert np.allclose(to_signed(img), [-1.0, 0.0, 1.0])
    assert np.allclose(to_unit(to_signed(img)), img)
    assert np.all(to_unit(np.array([-3.0, 3.0])) == [0.0, 1.0])


def test_shape_mismatch_errors():
    s = linear_schedule(10)
    with pytest.raises(ValueError, match="q_sample"):
        q_sample(np.zeros((2, 2)), 1, np.zeros((3, 3)), s)
    with pytest.raises(ValueError):
        q_sample(np.zeros((2, 2)), 11, np.zeros((2, 2)), s)
    with pytest.raises(ValueError, match="q_step"):
        q_step(np.zeros((2, 2)), 1, np.zeros((3, 3)), s)
