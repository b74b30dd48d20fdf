import numpy as np
import pytest

from turbdiff.schedule import linear_schedule, respace


def test_single_step_schedule():
    s = linear_schedule(1, 0.1, 0.1)
    assert s.beta.shape == (1,)
    assert abs(s.alpha_bar[0] - 0.9) < 1e-15


def test_vanishing_beta_keeps_signal():
    s = linear_schedule(200, 1e-12, 1e-12)
    assert np.all(s.alpha_bar > 1.0 - 1e-9)


def test_alpha_bar_matches_product_loop_oracle():
    # independent oracle: plain Python product loop over the same betas
    T = 1000
    s = linear_schedule(T, 1e-4, 0.02)
    acc = 1.0
    for t in range(T):
        acc *= 1.0 - (1e-4 + (0.02 - 1e-4) * t / (T - 1))
    assert abs(acc - s.alpha_bar[-1]) < 1e-18
    assert 3e-5 < s.alpha_bar[-1] < 5e-5  # order ~4e-5


def test_alpha_identity_and_monotonicity():
    s = linear_schedule(500)
    assert np.array_equal(s.alpha_bar, np.cumprod(1.0 - s.beta))
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert np.all(np.diff(s.beta) >= 0)
    assert s.alpha_bar[-1] > 0


def test_respace_identity_when_full():
    s = linear_schedule(128)
    r = respace(s, 128)
    assert np.array_equal(r.steps, np.arange(1, 129))
    assert np.max(np.abs(r.beta - s.beta)) < 1e-12


def test_respace_single_step_telescopes():
    s = linear_schedule(50)
    r = respace(s, 1)
    assert list(r.steps) == [50]
    assert abs(r.beta[0] - (1.0 - s.alpha_bar[-1])) < 1e-15


def test_respace_60_of_1000():
    s = linear_schedule(1000)
    r = respace(s, 60)
    assert r.T == 60
    assert r.steps[-1] == 1000
    assert np.all(np.diff(r.steps) > 0)
    assert abs(r.alpha_bar[-1] - s.alpha_bar[-1]) < 1e-12
    assert np.all((r.beta > 0) & (r.beta < 1))


@pytest.mark.parametrize("T,K", [(1000, 60), (1000, 7), (313, 40), (64, 64),
                                 (17, 1), (2, 2)])
def test_telescoping_product_property(T, K):
    s = linear_schedule(T)
    r = respace(s, K)
    # telescoping oracle: product of kept step retentions equals abar at t_K
    prod = 1.0
    for b in r.beta:
        prod *= 1.0 - b
    assert abs(prod - s.alpha_bar[r.steps[-1] - 1]) < 1e-12
    assert np.all(np.diff(r.alpha_bar) < 0)


def test_alpha_bar_at_bounds():
    s = linear_schedule(10)
    assert s.alpha_bar_at(1) == s.alpha_bar[0]
    with pytest.raises(ValueError):
        s.alpha_bar_at(0)
    with pytest.raises(ValueError):
        s.alpha_bar_at(11)


def test_validation_errors():
    with pytest.raises(ValueError):
        linear_schedule(0)
    with pytest.raises(ValueError):
        linear_schedule(10, 0.0, 0.1)
    with pytest.raises(ValueError):
        linear_schedule(10, 0.2, 0.1)
    with pytest.raises(ValueError):
        respace(linear_schedule(10), 11)
    with pytest.raises(ValueError):
        respace(linear_schedule(10), 0)
