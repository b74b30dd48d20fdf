"""Variance schedules for the noising chain.

A schedule holds its timesteps, the per-step variances beta_1..beta_T and
the running product alpha_bar_t of alpha_t = 1 - beta_t.  A respaced
schedule is the same type: it evaluates a T-step-trained model on K <= T
steps by picking an evenly spaced subsequence of the original timesteps and
recomputing effective betas from alpha_bar ratios, so the marginal at the
final step is preserved exactly (telescoping product).

Indexing is 1-based to match the usual chain notation: ``beta[t - 1]`` is
the variance of step t, and ``steps[t - 1]`` is the timestep of the
training schedule that step t stands for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import check, check_order

# the standard linear schedule of T = 1000 training steps: the defaults and
# domains of the schedule settings (``training.TrainConfig``'s t_steps,
# beta_start and beta_end) and of linear_schedule's endpoints.  A schedule
# holds three float arrays of T values, so T stops at 100 times the default
T_STEPS = 1000
BETA_START, BETA_END = 1e-4, 0.02
T_DOMAIN, BETA_DOMAIN = "[1, 100000]", "(0, 1)"


@dataclass(frozen=True)
class NoiseSchedule:
    """Forward-process variances and derived signal-retention products."""

    steps: np.ndarray       # (T,) strictly increasing training timesteps
    beta: np.ndarray        # (T,), beta[t-1] in (0, 1)
    alpha_bar: np.ndarray   # cumulative product of 1 - beta, strictly decreasing

    @property
    def T(self) -> int:
        return len(self.steps)

    def alpha_bar_at(self, t) -> np.ndarray:
        """alpha_bar_t for 1-based step t (int or int array)."""
        t = np.asarray(t)
        if np.any(t < 1) or np.any(t > self.T):
            raise ValueError(f"step {t} outside [1, {self.T}]")
        return self.alpha_bar[t - 1]


def linear_schedule(T: int, beta_start: float = BETA_START,
                    beta_end: float = BETA_END) -> NoiseSchedule:
    """Linearly interpolated variances, inclusive of both endpoints."""
    check("T", T, T_DOMAIN)
    check("beta_start", beta_start, BETA_DOMAIN)
    check("beta_end", beta_end, BETA_DOMAIN)
    check_order("beta_start", "beta_end", beta_start, beta_end)
    beta = np.linspace(beta_start, beta_end, T)
    alpha_bar = np.cumprod(1.0 - beta)
    return NoiseSchedule(steps=np.arange(1, T + 1, dtype=np.int64), beta=beta,
                         alpha_bar=alpha_bar)


def respace(s: NoiseSchedule, K: int) -> NoiseSchedule:
    """Pick K evenly spaced steps of ``s`` (always including its last) and
    fold the skipped variances into effective betas via alpha_bar ratios."""
    if not (1 <= K <= s.T):
        raise ValueError(f"K must be in [1, {s.T}], got {K}")
    if K == 1:
        idx = np.array([s.T], dtype=np.int64)
    else:
        idx = np.round(np.linspace(1, s.T, K)).astype(np.int64)
    abar = s.alpha_bar[idx - 1]
    prev = np.concatenate([[1.0], abar[:-1]])
    return NoiseSchedule(steps=s.steps[idx - 1], beta=1.0 - abar / prev,
                         alpha_bar=abar)
