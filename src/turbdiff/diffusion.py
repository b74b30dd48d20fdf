"""Forward noising and the truncated-start conditional sampler.

All functions here operate on plain numpy arrays (no gradient tracking):
the forward process is closed-form, and sampling treats the denoiser as a
black-box callable ``denoise_fn(y, x, t) -> eps_hat`` where ``y`` and ``x``
are (B, C, H, W) arrays and ``t`` is the training-schedule timestep (int or
per-item int array).  :func:`restore` is the one place a reverse step is
written, and :func:`restore_chunks` the one loop that splits an item set
into memory-bounded chunks for it.
Images inside the diffusion processes live in [-1, 1]; use
:func:`to_signed` / :func:`to_unit` at the storage boundary.
"""

from __future__ import annotations

import numpy as np

from .rng import Rng
from .schedule import NoiseSchedule

RESTORE_BATCH = 64


def to_signed(img01: np.ndarray) -> np.ndarray:
    """Map [0, 1] storage range to the [-1, 1] model range."""
    return 2.0 * np.asarray(img01, dtype=np.float64) - 1.0


def to_unit(img: np.ndarray) -> np.ndarray:
    """Map model range back to clipped [0, 1] storage range."""
    return np.clip((np.asarray(img, dtype=np.float64) + 1.0) / 2.0, 0.0, 1.0)


def _bar_coefs(s, t, ndim: int):
    """sqrt(abar_t) and sqrt(1 - abar_t), broadcastable against an
    ``ndim``-dimensional batch when ``t`` is a per-item array."""
    abar = s.alpha_bar_at(t)
    if np.ndim(abar) > 0 and ndim > 1:
        abar = abar.reshape((-1,) + (1,) * (ndim - 1))
    return np.sqrt(abar), np.sqrt(1.0 - abar)


def q_sample(y0: np.ndarray, t, eps: np.ndarray,
             s: NoiseSchedule) -> np.ndarray:
    """Closed-form marginal: sqrt(abar_t) * y0 + sqrt(1 - abar_t) * eps.

    ``t`` is a 1-based step on the schedule's own grid (for a respaced
    schedule, its index k, not the training timestep ``steps[k - 1]``) and
    may be an int or a per-item int array matching the leading dimension of
    ``y0``.
    """
    y0 = np.asarray(y0)
    eps = np.asarray(eps)
    if y0.shape != eps.shape:
        raise ValueError(f"q_sample: shape mismatch {y0.shape} vs {eps.shape}")
    ca, cb = _bar_coefs(s, t, y0.ndim)
    return ca * y0 + cb * eps


def q_step(y_prev: np.ndarray, t, eps: np.ndarray, s: NoiseSchedule) -> np.ndarray:
    """One forward step: sqrt(1 - beta_t) * y_{t-1} + sqrt(beta_t) * eps."""
    y_prev = np.asarray(y_prev)
    eps = np.asarray(eps)
    if y_prev.shape != eps.shape:
        raise ValueError(f"q_step: shape mismatch {y_prev.shape} vs {eps.shape}")
    t = np.asarray(t)
    if np.any(t < 1) or np.any(t > s.T):
        raise ValueError(f"q_step: step {t} outside [1, {s.T}]")
    beta = s.beta[t - 1]
    if np.ndim(beta) > 0 and y_prev.ndim > 1:
        beta = beta.reshape((-1,) + (1,) * (y_prev.ndim - 1))
    return np.sqrt(1.0 - beta) * y_prev + np.sqrt(beta) * eps


def posterior_mean(y_t: np.ndarray, eps_hat: np.ndarray, k: int,
                   s: NoiseSchedule) -> np.ndarray:
    """Reverse-step mean from the predicted noise at step k:

        (y_t - beta_k / sqrt(1 - abar_k) * eps_hat) / sqrt(1 - beta_k)
    """
    y_t = np.asarray(y_t)
    eps_hat = np.asarray(eps_hat)
    if y_t.shape != eps_hat.shape:
        raise ValueError(f"posterior_mean: shape mismatch {y_t.shape} vs {eps_hat.shape}")
    abark = s.alpha_bar_at(k)
    bk = s.beta[k - 1]
    return (y_t - (bk / np.sqrt(1.0 - abark)) * eps_hat) / np.sqrt(1.0 - bk)


def restore(x: np.ndarray, denoise_fn, s: NoiseSchedule, t1: int,
            rng: Rng, snapshot_every: int = 0, stream_offset: int = 0
            ) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Truncated-start conditional sampling.

    ``s`` is the training schedule or a :func:`~turbdiff.schedule.respace`
    of it, and ``t1`` is a step of its own grid, in [1, T].  Initializes
    ``y`` at step ``t1`` by noising the degraded input ``x`` itself (the
    coarse structure of ``x`` survives, so only ``t1`` reverse steps are
    needed), then runs ancestral steps down to 1.  ``t1 == T`` is the full
    chain: there ``x`` keeps a weight of sqrt(abar_T), so the start is
    pure noise up to a trace of ``x``.

    Reverse step k -> k-1 evaluates the denoiser once, at the training
    timestep ``steps[k-1]``, and moves ``y`` to :func:`posterior_mean`; for
    k > 1 it adds Gaussian noise of variance beta_k, and the final step is
    deterministic.  So the number of network evaluations (NFE) is ``t1``.

    ``x`` must be (B, C, H, W) in model range.  Noise for batch item i at
    reverse step k comes from the keyed child stream
    ``rng.stream(stream_offset + i).stream(k)`` (the initializing draw uses
    key 0), so each item's result is independent of batch composition and
    chains with different ``t1`` share the noise of their common suffix of
    steps.  Returns the restored batch and the snapshots: one
    ``(training timestep, batch)`` pair after the first reverse step, every
    ``snapshot_every``-th step after it and the final step, or none when
    ``snapshot_every`` is 0.  Raises :class:`FloatingPointError`, naming
    the items by stream index, if the restored batch is not finite.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"restore: x must be (B, C, H, W), got {x.shape}")
    if not (1 <= t1 <= s.T):
        raise ValueError(f"restore: t1 must be in [1, {s.T}], got {t1}")
    if snapshot_every < 0:
        raise ValueError(f"restore: snapshot_every must be >= 0, "
                         f"got {snapshot_every}")
    items = rng.stream(stream_offset + np.arange(len(x)))

    def draw(key: int):
        return items.stream(key).gauss(x.shape[1:])

    y = q_sample(x, t1, draw(0), s)
    snapshots = []
    for k in range(t1, 0, -1):
        eps = denoise_fn(y, x, int(s.steps[k - 1]))
        y = posterior_mean(y, eps, k, s)
        if k > 1:
            y = y + np.sqrt(s.beta[k - 1]) * draw(k)
        if snapshot_every and (k == 1 or (t1 - k) % snapshot_every == 0):
            snapshots.append((int(s.steps[k - 1]), y.copy()))
    bad = ~np.isfinite(y).all(axis=(1, 2, 3))
    if bad.any():
        raise FloatingPointError(
            f"restore: items {(stream_offset + np.flatnonzero(bad)).tolist()}"
            f" are not finite after {t1} reverse steps")
    return y, snapshots


def restore_chunks(x: np.ndarray, denoise_fn, s: NoiseSchedule, t1: int,
                   rng: Rng, batch_size: int = RESTORE_BATCH,
                   snapshot_every: int = 0):
    """Run :func:`restore` over ``x`` in chunks of ``batch_size`` items,
    yielding ``(lo, restored, snapshots)`` for the chunk that starts at item
    ``lo``.  Per-item noise streams are indexed globally, so the result for
    item i is identical no matter how the set is chunked."""
    if batch_size < 1:
        raise ValueError(f"restore_chunks: batch_size must be >= 1, "
                         f"got {batch_size}")
    for lo in range(0, len(x), batch_size):
        yield (lo, *restore(x[lo:lo + batch_size], denoise_fn, s, t1, rng,
                            snapshot_every, stream_offset=lo))


def restore_batched(x: np.ndarray, denoise_fn, s: NoiseSchedule, t1: int,
                    rng: Rng, batch_size: int = RESTORE_BATCH
                    ) -> tuple[np.ndarray, list]:
    """All chunks of :func:`restore_chunks`, and an empty snapshot list."""
    out = np.empty_like(np.asarray(x))
    for lo, y, _ in restore_chunks(x, denoise_fn, s, t1, rng, batch_size):
        out[lo:lo + len(y)] = y
        del y  # not held while the next chunk restores
    return out, []
