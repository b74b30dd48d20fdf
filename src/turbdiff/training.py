"""Losses, optimizer, EMA teacher update, and the staged training loop.

The paper's recipe has two stages:

* ``WEAK_COND`` — conditional noise-prediction on (clean, weakly degraded)
  pairs; this produces the teacher for the distillation stage.
* ``STRONG_DISTILL`` — the student sees the strong degradation while a
  frozen-per-step teacher sees the weak one; the loss adds a consistency
  term ``gamma * ||eps_teacher - eps_student||^2`` on the shared noisy
  sample, and the teacher tracks the student by EMA after every step.

Everything is driven by named sub-streams of one seed, so a stage retrains
bit-identically.

A step draws its batch whole, then runs the loss and its backward pass once
per consecutive shard of ``denoiser.group_items`` items (4 for the float32
default net), so the graph holds one shard's activations whatever the
batch.  Each shard's loss is weighted by its share of the batch, so the
gradients, summed in shard order, and the logged losses, weighted sums,
are those of the whole batch up to float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .denoiser import (DenoiserParams, NetSpec, eps_predict, group_items,
                       init_params)
from .diffusion import q_sample, to_signed
from .domain import check_fields, check_order, setting
from .rng import Rng
from .schedule import (BETA_DOMAIN, BETA_END, BETA_START, T_DOMAIN, T_STEPS,
                       NoiseSchedule, linear_schedule)


class NumericError(RuntimeError):
    """Raised when NaN/Inf reaches the optimizer; the step is aborted."""


class Stage(str, Enum):
    WEAK_COND = "weak"
    STRONG_DISTILL = "strong"


# Adam moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Settings for one training stage, and the one table of training
    defaults: the ``train`` and ``ablate pt`` flags and config keys of the CLI
    take their names, types, defaults and domains from these fields, and a
    checkpoint header stores a subset of them (``formats.Checkpoint``)."""

    stage: Stage
    steps: int = setting(2500, "[0, inf)")
    # a step's graph is one shard's (10.5 MiB for a float32 distillation
    # step of the default net) whatever the batch; the bound caps the
    # batch's input and noise arrays
    batch_size: int = setting(8, "[1, 1024]")
    learning_rate: float = setting(2e-4, "(0, inf)")
    gamma: float = setting(0.01, "[0, inf)")      # distillation weight
    gamma1: float = setting(0.9909, "[0, 1]")     # EMA rate
    seed: int = setting(0, "(-inf, inf)")
    t_steps: int = setting(T_STEPS, T_DOMAIN)    # schedule length T
    beta_start: float = setting(BETA_START, BETA_DOMAIN)
    beta_end: float = setting(BETA_END, BETA_DOMAIN)
    # training fast path; tests pin float64 paths
    dtype: str = setting("float32", "{float32, float64}")

    def __post_init__(self):
        self.stage = Stage(self.stage)
        check_fields(self)
        check_order("beta_start", "beta_end", self.beta_start, self.beta_end)

    def schedule(self) -> NoiseSchedule:
        return linear_schedule(self.t_steps, self.beta_start, self.beta_end)


@dataclass
class PairedDataset:
    """Clean images with optional degraded counterparts, all (N,1,S,S) in [0,1]."""

    clean: np.ndarray
    weak: np.ndarray | None = None
    strong: np.ndarray | None = None
    ids: list[str] | None = None

    def __post_init__(self):
        for name in ("weak", "strong"):
            arr = getattr(self, name)
            if arr is not None and arr.shape != self.clean.shape:
                raise ValueError(
                    f"{name} shape {arr.shape} != clean shape {self.clean.shape}")

    def __len__(self) -> int:
        return self.clean.shape[0]


@dataclass
class TrainState:
    student: DenoiserParams
    teacher: DenoiserParams | None
    opt_m: dict[str, np.ndarray]
    opt_v: dict[str, np.ndarray]
    step: int
    history: list[tuple[int, float, float, float]] = field(default_factory=list)
    # history rows: (step, loss_strong, loss_consistency, loss_total)


def _predictor(model):
    if callable(model):
        return model
    return lambda y_t, x, t: eps_predict(model, y_t, x, t)


def loss_simple(model, y0: np.ndarray, x: np.ndarray, t,
                eps: np.ndarray, s: NoiseSchedule) -> Tensor:
    """Noise-regression objective ||eps - eps_hat(y_t, x, t)||^2 (mean).

    ``model`` is either DenoiserParams or any callable (y_t, x, t) -> Tensor;
    ``x`` is the conditioning image.
    """
    if y0.shape != eps.shape:
        raise ValueError(f"loss_simple: shape mismatch {y0.shape} vs {eps.shape}")
    y_t = q_sample(y0, t, eps, s).astype(y0.dtype, copy=False)
    pred = _predictor(model)(y_t, x, t)
    return ad.mse(Tensor(np.asarray(eps, dtype=pred.data.dtype)), pred)


def loss_final(student, teacher, y0: np.ndarray, x_strong: np.ndarray,
               x_weak: np.ndarray, t, eps: np.ndarray, s: NoiseSchedule,
               gamma: float) -> tuple[Tensor, Tensor, Tensor]:
    """Distillation objective: (L_T + gamma * L_S, L_T, L_S).

    L_T regresses the injected noise from the strongly degraded conditioning;
    L_S pulls the student's prediction toward the teacher's prediction on
    the same noisy sample but weak conditioning.  The teacher is evaluated
    without graph recording, so no gradient can reach it.  It runs before
    the student: its temporary activations are then freed before the
    student's graph is built, instead of piling on top of it at the peak.
    """
    if teacher is None:
        raise ValueError("loss_final: teacher parameters are required")
    y_t = q_sample(y0, t, eps, s).astype(y0.dtype, copy=False)
    with ad.no_grad():
        pred_t = _predictor(teacher)(y_t, x_weak, t)
    pred_s = _predictor(student)(y_t, x_strong, t)
    l_t = ad.mse(Tensor(np.asarray(eps, dtype=pred_s.data.dtype)), pred_s)
    l_s = ad.mse(pred_t, pred_s)
    total = ad.add(l_t, ad.scale(l_s, gamma))
    return total, l_t, l_s


def ema_update(teacher: DenoiserParams, student: DenoiserParams,
               gamma1: float) -> DenoiserParams:
    """Elementwise phi' = gamma1 * phi + (1 - gamma1) * delta (new params)."""
    if teacher.spec != student.spec:
        raise ValueError(
            f"ema_update: descriptor mismatch {teacher.spec} vs {student.spec}")
    out = {}
    for k, tt in teacher.tensors.items():
        st = student.tensors[k]
        out[k] = Tensor(gamma1 * tt.data + (1.0 - gamma1) * st.data,
                        requires_grad=False)
    return DenoiserParams(teacher.spec, out)


def optimizer_step(state: TrainState, grads: dict[str, np.ndarray],
                   config: TrainConfig) -> None:
    """Bias-corrected adaptive-moment update applied to the student."""
    for name, g in grads.items():
        if g is None:
            raise ValueError(f"missing gradient for {name}; run backward() first")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name} at step {state.step}")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    t = state.step + 1
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, g in grads.items():
        p = state.student.tensors[name]
        m = state.opt_m[name] = b1 * state.opt_m[name] + (1 - b1) * g
        v = state.opt_v[name] = b2 * state.opt_v[name] + (1 - b2) * (g * g)
        step = config.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        p.data = p.data - step
    state.step = t


def train_stage(config: TrainConfig, dataset: PairedDataset,
                init: DenoiserParams | None = None,
                teacher_init: DenoiserParams | None = None,
                checkpoint_every: int = 0, checkpoint_fn=None,
                log_every: int = 0) -> TrainState:
    """Run one stage for ``config.steps`` optimization steps.

    Each step's loss and backward run per shard of the batch (see the
    module docstring); its history row holds the shards' losses weighted by
    their share of the batch.

    ``init`` seeds the student (fresh fan-in init otherwise).  The
    distillation stage requires ``teacher_init`` (normally the WEAK_COND
    result); the teacher then follows the student by EMA after every
    optimizer step.  ``checkpoint_fn(state)`` fires every
    ``checkpoint_every`` steps when configured (0 never; negative values
    are rejected).
    """
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, "
                         f"got {checkpoint_every}")
    stage = config.stage
    if dataset.weak is None:
        raise ValueError(f"stage {stage.value} needs weakly degraded images")
    if stage is Stage.STRONG_DISTILL:
        if dataset.strong is None:
            raise ValueError("stage strong needs strongly degraded images")
        if teacher_init is None:
            raise ValueError("stage strong needs teacher parameters "
                             "(train the weak stage first)")
    elif teacher_init is not None:
        raise ValueError(f"stage {stage.value} does not take a teacher")

    rng = Rng(config.seed)
    if init is None:
        init = init_params(NetSpec(), rng.stream(0))
    dtype = np.dtype(config.dtype)
    student = init.astype(dtype, requires_grad=True)
    teacher = teacher_init.astype(dtype, requires_grad=False) \
        if stage is Stage.STRONG_DISTILL else None
    if teacher is not None and teacher.spec != student.spec:
        raise ValueError(
            f"teacher descriptor {teacher.spec} != student {student.spec}")

    sched = config.schedule()
    zeros = {k: np.zeros(v.data.shape, dtype=dtype)
             for k, v in student.tensors.items()}
    state = TrainState(student=student, teacher=teacher,
                       opt_m={k: z.copy() for k, z in zeros.items()},
                       opt_v={k: z.copy() for k, z in zeros.items()},
                       step=0)

    idx_rng, t_rng, eps_rng = rng.stream(1), rng.stream(2), rng.stream(3)
    n = len(dataset)
    bsz = config.batch_size
    shape = (bsz,) + dataset.clean.shape[1:]
    shard = group_items(student.spec, dtype)

    for _ in range(config.steps):
        # the last step's gradients go before this step's forward pass
        for p in student.tensors.values():
            p.grad = None
        idx = idx_rng.integers(0, n, (bsz,))
        y0 = to_signed(dataset.clean[idx]).astype(dtype)
        t = t_rng.integers(1, sched.T + 1, (bsz,))
        eps = eps_rng.gauss(shape).astype(dtype)
        if stage is Stage.WEAK_COND:
            x = to_signed(dataset.weak[idx]).astype(dtype)
        else:
            x_s = to_signed(dataset.strong[idx]).astype(dtype)
            x_w = to_signed(dataset.weak[idx]).astype(dtype)

        # one graph per shard: its loss, weighted by its share of the batch,
        # goes through backward before the next shard's forward pass
        l_t = l_s = l_total = 0.0
        for lo in range(0, bsz, shard):
            g = slice(lo, lo + shard)
            w = (min(lo + shard, bsz) - lo) / bsz
            if stage is Stage.WEAK_COND:
                loss = loss_simple(student, y0[g], x[g], t[g], eps[g], sched)
                lt_v, ls_v = loss.item(), 0.0
            else:
                loss, lt_t, ls_t = loss_final(student, state.teacher, y0[g],
                                              x_s[g], x_w[g], t[g], eps[g],
                                              sched, config.gamma)
                lt_v, ls_v = lt_t.item(), ls_t.item()
            l_t += w * lt_v
            l_s += w * ls_v
            l_total += w * loss.item()
            ad.backward(ad.scale(loss, w))

        optimizer_step(state, {k: p.grad for k, p in student.tensors.items()},
                       config)
        if stage is Stage.STRONG_DISTILL:
            state.teacher = ema_update(state.teacher, student, config.gamma1)

        state.history.append((state.step, l_t, l_s, l_total))
        if log_every and state.step % log_every == 0:
            print(f"step {state.step:6d}  loss {l_total:.5f}"
                  + (f"  (consistency {l_s:.5f})" if stage is Stage.STRONG_DISTILL else ""))
        if checkpoint_every and checkpoint_fn and state.step % checkpoint_every == 0:
            checkpoint_fn(state)

    return state


def history_csv_rows(state: TrainState) -> list[str]:
    """Loss history as CSV lines: step, loss_strong, loss_consistency, total."""
    rows = ["step,loss_noise,loss_consistency,loss_total"]
    rows += [f"{s},{lt:.8g},{ls:.8g},{tot:.8g}" for s, lt, ls, tot in state.history]
    return rows
