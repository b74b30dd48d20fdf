import tracemalloc

import numpy as np
import pytest

from turbdiff import autodiff as ad
from turbdiff import denoiser, training
from turbdiff.autodiff import Tensor
from turbdiff.denoiser import (NetSpec, eps_predict, group_items, init_params,
                               make_denoise_fn)
from turbdiff.rng import Rng
from turbdiff.schedule import linear_schedule
from turbdiff.training import (NumericError, PairedDataset, Stage,
                               TrainConfig, TrainState, ema_update,
                               loss_final, loss_simple, optimizer_step,
                               train_stage)

from conftest import finite_diff_check, randomized_params, tiny_spec


def _sched():
    return linear_schedule(100)


def _toy_batch(seed, n=2, size=6):
    rng = Rng(seed)
    y0 = rng.uniform((n, 1, size, size)) * 2.0 - 1.0
    eps = rng.gauss((n, 1, size, size))
    t = rng.integers(1, 101, (n,))
    return y0, eps, t


# ---------------------------------------------------------------------------
# loss_simple
# ---------------------------------------------------------------------------

def test_loss_simple_perfect_predictor_is_zero():
    y0, eps, t = _toy_batch(0)

    def perfect(y_t, x, tt):
        return Tensor(eps)

    assert loss_simple(perfect, y0, np.zeros_like(y0), t, eps,
                       _sched()).item() == 0.0


def test_loss_simple_zero_predictor_is_unit():
    # analytic expectation: mean(eps^2) ~ 1 for unit Gaussian noise
    rng = Rng(1)
    y0 = rng.uniform((4, 1, 32, 32)) * 2.0 - 1.0
    eps = rng.gauss((4, 1, 32, 32))
    t = rng.integers(1, 101, (4,))

    def zero(y_t, x, tt):
        return Tensor(np.zeros_like(y_t))

    val = loss_simple(zero, y0, np.zeros_like(y0), t, eps, _sched()).item()
    assert abs(val - 1.0) < 0.1


def test_loss_simple_hand_computed_2x2():
    # scalar oracle: linear stub eps_hat = 2 * y_t on a 2x2 case
    s = _sched()
    y0 = np.array([[[[0.5, -0.5], [0.25, 0.0]]]])
    eps = np.array([[[[1.0, 2.0], [-1.0, 0.5]]]])
    t = 7

    def stub(y_t, x, tt):
        return ad.scale(Tensor(y_t), 2.0)

    got = loss_simple(stub, y0, np.zeros_like(y0), t, eps, s).item()
    ab = s.alpha_bar[t - 1]
    total = 0.0
    for i in range(2):
        for j in range(2):
            y_t = (ab ** 0.5) * y0[0, 0, i, j] + ((1 - ab) ** 0.5) * eps[0, 0, i, j]
            total += (eps[0, 0, i, j] - 2.0 * y_t) ** 2
    assert abs(got - total / 4.0) < 1e-12


# ---------------------------------------------------------------------------
# loss_final / distillation
# ---------------------------------------------------------------------------

def test_loss_final_gamma_zero_reduces_to_noise_loss():
    spec = tiny_spec(1)
    student = randomized_params(spec, 1)
    teacher = randomized_params(spec, 2).astype(np.float64,
                                                requires_grad=False)
    size = spec.image_size
    rng = Rng(3)
    y0 = rng.uniform((2, 1, size, size)) * 2 - 1
    xs = rng.uniform((2, 1, size, size)) * 2 - 1
    xw = rng.uniform((2, 1, size, size)) * 2 - 1
    eps = rng.gauss((2, 1, size, size))
    t = np.array([5, 50])
    total, l_t, l_s = loss_final(student, teacher, y0, xs, xw, t, eps,
                                 _sched(), gamma=0.0)
    assert total.item() == l_t.item()
    assert l_s.item() > 0.0


def test_loss_final_self_distillation_identity():
    spec = tiny_spec(2)
    student = randomized_params(spec, 5)
    teacher = student.astype(np.float64, requires_grad=False)
    size = spec.image_size
    rng = Rng(4)
    y0 = rng.uniform((2, 1, size, size)) * 2 - 1
    x = rng.uniform((2, 1, size, size)) * 2 - 1
    eps = rng.gauss((2, 1, size, size))
    _, _, l_s = loss_final(student, teacher, y0, x, x, np.array([9, 90]),
                           eps, _sched(), gamma=0.01)
    assert l_s.item() == 0.0


def test_loss_final_requires_teacher():
    y0, eps, t = _toy_batch(5)
    with pytest.raises(ValueError, match="teacher"):
        loss_final(lambda *a: Tensor(np.zeros_like(y0)), None, y0, y0, y0,
                   t, eps, _sched(), 0.01)


def test_distillation_gradient_asymmetry():
    # backward through the distillation loss must reach every student
    # parameter and no teacher parameter
    spec = tiny_spec(3)
    student = randomized_params(spec, 6)
    teacher = randomized_params(spec, 7)
    for p in teacher.tensors.values():
        p.requires_grad = False
    size = spec.image_size
    rng = Rng(5)
    y0 = rng.uniform((2, 1, size, size)) * 2 - 1
    xs = rng.uniform((2, 1, size, size)) * 2 - 1
    xw = rng.uniform((2, 1, size, size)) * 2 - 1
    eps = rng.gauss((2, 1, size, size))
    total, _, _ = loss_final(student, teacher, y0, xs, xw, np.array([4, 44]),
                             eps, _sched(), gamma=0.5)
    ad.backward(total)
    for name, p in student.tensors.items():
        assert p.grad is not None and np.any(p.grad != 0.0), name
    for name, p in teacher.tensors.items():
        assert p.grad is None, f"teacher gradient leaked into {name}"


def test_loss_final_student_grads_match_finite_differences():
    # FD oracle with the teacher held frozen: confirms both that the student
    # gradient is exact and that the computed gradient treats the teacher
    # branch as a constant; two channels per group keep b1.temb.w's
    # gradient from being absorbed by GroupNorm
    spec = tiny_spec(6)
    assert min(spec.widths) >= 2 * spec.groups
    student = randomized_params(spec, 8)
    teacher = randomized_params(spec, 9).astype(np.float64,
                                                requires_grad=False)
    size = spec.image_size
    rng = Rng(6)
    y0 = rng.uniform((1, 1, size, size)) * 2 - 1
    xs = rng.uniform((1, 1, size, size)) * 2 - 1
    xw = rng.uniform((1, 1, size, size)) * 2 - 1
    eps = rng.gauss((1, 1, size, size))
    t = np.array([33])

    def loss():
        total, _, _ = loss_final(student, teacher, y0, xs, xw, t, eps,
                                 _sched(), gamma=0.3)
        return total

    subset = {k: student.tensors[k] for k in
              ["stem.w", "b1.temb.w", "b2.conv1.b", "head.w", "head.gn.g"]}
    finite_diff_check(loss, subset)


# ---------------------------------------------------------------------------
# EMA
# ---------------------------------------------------------------------------

def _const_params(spec, value):
    params = init_params(spec, Rng(0))
    for t in params.tensors.values():
        t.data = np.full_like(t.data, value)
    return params


def test_ema_paper_rate_value():
    spec = tiny_spec(0)
    teacher = _const_params(spec, 1.0)
    student = _const_params(spec, 0.0)
    out = ema_update(teacher, student, 0.9909)
    for t in out.tensors.values():
        assert np.allclose(t.data, 0.9909, atol=1e-15)


def test_ema_endpoint_rates():
    spec = tiny_spec(0)
    teacher = randomized_params(spec, 1)
    student = randomized_params(spec, 2)
    frozen = ema_update(teacher, student, 1.0)
    for k in frozen.tensors:
        assert np.array_equal(frozen.tensors[k].data, teacher.tensors[k].data)
    replaced = ema_update(teacher, student, 0.0)
    for k in replaced.tensors:
        assert np.array_equal(replaced.tensors[k].data,
                              student.tensors[k].data)


def test_ema_two_steps_equal_squared_rate():
    spec = tiny_spec(0)
    teacher = randomized_params(spec, 3)
    student = randomized_params(spec, 4)
    g = 0.9909
    twice = ema_update(ema_update(teacher, student, g), student, g)
    direct = ema_update(teacher, student, g * g)
    for k in twice.tensors:
        assert np.max(np.abs(twice.tensors[k].data
                             - direct.tensors[k].data)) < 1e-12


def test_ema_descriptor_mismatch():
    a = init_params(tiny_spec(0), Rng(0))
    b = init_params(tiny_spec(3), Rng(0))
    if a.spec == b.spec:
        pytest.skip("sampled identical descriptors")
    with pytest.raises(ValueError, match="descriptor"):
        ema_update(a, b, 0.5)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _single_param_state(value=0.0):
    spec = tiny_spec(0)
    params = init_params(spec, Rng(0))
    zeros = {k: np.zeros_like(p.data) for k, p in params.tensors.items()}
    return TrainState(student=params, teacher=None,
                      opt_m={k: z.copy() for k, z in zeros.items()},
                      opt_v={k: z.copy() for k, z in zeros.items()}, step=0)


def test_adam_first_step_magnitude():
    # bias-corrected first step moves by ~lr regardless of gradient scale
    state = _single_param_state()
    config = TrainConfig(stage=Stage.WEAK_COND, learning_rate=1e-3)
    name = next(iter(state.student.tensors))
    before = state.student.tensors[name].data.copy()
    grads = {k: np.zeros_like(p.data) for k, p in state.student.tensors.items()}
    grads[name] = np.full_like(grads[name], 7.3)
    optimizer_step(state, grads, config)
    moved = state.student.tensors[name].data - before
    assert np.allclose(np.abs(moved), 1e-3, rtol=1e-4)
    assert state.step == 1


def test_adam_zero_grads_keep_params():
    state = _single_param_state()
    config = TrainConfig(stage=Stage.WEAK_COND)
    before = {k: p.data.copy() for k, p in state.student.tensors.items()}
    grads = {k: np.zeros_like(p.data) for k, p in state.student.tensors.items()}
    optimizer_step(state, grads, config)
    for k, p in state.student.tensors.items():
        assert np.array_equal(p.data, before[k])


def test_adam_quadratic_bowl_convergence():
    # quadratic oracle: loss gap after 100 steps below 1e-6
    spec = tiny_spec(0)
    params = init_params(spec, Rng(0))
    name = next(iter(params.tensors))
    target = params.tensors[name].data + 0.05
    zeros = {k: np.zeros_like(p.data) for k, p in params.tensors.items()}
    state = TrainState(student=params, teacher=None,
                       opt_m={k: z.copy() for k, z in zeros.items()},
                       opt_v={k: z.copy() for k, z in zeros.items()}, step=0)
    config = TrainConfig(stage=Stage.WEAK_COND, learning_rate=5e-3)
    for _ in range(100):
        w = state.student.tensors[name].data
        grads = {k: np.zeros_like(p.data) for k, p in state.student.tensors.items()}
        grads[name] = 2.0 * (w - target) / w.size
        optimizer_step(state, grads, config)
    gap = np.mean((state.student.tensors[name].data - target) ** 2)
    assert gap < 1e-6


def test_adam_rejects_non_finite_grads():
    state = _single_param_state()
    config = TrainConfig(stage=Stage.WEAK_COND)
    grads = {k: np.zeros_like(p.data) for k, p in state.student.tensors.items()}
    name = next(iter(grads))
    grads[name].flat[0] = np.nan
    with pytest.raises(NumericError):
        optimizer_step(state, grads, config)


# ---------------------------------------------------------------------------
# train_stage
# ---------------------------------------------------------------------------

def _toy_dataset(n=12, size=6, seed=0):
    rng = Rng(seed)
    clean = rng.uniform((n, 1, size, size))
    weak = np.clip(clean + 0.05 * rng.gauss((n, 1, size, size)), 0, 1)
    strong = np.clip(clean + 0.15 * rng.gauss((n, 1, size, size)), 0, 1)
    return PairedDataset(clean=clean, weak=weak, strong=strong)


def _cfg(stage, steps=4, **kw):
    return TrainConfig(stage=stage, steps=steps, batch_size=2,
                       t_steps=50, dtype="float64", **kw)


def test_train_stage_zero_steps_returns_init():
    spec = tiny_spec(0)
    init = init_params(spec, Rng(1))
    state = train_stage(_cfg(Stage.WEAK_COND, steps=0),
                        _toy_dataset(size=spec.image_size), init=init)
    assert state.step == 0
    assert state.history == []
    for k in init.tensors:
        assert np.array_equal(state.student.tensors[k].data,
                              init.tensors[k].data)


def test_train_stage_history_and_determinism():
    spec = tiny_spec(0)
    ds = _toy_dataset(size=spec.image_size)

    def run():
        init = init_params(spec, Rng(1))
        return train_stage(_cfg(Stage.WEAK_COND, steps=5), ds, init=init)

    a, b = run(), run()
    assert len(a.history) == 5
    assert a.history == b.history  # bitwise-identical float history
    for k in a.student.tensors:
        assert np.array_equal(a.student.tensors[k].data,
                              b.student.tensors[k].data)


def test_train_stage_distillation_wiring():
    spec = tiny_spec(0)
    ds = _toy_dataset(size=spec.image_size)
    init = init_params(spec, Rng(1))
    weak_state = train_stage(_cfg(Stage.WEAK_COND, steps=3), ds, init=init)
    teacher0 = weak_state.student.astype(np.float64)
    state = train_stage(_cfg(Stage.STRONG_DISTILL, steps=3), ds,
                        init=weak_state.student,
                        teacher_init=weak_state.student)
    assert state.teacher is not None
    # the teacher tracked the student by EMA, so it moved off its init
    moved = any(not np.array_equal(state.teacher.tensors[k].data,
                                   teacher0.tensors[k].data)
                for k in teacher0.tensors)
    assert moved
    # consistency loss is populated in the history
    assert any(row[2] != 0.0 for row in state.history)


def test_train_stage_loss_decreases_on_tiny_problem():
    spec = tiny_spec(0)
    ds = _toy_dataset(n=8, size=spec.image_size)
    cfg = _cfg(Stage.WEAK_COND, steps=150, learning_rate=3e-3)
    state = train_stage(cfg, ds,
                        init=init_params(spec, Rng(cfg.seed).stream(0)))
    first = np.median([row[1] for row in state.history[:20]])
    last = np.median([row[1] for row in state.history[-20:]])
    assert last < first


def test_train_stage_holds_one_graph_at_a_time():
    # a step's graph is freed by its backward pass, so more steps do not
    # raise the peak: were a step's graph alive through the next step's
    # forward, 3 steps would peak ~1.7x as high as 1
    spec = NetSpec(image_size=16, widths=(16, 32, 32, 16), emb_dim=16,
                   groups=4)
    ds = _toy_dataset(n=8, size=16)
    init = init_params(spec, Rng(1))

    def peak(steps):
        cfg = TrainConfig(stage=Stage.STRONG_DISTILL, steps=steps,
                          batch_size=4, t_steps=50)
        tracemalloc.start()
        try:
            train_stage(cfg, ds, init=init, teacher_init=init)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = peak(1), peak(3)
    assert three <= 1.1 * one, (one, three)


def test_distillation_graph_holds_only_what_backward_reads():
    # the graph of one B=8 float32 distillation step of the default net, in
    # units of one 32x32x32 activation (1 MiB), holds 21.0.  The bound fails
    # a graph that keeps the arrays no vjp reads (31.5) and one whose fuse
    # conv runs after the upsampling, so that its dW reads an upsampled
    # copy of h3 (22.5)
    spec, b = NetSpec(), 8
    student = init_params(spec, Rng(1)).astype(np.float32)
    teacher = student.astype(np.float32, requires_grad=False)
    rng = Rng(2)
    y0, x_s, x_w, eps = (rng.gauss((b, 1, 32, 32)).astype(np.float32)
                         for _ in range(4))
    t = rng.integers(1, 1001, (b,))
    unit = b * 32 * 32 * spec.widths[0] * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss, _, _ = loss_final(student, teacher, y0, x_s, x_w, t, eps,
                                linear_schedule(1000), 0.01)
        held = (tracemalloc.get_traced_memory()[0] - before) / unit
    finally:
        tracemalloc.stop()
    assert 15 < held < 22, held


@pytest.mark.parametrize("stage", list(Stage))
def test_train_stage_peaks_at_one_shard_at_any_batch(stage):
    # a step runs its loss and backward per shard of group_items items (4
    # for the float32 default net), so the graph, and the peak, stay those
    # of one shard: 10.5 MiB of graph at B=4, against 42 MiB for B=16 as
    # one graph
    ds = _toy_dataset(n=16, size=32)
    init = randomized_params(NetSpec(), 3)
    teacher = init if stage is Stage.STRONG_DISTILL else None
    assert group_items(NetSpec(), np.float32) == 4

    def peak(batch):
        cfg = TrainConfig(stage=stage, steps=2, batch_size=batch)
        tracemalloc.start()
        try:
            train_stage(cfg, ds, init=init, teacher_init=teacher)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(4), peak(16)
    assert four <= 1.1 * one, (one, four)


# (stage, dtype, shard items or None for group_items, tolerance as a share
# of each tensor's largest gradient magnitude); float32 moves by summation
# order only, 3.3e-6 measured on the default net
@pytest.mark.parametrize("stage, dtype, shard, tol", [
    (Stage.STRONG_DISTILL, "float32", None, 1e-5),
    (Stage.STRONG_DISTILL, "float64", None, 1e-12),
    (Stage.WEAK_COND, "float64", 3, 1e-12),
])
def test_sharded_step_gradients_match_one_batch(monkeypatch, stage, dtype,
                                                shard, tol):
    # shards of 4 (float32), 2 (float64) and 3, 3, 2 items against one
    # graph over the batch of 8, from the same draws
    ds = _toy_dataset(n=12, size=32)
    init = randomized_params(NetSpec(), 4)
    teacher = init if stage is Stage.STRONG_DISTILL else None
    cfg = TrainConfig(stage=stage, steps=1, batch_size=8, dtype=dtype)

    def step(items):
        monkeypatch.setattr(training, "group_items", lambda spec, dt: items)
        state = train_stage(cfg, ds, init=init, teacher_init=teacher)
        return state.history[0], {k: p.grad for k, p in
                                  state.student.tensors.items()}

    items = group_items(NetSpec(), dtype) if shard is None else shard
    assert items < cfg.batch_size
    whole_losses, whole = step(cfg.batch_size)
    losses, sharded = step(items)
    for k, g in whole.items():
        assert g.dtype == np.dtype(dtype)
        scale = float(np.max(np.abs(g)))
        assert scale > 0, k
        assert np.max(np.abs(sharded[k] - g)) <= tol * scale, k
    assert np.allclose(losses, whole_losses, rtol=10 * tol, atol=0)


def test_denoise_fn_and_train_stage_take_their_items_from_one_helper(
        monkeypatch):
    assert training.group_items is denoiser.group_items
    assert group_items(NetSpec(), np.float32) == 4
    assert group_items(NetSpec(), np.float64) == 2
    calls, sizes = [], []

    def three(spec, dtype):
        calls.append(np.dtype(dtype))
        return 3

    def counted(p, yg, xg, tg):
        sizes.append(len(yg))
        return eps_predict(p, yg, xg, tg)

    for module in (denoiser, training):
        monkeypatch.setattr(module, "group_items", three)
        monkeypatch.setattr(module, "eps_predict", counted)
    spec = tiny_spec(0)
    params = init_params(spec, Rng(1))
    y = Rng(2).gauss((8, 1, spec.image_size, spec.image_size))
    make_denoise_fn(params)(y, y, 30)
    assert sizes == [3, 3, 2]
    sizes.clear()
    ds = _toy_dataset(size=spec.image_size)
    train_stage(TrainConfig(stage=Stage.STRONG_DISTILL, steps=1,
                            batch_size=8), ds, init=params,
                teacher_init=params)
    # per shard, the teacher's forward pass, then the student's
    assert sizes == [3, 3, 3, 3, 2, 2]
    assert calls == [np.float64, np.float32]


def test_train_stage_validation():
    ds_noweak = PairedDataset(clean=np.zeros((4, 1, 6, 6)))
    with pytest.raises(ValueError, match="weak"):
        train_stage(_cfg(Stage.WEAK_COND), ds_noweak)
    ds = _toy_dataset()
    with pytest.raises(ValueError, match="teacher"):
        train_stage(_cfg(Stage.STRONG_DISTILL), ds)
    init = init_params(tiny_spec(0), Rng(0))
    with pytest.raises(ValueError, match="does not take"):
        train_stage(_cfg(Stage.WEAK_COND), ds, init=init, teacher_init=init)
    with pytest.raises(ValueError, match="checkpoint_every"):
        train_stage(_cfg(Stage.WEAK_COND), ds, init=init,
                    checkpoint_every=-1, checkpoint_fn=lambda state: None)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(stage=Stage.WEAK_COND, gamma=-0.1)
    for lr in (0.0, -1e-4, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(stage=Stage.WEAK_COND, learning_rate=lr)
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            TrainConfig(stage=Stage.WEAK_COND, gamma=gamma)
    assert TrainConfig(stage=Stage.WEAK_COND, gamma=0.0,
                       learning_rate=1e-9).gamma == 0.0
    with pytest.raises(ValueError):
        TrainConfig(stage=Stage.WEAK_COND, gamma1=1.5)
    with pytest.raises(ValueError):
        TrainConfig(stage=Stage.WEAK_COND, dtype="float16")
    for key, bad in (("t_steps", 0), ("beta_start", 0.0), ("beta_end", 1.0),
                     ("beta_end", float("nan"))):
        with pytest.raises(ValueError, match=key):
            TrainConfig(stage=Stage.WEAK_COND, **{key: bad})
    with pytest.raises(ValueError,
                       match="beta_start must be <= beta_end, got 0.5 > 0.02"):
        TrainConfig(stage=Stage.WEAK_COND, beta_start=0.5)
    assert TrainConfig(stage="weak").stage is Stage.WEAK_COND
