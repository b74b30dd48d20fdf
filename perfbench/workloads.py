"""The four benchmark workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A workload has three parts:

* ``setup(seed, tiny)`` builds its inputs from the seed and its program
  state (the run repeats it and reports the fastest as ``setup_s``);
* ``measure(state, seconds, ops)`` runs operations for about ``seconds``
  and returns a :class:`Measured`;
* ``check(state, measured, checks)`` verifies the outputs.

Operations, and what ``op_ms`` times on each workload:

* ``train`` -- ``WEAK_STEPS`` weak-stage steps, then the distillation stage
  from their result for the rest of the time; ``op_ms`` is one
  distillation step, and ``items_per_s`` counts training images over both
  stages.
* ``restore-batch`` -- ``restore_batched`` over chunks of 64 held-out
  images, then PSNR/SSIM; ``op_ms`` is one reverse step of a 64-image
  chunk.
* ``restore-single`` -- one ``restore`` request per image (B=1,
  ``stream_offset=i``); ``op_ms`` is one request.
* ``gen-data`` -- ``turbdiff gen-data`` of a 16-item corpus in-process, then
  ``load_dataset_dir`` on it; ``op_ms`` is one write plus read, and
  ``items_per_s`` counts items written per second of writing.

Only the program's public functions are called, through their modules, so
that the traced run sees every call.  ``quality_db`` is computed on a fixed
amount of work (the first ``QUALITY_STEPS`` distillation steps, the first
64 restored images, ``GEN_COUNT`` PGM round trips), so that a faster or
slower program does not move it by doing more or less work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from checks import STREAM_ATOL
from turbdiff import (cli, denoiser, diffusion, formats, metrics, rng, schedule,
                      toyfaces, training, turbulence)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixture", "restore.ckpt")
FIXTURE_SHA256 = "84407b052b134b81e6bfcc1535ba440c8aadc38e776cf4393180d938bf9ed539"

K, T1, CHUNK = 60, 30, 64        # CLI restore defaults
BATCH = 8                        # CLI train default, float32
LR = 2e-4                        # CLI train default
GEN_COUNT = 16                   # items per gen-data operation
WEAK_STEPS = 25                  # about a sixth of a 28-second train run
QUALITY_STEPS = 50               # distillation steps behind train's quality
# the restore workloads' held-out test set: one fixed corpus, far from the
# seed (7) of the fixture's training corpus, so that quality figures differ
# between seeds only by the sampler noise the seed draws
TEST_SEED = 1_000_003
SCRATCH = ".bench_out"           # relative to the checkout root


class FixtureError(Exception):
    pass


@dataclass
class Measured:
    op_s: list[float]             # latency samples behind op_ms
    items: int                    # items behind items_per_s
    busy_s: float                 # seconds behind items_per_s
    quality_db: float
    attempted: int                # operations attempted
    measured_s: float             # seconds inside the operations
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    # the workload's own figures under their own names: name -> (value, unit)
    detail: dict = field(default_factory=dict)


class Ops:
    """Times operations from outside and, when traced, opens one root span
    per operation; spans of one operation share its ``op_id``."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.count = 0
        self._span = None

    def start(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.op_id = self.count
            self._span = self.tracer.begin(name)
        self.count += 1

    def stop(self) -> None:
        if self.tracer is not None:
            self.tracer.end(self._span)
            self.tracer.op_id = -1


def _more(start: float, done: int, seconds: float) -> bool:
    """Start another operation only if, at the mean pace so far, it ends
    within ``seconds``; the first one always runs."""
    elapsed = time.perf_counter() - start
    return done == 0 or elapsed * (done + 1) / done <= seconds


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def load_fixture() -> formats.Checkpoint:
    with open(FIXTURE, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    if digest != FIXTURE_SHA256:
        raise FixtureError(f"{FIXTURE}: sha256 {digest} != {FIXTURE_SHA256}")
    return formats.load_checkpoint(FIXTURE)


def make_items(seed: int, lo: int, hi: int, weak: bool = True):
    """Items ``lo..hi-1`` of the corpus of ``seed``, generated in memory the
    way ``turbdiff gen-data`` does: (clean, weak or None, strong), each
    (N, 1, 32, 32) in [0, 1]."""
    base = rng.Rng(seed)
    cfg = turbulence.DegradationConfig(seed=seed)
    clean = [toyfaces.render(toyfaces.sample_spec(base.stream(i), seed_tag=i))
             for i in range(lo, hi)]
    strong = [turbulence.degrade_strong(c, cfg, rng.Rng(cfg.seed).stream(i))
              for i, c in zip(range(lo, hi), clean)]
    weak_imgs = [turbulence.degrade_weak(c) for c in clean] if weak else None
    stack = lambda a: np.stack(a)[:, None] if a is not None else None  # noqa: E731
    return stack(clean), stack(weak_imgs), stack(strong)


def sampler(ckpt: formats.Checkpoint):
    """The CLI's restore set-up: float32 denoiser and respaced schedule."""
    m = ckpt.meta
    sched = schedule.respace(
        schedule.linear_schedule(m.t_steps, m.beta_start, m.beta_end), K)
    return denoiser.make_denoise_fn(ckpt.student.astype(np.float32)), sched


def _pct(seconds, q) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def gain_db(restored01: np.ndarray, clean: np.ndarray, strong: np.ndarray):
    """Per-item PSNR gain of restored over degraded, against clean."""
    return np.array([metrics.psnr(r[0], c[0]) - metrics.psnr(s[0], c[0])
                     for r, c, s in zip(restored01, clean, strong)])


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class _Stop(Exception):
    pass


@dataclass
class TrainState:
    seed: int
    dataset: training.PairedDataset
    init: object
    weak_steps: int


def train_setup(seed: int, tiny: bool) -> TrainState:
    clean, weak, strong = make_items(seed, 0, 16 if tiny else 64)
    ckpt = load_fixture()
    return TrainState(seed, training.PairedDataset(clean=clean, weak=weak,
                                                   strong=strong),
                      ckpt.student, 3 if tiny else WEAK_STEPS)


def run_stage(stage, dataset, init, teacher, seed, max_steps, deadline, ops):
    """One ``train_stage`` call timed step by step from outside, through
    ``checkpoint_fn``; stops at ``max_steps`` or after ``deadline``."""
    config = training.TrainConfig(stage=stage, steps=max_steps,
                                  batch_size=BATCH, learning_rate=LR,
                                  seed=seed, dtype="float32")
    stamps = [time.perf_counter()]
    last = []

    def on_step(state):
        stamps.append(time.perf_counter())
        ops.stop()
        last[:] = [state]
        if stamps[-1] >= deadline:
            raise _Stop
        ops.start(f"train.{stage.value}.step")

    ops.start(f"train.{stage.value}.step")
    try:
        state = training.train_stage(config, dataset, init=init,
                                     teacher_init=teacher, checkpoint_every=1,
                                     checkpoint_fn=on_step, log_every=0)
    except _Stop:
        state = last[0]
    else:
        ops.stop()
    return state, list(np.diff(stamps))


def train_measure(st: TrainState, seconds: float, ops: Ops,
                  distill_steps: int = 10 ** 6) -> Measured:
    t0 = time.perf_counter()
    weak_state, weak_s = run_stage(training.Stage.WEAK_COND, st.dataset,
                                   st.init, None, st.seed, st.weak_steps,
                                   float("inf"), ops)
    dist_state, dist_s = run_stage(training.Stage.STRONG_DISTILL, st.dataset,
                                   weak_state.student, weak_state.student,
                                   st.seed + 1, distill_steps, t0 + seconds, ops)
    losses = [h[3] for h in weak_state.history + dist_state.history]
    last = [h[3] for h in dist_state.history[:QUALITY_STEPS]]
    steps = len(weak_s) + len(dist_s)
    detail = {"train.distill.loss_first50": (float(np.mean(last)), "1")}
    for name, s in (("weak", weak_s), ("distill", dist_s)):
        detail[f"train.{name}.steps"] = (len(s), "count")
        detail[f"train.{name}.step_ms.p50"] = (_pct(s, 50), "ms")
        detail[f"train.{name}.step_ms.p90"] = (_pct(s, 90), "ms")
    return Measured(op_s=dist_s, items=steps * BATCH,
                    busy_s=sum(weak_s) + sum(dist_s),
                    quality_db=float(10 * np.log10(1.0 / np.mean(last))),
                    attempted=steps, measured_s=sum(weak_s) + sum(dist_s),
                    detail=detail,
                    outputs={"losses": losses, "student": dist_state.student})


def train_check(st, m: Measured, checks) -> None:
    checks.expect("train.loss_finite", np.all(np.isfinite(m.outputs["losses"])))
    checks.expect("train.params_finite", all(
        np.all(np.isfinite(t.data)) for t in m.outputs["student"].tensors.values()))
    checks.golden_train()


# ---------------------------------------------------------------------------
# restore-batch and restore-single
# ---------------------------------------------------------------------------

@dataclass
class RestoreState:
    seed: int
    fn: object
    sched: object
    clean: np.ndarray
    strong: np.ndarray
    chunk: int


def _restore_setup(seed: int, n: int, chunk: int) -> RestoreState:
    fn, sched = sampler(load_fixture())
    clean, _, strong = make_items(TEST_SEED, 0, n, weak=False)
    # first call: lets BLAS and numpy allocate outside the timed region
    x = diffusion.to_signed(strong[:chunk])
    fn(x, x, int(sched.steps[T1 - 1]))
    return RestoreState(seed, fn, sched, clean, strong, chunk)


def batch_setup(seed: int, tiny: bool) -> RestoreState:
    chunk = 4 if tiny else CHUNK
    return _restore_setup(seed, chunk, chunk)


def batch_measure(st: RestoreState, seconds: float, ops: Ops) -> Measured:
    stamps = []

    def fn(y, x, t):
        stamps.append(time.perf_counter())
        return st.fn(y, x, t)

    clean, strong, raw, restored, gains, step_s = \
        [st.clean], [st.strong], [], [], [], []
    busy = 0.0
    t0 = time.perf_counter()
    while _more(t0, len(raw), seconds):
        i = len(raw)
        if i:   # inputs of the next chunk are made outside the timed region
            c, _, s = make_items(TEST_SEED, i * st.chunk, (i + 1) * st.chunk,
                                 weak=False)
            clean.append(c)
            strong.append(s)
        ops.start("restore_batch.chunk")
        stamps.clear()
        t = time.perf_counter()
        out, _ = diffusion.restore_batched(
            diffusion.to_signed(strong[i]), fn, st.sched, T1,
            rng.Rng(st.seed), batch_size=st.chunk)
        end = time.perf_counter()
        unit = diffusion.to_unit(out)
        for r, c in zip(unit, clean[i]):
            metrics.ssim(r[0], c[0])
        gains.append(gain_db(unit, clean[i], strong[i]))
        busy += time.perf_counter() - t
        ops.stop()
        step_s += list(np.diff(stamps + [end]))
        raw.append(out)
        restored.append(unit)
    n = len(raw)
    gain = float(np.mean(np.concatenate(gains)[:CHUNK]))
    return Measured(
        op_s=step_s, items=n * st.chunk, busy_s=busy, quality_db=gain,
        attempted=n * st.chunk, measured_s=busy,
        detail={"restore_batch.imgs_per_s": (n * st.chunk / busy, "1/s"),
                "restore_batch.psnr_gain_db": (gain, "dB"),
                "restore_batch.chunks": (n, "count")},
        outputs={"restored": np.concatenate(restored),
                 "raw": np.concatenate(raw)})


def batch_check(st: RestoreState, m: Measured, checks) -> None:
    _restore_output_checks(m, checks)
    # per-item stream contract: item 0 restored alone equals item 0 of the batch
    alone, _ = diffusion.restore(diffusion.to_signed(st.strong[:1]), st.fn,
                                 st.sched, T1, rng.Rng(st.seed), stream_offset=0)
    checks.close("restore.stream_contract", diffusion.to_unit(alone)[0],
                 m.outputs["restored"][0], STREAM_ATOL)
    checks.golden_restore()


def single_setup(seed: int, tiny: bool) -> RestoreState:
    # requests past the last image reuse the images under new noise streams
    return _restore_setup(seed, 4 if tiny else CHUNK, 1)


def single_measure(st: RestoreState, seconds: float, ops: Ops) -> Measured:
    lat, outs, raws = [], [], []
    n_img = len(st.strong)
    t0 = time.perf_counter()
    while _more(t0, len(lat), seconds):
        i = len(lat)
        x = diffusion.to_signed(st.strong[i % n_img][None])
        ops.start("restore_single.request")
        t = time.perf_counter()
        out, _ = diffusion.restore(x, st.fn, st.sched, T1, rng.Rng(st.seed),
                                   stream_offset=i)
        lat.append(time.perf_counter() - t)
        ops.stop()
        raws.append(out[0])
        outs.append(diffusion.to_unit(out)[0])
    n = len(lat)
    restored = np.stack(outs)
    k = min(n, n_img)
    gain = float(np.mean(gain_db(restored[:k], st.clean[:k], st.strong[:k])))
    return Measured(
        op_s=lat, items=n, busy_s=sum(lat), quality_db=gain, attempted=n,
        measured_s=sum(lat),
        detail={"restore_single.latency_ms.p50": (_pct(lat, 50), "ms"),
                "restore_single.latency_ms.p90": (_pct(lat, 90), "ms"),
                "restore_single.psnr_gain_db": (gain, "dB"),
                "restore_single.requests": (n, "count")},
        outputs={"restored": restored, "raw": np.stack(raws)})


def single_check(st: RestoreState, m: Measured, checks) -> None:
    _restore_output_checks(m, checks)
    # per-item stream contract: requests 0 and 1 equal items 0 and 1 of one
    # batched call over the same images
    k = min(2, len(m.op_s), len(st.strong))
    batch, _ = diffusion.restore_batched(diffusion.to_signed(st.strong[:k]),
                                         st.fn, st.sched, T1, rng.Rng(st.seed),
                                         batch_size=CHUNK)
    checks.close("restore.stream_contract", diffusion.to_unit(batch),
                 m.outputs["restored"][:k], STREAM_ATOL)
    checks.golden_restore()


def _restore_output_checks(m: Measured, checks) -> None:
    raw = m.outputs["raw"]
    checks.expect("restore.finite", np.all(np.isfinite(raw)))
    # the sampler's final mean stays near the [-1, 1] model range
    checks.expect("restore.in_range", float(np.max(np.abs(raw))) < 4.0,
                  f"max |y| = {float(np.max(np.abs(raw))):.3f}")
    checks.expect("restore.psnr_gain_positive", m.quality_db > 0.0,
                  f"gain {m.quality_db:.3f} dB")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

@dataclass
class GenState:
    seed: int
    root: str
    count: int


def gen_setup(seed: int, tiny: bool) -> GenState:
    # every operation rewrites the same corpus directory in place: deleting
    # and recreating files costs a file-system discard whose time varies
    # several-fold between runs
    root = os.path.join(SCRATCH, f"gen-data-{os.getpid()}")
    st = GenState(seed, root, 4 if tiny else GEN_COUNT)
    # first call outside the timed region: creates the files, warms caches
    _gen(st, os.path.join(root, "corpus"), seed)
    formats.load_dataset_dir(os.path.join(root, "corpus"))
    return st


def _gen(st: GenState, out: str, seed: int) -> int:
    argv = ["gen-data", "--out", out, "--count", str(st.count),
            "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def gen_measure(st: GenState, seconds: float, ops: Ops) -> Measured:
    lat, write_s, read_s, failed, loaded = [], 0.0, 0.0, 0, None
    t0 = time.perf_counter()
    while _more(t0, len(lat), seconds):
        i = len(lat)
        out = os.path.join(st.root, "corpus")
        ops.start("gen_data.corpus")
        t = time.perf_counter()
        code = _gen(st, out, st.seed * 100_000 + i)
        t_w = time.perf_counter()
        ids, clean, weak, strong = formats.load_dataset_dir(out)
        t_r = time.perf_counter()
        ops.stop()
        lat.append(t_r - t)
        write_s += t_w - t
        read_s += t_r - t_w
        failed += code != 0 or len(ids) != st.count
        if i == 0:
            loaded = (clean, weak, strong)
    # PGM round trip of random images in [0, 1]: fidelity in dB
    err = []
    path = os.path.join(st.root, "roundtrip.pgm")
    for j in range(GEN_COUNT):
        x = rng.Rng(st.seed).stream(j).uniform((32, 32))
        formats.write_pgm(path, x)
        err.append(formats.read_pgm(path) - x)
    err = np.stack(err)
    items = len(lat) * st.count
    return Measured(op_s=lat, items=items, busy_s=write_s,
                    quality_db=float(10 * np.log10(1.0 / np.mean(err ** 2))),
                    attempted=len(lat), measured_s=sum(lat), failed=failed,
                    detail={"gen_data.items_per_s": (items / write_s, "1/s"),
                            "load_data.items_per_s": (items / read_s, "1/s")},
                    outputs={"first": loaded, "roundtrip_err": err})


def gen_check(st: GenState, m: Measured, checks) -> None:
    # the first corpus holds what gen-data's generators produce in memory
    clean, weak, strong = make_items(st.seed * 100_000, 0, st.count)
    got = m.outputs["first"]
    for name, want, have in zip(("clean", "weak", "strong"),
                                (clean, weak, strong), got):
        checks.close(f"gen_data.{name}", have, want, 0.5 / 65535 + 1e-12)
    checks.close("pgm.roundtrip", m.outputs["roundtrip_err"], 0.0,
                 0.5 / 65535 + 1e-12)
    shutil.rmtree(st.root, ignore_errors=True)


WORKLOADS = {
    "train": (train_setup, train_measure, train_check),
    "restore-batch": (batch_setup, batch_measure, batch_check),
    "restore-single": (single_setup, single_measure, single_check),
    "gen-data": (gen_setup, gen_measure, gen_check),
}
