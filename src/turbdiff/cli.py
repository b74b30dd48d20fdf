"""Command-line front end: dataset generation, staged training, restoration,
evaluation, and the two ablation studies.

Every command is deterministic given its seed, flags, and inputs.  Options
may also come from a ``key=value`` config file (``--config``); explicit
flags override file values, and unknown file keys are hard errors.

Defaults have one source each.  The training flags and config keys of
``train`` and ``ablate`` are the fields of :class:`TrainConfig` with their
types and defaults (``learning_rate`` is spelled ``lr``), and a checkpoint
header is a TrainConfig too.  ``gen-data``'s degradation defaults are those
of :class:`DegradationConfig`, and the sampler defaults of ``restore`` and
``ablate`` are the constants below.

Exit codes: 0 success, 1 usage error, 2 data/contract error, 3 numeric
failure (NaN abort).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import MISSING, fields, replace

import numpy as np

from .denoiser import DenoiserParams, make_denoise_fn
from .diffusion import restore, restore_batched, to_signed, to_unit
from .formats import (DataError, load_checkpoint, load_dataset_dir,
                      read_config_file, read_pgm, save_checkpoint,
                      write_manifest, write_pgm)
from .metrics import evaluate_pairs
from .rng import Rng
from .schedule import respace
from .toyfaces import SIZE, render, sample_spec
from .training import (NumericError, PairedDataset, Stage, TrainConfig,
                       history_csv_rows, train_stage)
from .turbulence import DegradationConfig, degrade_item

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# sampler defaults of restore and ablate: respaced steps K, truncated start
# step t1, and images per restore_batched chunk
SAMPLER_STEPS = 60
SAMPLER_T1 = 30
SAMPLER_CHUNK = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this artifact reserves 2 for data
    # errors, so route usage problems to exit code 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _resolve(args, spec: dict[str, tuple], config_path) -> dict:
    """Merge defaults < config file < explicit flags for the keys in
    ``spec`` (name -> (type, default))."""
    file_kv = read_config_file(config_path, spec.keys()) if config_path else {}
    out = {}
    for key, (typ, default) in spec.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in file_kv:
            try:
                out[key] = typ(file_kv[key])
            except ValueError:
                raise DataError(f"config key {key}: cannot parse "
                                f"{file_kv[key]!r} as {typ.__name__}")
        else:
            out[key] = default
    return out


def _write_csv(path, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

_DEGRADATION = DegradationConfig()
_GEN_KEYS = {
    "count": (int, 4096),
    "seed": (int, 0),
    "elastic_sigma": (float, _DEGRADATION.elastic_sigma),
    "elastic_alpha": (float, _DEGRADATION.elastic_alpha),
    "blur_sigma_min": (float, _DEGRADATION.blur_sigma_range[0]),
    "blur_sigma_max": (float, _DEGRADATION.blur_sigma_range[1]),
    "noise_std": (float, _DEGRADATION.noise_std),
    "weak_factor": (int, 4),
}


def cmd_gen_data(args) -> int:
    v = _resolve(args, _GEN_KEYS, args.config)
    if v["count"] < 0:
        raise DataError(f"count must be >= 0, got {v['count']}")
    if v["weak_factor"] < 1 or SIZE % v["weak_factor"]:
        raise DataError(f"--weak-factor/weak_factor must be >= 1 and divide "
                        f"the image size {SIZE}, got {v['weak_factor']}")
    lo, hi = v["blur_sigma_min"], v["blur_sigma_max"]
    if not 0 <= lo <= hi:
        raise DataError(f"--blur-sigma-min/--blur-sigma-max must satisfy "
                        f"0 <= min <= max, got min {lo}, max {hi}")
    if hi == math.inf:
        raise DataError(f"--blur-sigma-max/blur_sigma_max must be finite, "
                        f"got {hi}")
    cfg = DegradationConfig(
        elastic_sigma=v["elastic_sigma"], elastic_alpha=v["elastic_alpha"],
        blur_sigma_range=(lo, hi),
        noise_std=v["noise_std"], seed=v["seed"])
    out = args.out
    for sub in ("clean", "weak", "strong"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    base = Rng(v["seed"])
    rows = []
    for i in range(v["count"]):
        clean = render(sample_spec(base.stream(i), seed_tag=i))
        weak, strong = degrade_item(clean, cfg, i, v["weak_factor"])
        item = f"{i:05d}"
        paths = {s: os.path.join(s, f"{item}.pgm")
                 for s in ("clean", "weak", "strong")}
        write_pgm(os.path.join(out, paths["clean"]), clean)
        write_pgm(os.path.join(out, paths["weak"]), weak)
        write_pgm(os.path.join(out, paths["strong"]), strong)
        rows.append((item, paths["clean"], paths["weak"], paths["strong"],
                     v["seed"]))
    write_manifest(os.path.join(out, "manifest.txt"), rows)
    print(f"wrote {len(rows)} item triplets to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = [f for f in fields(TrainConfig) if f.default is not MISSING]
_KEY = {"learning_rate": "lr"}  # field -> flag and config key, if renamed


def _config_keys(*skip: str) -> dict[str, tuple]:
    """Flag/config key -> (type, default) of the TrainConfig fields that
    have a default, less the fields in ``skip``."""
    return {_KEY.get(f.name, f.name): (type(f.default), f.default)
            for f in _CONFIG_FIELDS if f.name not in skip}


def _train_config(v: dict, **fixed) -> TrainConfig:
    """TrainConfig of the resolved values ``v``; ``fixed`` sets fields
    directly and leaves their keys in ``v`` unread."""
    return TrainConfig(**fixed, **{f.name: v[_KEY.get(f.name, f.name)]
                                   for f in _CONFIG_FIELDS
                                   if f.name not in fixed})


_TRAIN_KEYS = {**_config_keys(), "checkpoint_every": (int, 0)}


def _load_dataset(path) -> PairedDataset:
    ids, clean, weak, strong = load_dataset_dir(path)
    return PairedDataset(clean=clean, weak=weak, strong=strong, ids=ids)


def cmd_train(args) -> int:
    v = _resolve(args, _TRAIN_KEYS, args.config)
    if v["checkpoint_every"] < 0:
        raise DataError(f"--checkpoint-every/checkpoint_every must be >= 0, "
                        f"got {v['checkpoint_every']}")
    stage = Stage(args.stage)
    if stage is Stage.STRONG_DISTILL and not args.teacher:
        raise UsageError("--stage strong requires --teacher "
                         "(checkpoint of the weak-degradation model)")
    config = _train_config(v, stage=stage)
    dataset = _load_dataset(args.data)

    init = teacher = None
    if args.init:
        init = load_checkpoint(args.init).student
    if args.teacher:
        teacher_ckpt = load_checkpoint(args.teacher)
        teacher = teacher_ckpt.student.copy(requires_grad=False)
        if init is None:
            # the distillation stage starts the student from the teacher
            init = teacher_ckpt.student
    if init is not None and teacher is not None and init.spec != teacher.spec:
        raise DataError(f"--init descriptor {init.spec} does not match "
                        f"--teacher descriptor {teacher.spec}")

    def save(state, path=args.out):
        save_checkpoint(path, state.student, teacher=state.teacher,
                        opt_m=state.opt_m, opt_v=state.opt_v,
                        meta=replace(config, steps=state.step))

    state = train_stage(config, dataset, init=init, teacher_init=teacher,
                        checkpoint_every=v["checkpoint_every"],
                        checkpoint_fn=save if v["checkpoint_every"] else None,
                        log_every=max(config.steps // 10, 1))
    save(state)
    if args.loss_csv:
        _write_csv(args.loss_csv, history_csv_rows(state))
    if state.history:
        _, l_t, l_s, _ = state.history[-1]
        line = f"final noise loss {l_t:.5f}"
        if stage is Stage.STRONG_DISTILL:
            line += f", consistency loss {l_s:.5f}"
        print(line)
    print(f"wrote checkpoint {args.out} (stage={stage.value}, "
          f"step={state.step})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------

def _checkpoint_sampler(student: DenoiserParams, meta: TrainConfig,
                        steps: int):
    """Float32 denoiser and the ``steps``-step respacing of the checkpoint's
    noise schedule."""
    return (make_denoise_fn(student.astype(np.float32)),
            respace(meta.schedule(), steps))


def cmd_restore(args) -> int:
    if args.t1 is None:
        args.t1 = args.steps if args.noise_start else SAMPLER_T1
    if not 1 <= args.t1 <= args.steps:
        raise DataError(f"--t1 must be in [1, --steps {args.steps}], "
                        f"got {args.t1}")
    if args.noise_start and args.t1 != args.steps:
        raise DataError(f"--noise-start requires --t1 == --steps "
                        f"{args.steps}, got {args.t1}")
    if args.snapshots < 0:
        raise DataError(f"--snapshots must be >= 0, got {args.snapshots}")
    if args.batch < 1:
        raise DataError(f"--batch must be >= 1, got {args.batch}")
    ckpt = load_checkpoint(args.ckpt)
    size = ckpt.student.spec.image_size
    fn, sched = _checkpoint_sampler(ckpt.student, ckpt.meta, args.steps)

    names, imgs = [], []
    for path in args.images:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in names:
            raise DataError(f"{args.images[names.index(name)]} and {path} "
                            f"would both be restored to {name}.pgm")
        img = read_pgm(path)
        if img.shape != (size, size):
            raise DataError(f"{path}: resolution {img.shape} does not match "
                            f"the checkpoint's {size}x{size}")
        names.append(name)
        imgs.append(img)
    snap_dir = os.path.join(args.out, "snapshots")
    os.makedirs(snap_dir if args.snapshots else args.out, exist_ok=True)
    # one restore call per --batch chunk, timed on its own; item i draws
    # from stream i whatever the chunking
    trace_rows = ["item_id,nfe,seconds"]
    x = to_signed(np.stack(imgs)[:, None])
    rng = Rng(args.seed)
    for lo in range(0, len(x), args.batch):
        hi = min(lo + args.batch, len(x))
        t0 = time.perf_counter()
        out, snapshots = restore(x[lo:hi], fn, sched, args.t1, rng,
                                 noise_start=args.noise_start,
                                 snapshot_every=args.snapshots,
                                 stream_offset=lo)
        per_item = (time.perf_counter() - t0) / (hi - lo)
        for t_orig, snap in snapshots:
            for name, img in zip(names[lo:hi], to_unit(snap[:, 0])):
                write_pgm(os.path.join(snap_dir, f"{name}_t{t_orig:04d}.pgm"),
                          img)
        for name, img in zip(names[lo:hi], to_unit(out[:, 0])):
            write_pgm(os.path.join(args.out, f"{name}.pgm"), img)
            trace_rows.append(f"{name},{args.t1},{per_item:.4f}")
    _write_csv(os.path.join(args.out, "trace.csv"), trace_rows)
    print(f"restored {len(names)} images to {args.out} "
          f"(t1={args.t1}, steps={args.steps}, nfe={args.t1})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _pgm_map(dirpath) -> dict[str, str]:
    try:
        files = sorted(os.listdir(dirpath))
    except OSError as e:
        raise DataError(f"cannot list {dirpath}: {e}")
    return {os.path.splitext(f)[0]: os.path.join(dirpath, f)
            for f in files if f.endswith(".pgm")}


def cmd_eval(args) -> int:
    pred = _pgm_map(args.pred)
    ref = _pgm_map(args.ref)
    unmatched = sorted(set(pred) ^ set(ref))
    if unmatched:
        raise DataError("unmatched items between --pred and --ref: "
                        + ", ".join(unmatched))
    report = evaluate_pairs(
        (item, read_pgm(pred[item]), read_pgm(ref[item]))
        for item in sorted(pred))
    _write_csv(args.out, report.csv_rows())
    if report.count:
        print(f"{report.count} items: PSNR mean {report.psnr_mean:.2f} dB "
              f"(median {report.psnr_median:.2f}), SSIM mean "
              f"{report.ssim_mean:.4f}")
    else:
        print("no items to evaluate")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def _restore_eval(params: DenoiserParams, meta: TrainConfig,
                  eval_ds: PairedDataset, t1: int, steps: int, seed: int,
                  noise_start: bool = False):
    fn, sched = _checkpoint_sampler(params, meta, steps)
    x = to_signed(eval_ds.strong)
    t0 = time.perf_counter()
    out, _ = restore_batched(x, fn, sched, t1, Rng(seed),
                             noise_start=noise_start, batch_size=SAMPLER_CHUNK)
    seconds = time.perf_counter() - t0
    restored = to_unit(out)
    report = evaluate_pairs(
        (eval_ds.ids[i], restored[i, 0], eval_ds.clean[i, 0])
        for i in range(len(eval_ds)))
    dists = np.mean((restored - eval_ds.strong) ** 2, axis=(1, 2, 3))
    return report, dists, seconds


def cmd_ablate_pt(args, v) -> int:
    if not 1 <= v["t1"] <= v["steps"]:
        raise DataError(f"--t1/t1 must be in [1, --steps {v['steps']}], "
                        f"got {v['t1']}")
    for key in ("steps_weak", "steps_strong"):
        if v[key] < 0:
            raise DataError(f"--{key.replace('_', '-')}/{key} must be >= 0, "
                            f"got {v[key]}")
    total = v["steps_weak"] + v["steps_strong"]
    # all three stage configs are built, and so checked, before any data is
    # read; checkpoint headers hold the base seed, the stage and the steps
    # taken
    base = _train_config(v, stage=Stage.WEAK_COND, steps=v["steps_weak"])
    distill = replace(base, stage=Stage.STRONG_DISTILL,
                      steps=v["steps_strong"], seed=base.seed + 1)
    direct = replace(base, steps=total, seed=base.seed + 2)
    train_ds = _load_dataset(args.train_data)
    eval_ds = _load_dataset(args.eval_data)
    os.makedirs(args.out, exist_ok=True)

    print(f"[1/3] progressive path: weak stage, {v['steps_weak']} steps")
    weak_state = train_stage(base, train_ds,
                             log_every=max(v["steps_weak"] // 5, 1))
    print(f"[2/3] progressive path: distillation stage, {v['steps_strong']} steps")
    pt_state = train_stage(
        distill, train_ds, init=weak_state.student,
        teacher_init=weak_state.student,
        log_every=max(v["steps_strong"] // 5, 1))
    save_checkpoint(os.path.join(args.out, "progressive.ckpt"),
                    pt_state.student, teacher=pt_state.teacher,
                    meta=replace(base, stage=Stage.STRONG_DISTILL,
                                 steps=pt_state.step))

    # direct baseline: plain conditioning on the strong degradation for the
    # same total number of gradient steps, no teacher
    print(f"[3/3] direct path: strong conditioning, {total} steps")
    direct_ds = PairedDataset(clean=train_ds.clean, weak=train_ds.strong,
                              strong=None, ids=train_ds.ids)
    direct_state = train_stage(direct, direct_ds,
                               log_every=max(total // 5, 1))
    save_checkpoint(os.path.join(args.out, "direct.ckpt"),
                    direct_state.student,
                    meta=replace(base, steps=direct_state.step))

    rows = ["variant,total_steps,psnr_mean,psnr_median,ssim_mean"]
    summary = {}
    for label, params in (("progressive", pt_state.student),
                          ("direct", direct_state.student)):
        rep, _, _ = _restore_eval(params, base, eval_ds, v["t1"],
                                  v["steps"], v["seed"] + 9)
        rows.append(f"{label},{total},{rep.psnr_mean:.4f},"
                    f"{rep.psnr_median:.4f},{rep.ssim_mean:.5f}")
        summary[label] = rep
    _write_csv(os.path.join(args.out, "pt_ablation.csv"), rows)
    for line in rows:
        print(line)
    delta = summary["progressive"].psnr_mean - summary["direct"].psnr_mean
    print(f"progressive - direct PSNR: {delta:+.3f} dB")
    return EXIT_OK


def cmd_ablate_sampling(args, v) -> int:
    try:
        t1_list = [int(s) for s in v["t1_list"].split(",") if s]
    except ValueError:
        raise DataError(f"--t1-list/t1_list: cannot parse {v['t1_list']!r} "
                        f"as comma-separated integers")
    bad = [t for t in t1_list if not (1 <= t <= v["steps"])]
    if bad:
        raise DataError(f"--t1-list/t1_list: values {bad} outside "
                        f"[1, {v['steps']}]")
    eval_ds = _load_dataset(args.eval_data)
    ckpt = load_checkpoint(args.ckpt)
    os.makedirs(args.out, exist_ok=True)

    rows = ["variant,t1,nfe,seconds_per_item,psnr_mean,ssim_mean,dist_mean"]
    per_item: dict[str, np.ndarray] = {}
    n = len(eval_ds)
    # the truncated starts, then the full chain from pure noise
    variants = [(f"t1={t1}", t1, False) for t1 in t1_list]
    variants.append(("noise_start", v["steps"], True))
    for label, t1, noise_start in variants:
        rep, dists, secs = _restore_eval(
            ckpt.student, ckpt.meta, eval_ds, t1, v["steps"], v["seed"],
            noise_start=noise_start)
        rows.append(f"{label},{t1},{t1},{secs / n:.4f},{rep.psnr_mean:.4f},"
                    f"{rep.ssim_mean:.5f},{float(np.mean(dists)):.6f}")
        per_item[label] = dists
    _write_csv(os.path.join(args.out, "sampling_ablation.csv"), rows)

    cols = list(per_item)
    item_rows = ["item_id," + ",".join(f"dist_{c}" for c in cols)]
    for i, item_id in enumerate(eval_ds.ids):
        item_rows.append(item_id + "," + ",".join(f"{per_item[c][i]:.6f}"
                                                  for c in cols))
    _write_csv(os.path.join(args.out, "sampling_per_item.csv"), item_rows)
    for line in rows:
        print(line)
    return EXIT_OK


# ``steps`` is the sampler's K here; each training stage's steps have
# their own keys
_ABLATE_KEYS = {
    "steps_weak": (int, TrainConfig.steps),
    "steps_strong": (int, TrainConfig.steps),
    **_config_keys("steps"),
    "steps": (int, SAMPLER_STEPS),
    "t1": (int, SAMPLER_T1),
    "t1_list": (str, "10,20,30,45,60"),
}


def cmd_ablate(args) -> int:
    v = _resolve(args, _ABLATE_KEYS, args.config)
    if args.which == "pt":
        if not (args.train_data and args.eval_data):
            raise UsageError("--which pt requires --train-data and --eval-data")
        return cmd_ablate_pt(args, v)
    if not (args.ckpt and args.eval_data):
        raise UsageError("--which sampling requires --ckpt and --eval-data")
    return cmd_ablate_sampling(args, v)


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_train_like_flags(p, keys):
    for key in keys:
        typ = keys[key][0]
        p.add_argument(f"--{key.replace('_', '-')}", type=typ, default=None)


def build_parser() -> _Parser:
    p = _Parser(prog="turbdiff",
                description="Toy-scale conditional diffusion for "
                            "turbulence-style degradation removal.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a toy dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--config", default=None)
    _add_train_like_flags(g, _GEN_KEYS)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train one stage")
    t.add_argument("--stage", required=True, choices=[s.value for s in Stage])
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--init", default=None, help="checkpoint to start from")
    t.add_argument("--teacher", default=None,
                   help="weak-stage checkpoint (required for --stage strong)")
    t.add_argument("--loss-csv", default=None)
    t.add_argument("--config", default=None)
    _add_train_like_flags(t, _TRAIN_KEYS)
    t.set_defaults(fn=cmd_train)

    r = sub.add_parser("restore", help="restore degraded images")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--in", dest="images", nargs="+", required=True,
                   metavar="IMG")
    r.add_argument("--out", required=True)
    r.add_argument("--t1", type=int, default=None,
                   help=f"truncated start step (default {SAMPLER_T1})")
    r.add_argument("--steps", type=int, default=SAMPLER_STEPS,
                   help=f"respaced inference steps (default {SAMPLER_STEPS})")
    r.add_argument("--noise-start", action="store_true",
                   help="start from pure noise (requires --t1 == --steps)")
    r.add_argument("--snapshots", type=int, default=0, metavar="M",
                   help="dump every M-th intermediate image")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--batch", type=int, default=SAMPLER_CHUNK,
                   help=f"images restored together (default {SAMPLER_CHUNK}); "
                        f"trace.csv's seconds for an image is its chunk's "
                        f"wall time divided by the chunk's size")
    r.set_defaults(fn=cmd_restore)

    e = sub.add_parser("eval", help="PSNR/SSIM of predictions vs references")
    e.add_argument("--pred", required=True)
    e.add_argument("--ref", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("ablate", help="progressive-training or sampling study")
    a.add_argument("--which", required=True, choices=["pt", "sampling"])
    a.add_argument("--train-data", default=None)
    a.add_argument("--eval-data", default=None)
    a.add_argument("--ckpt", default=None)
    a.add_argument("--out", required=True)
    a.add_argument("--config", default=None)
    _add_train_like_flags(a, _ABLATE_KEYS)
    a.set_defaults(fn=cmd_ablate)
    return p


@functools.cache
def _parser() -> _Parser:
    """The parser of :func:`main`, built once per process: building it
    makes about 66 ``add_argument`` calls, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
