"""Command-line front end: dataset generation, staged training, restoration,
evaluation, and the paper's two ablation studies.  ``ablate pt`` trains the
progressive and the direct path on ``--train-data``; ``ablate sampling``
restores with ``--ckpt`` from several truncated starts ``t1`` and from the
full chain, ``t1 = --steps``; each scores ``--eval-data``.

Every command is deterministic given its seed, flags, and inputs.  Options
may also come from a ``key=value`` config file (``--config``); explicit
flags override file values, and unknown file keys are hard errors.

Defaults and domains (valid values) have one source each.  The training
flags and config keys of ``train`` and ``ablate pt`` are the fields of
:class:`TrainConfig` with their names, types, defaults and domains, and a
checkpoint header is a TrainConfig too.  ``gen-data``'s degradation settings
are those of :class:`DegradationConfig` in the same way, and the rest are in
the tables below.  A command checks every setting before it reads data,
naming it by flag (and config key).

Exit codes: 0 success, 1 usage error, 2 data/contract error, 3 numeric
failure (NaN abort).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import fields, replace

import numpy as np

from .denoiser import DenoiserParams, NetSpec, make_denoise_fn
from .diffusion import (RESTORE_BATCH, restore, restore_batched, to_signed,
                        to_unit)
from .domain import SettingError, check
from .formats import (DataError, load_checkpoint, load_dataset_dir,
                      read_config_file, read_pgm, save_checkpoint,
                      write_manifest, write_pgm)
from .metrics import evaluate_pairs
from .rng import Rng
from .schedule import respace
from .toyfaces import SIZE, render, sample_spec
from .training import (NumericError, PairedDataset, Stage, TrainConfig,
                       history_csv_rows, train_stage)
from .turbulence import (WEAK_FACTOR, WEAK_FACTOR_DOMAIN, DegradationConfig,
                         degrade_item)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# key -> (type, default, domain) of restore's settings; the ablation
# studies' sampler has the same steps K, truncated start t1 and seed
_RESTORE_KEYS = {
    "t1": (int, 30, "[1, inf)"),
    "steps": (int, 60, "[1, inf)"),
    "snapshots": (int, 0, "[0, inf)"),
    "seed": (int, 0, "(-inf, inf)"),
    "batch": (int, RESTORE_BATCH, "[1, inf)"),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # a flag is spelled in full: an abbreviation could silently name another
    # setting, as --t1 would --t1-list
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with 2 on bad usage; this artifact reserves 2 for data
    # errors, so route usage problems to exit code 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _resolve(args) -> dict:
    """Merge defaults < config file < explicit flags for the settings of
    ``args``' command, and check each value against its domain."""
    config = getattr(args, "config", None)
    file_kv = read_config_file(config, args.settings) if config else {}
    out = {}
    for key, (typ, default, domain) in args.settings.items():
        v = getattr(args, key)
        if v is None and key in file_kv:
            try:
                v = typ(file_kv[key])
            except ValueError:
                raise DataError(f"config key {key}: cannot parse "
                                f"{file_kv[key]!r} as {typ.__name__}")
        v = default if v is None else v
        if key == "t1_list":  # distinct comma-separated integers
            try:
                t1s = [int(s) for s in v.split(",")]
            except ValueError:
                raise SettingError(lambda n: f"{n}: cannot parse {v!r} as "
                                   f"comma-separated integers", key)
            if len(set(t1s)) < len(t1s):
                raise SettingError(lambda n: f"{n}: {v!r} repeats a value",
                                   key)
            v = t1s
        for x in v if isinstance(v, list) else [v]:
            check(key, x, domain)
        out[key] = v
    return out


def _label(args, name: str) -> str:
    """How ``args``' command names setting ``name``: by flag, and by key too
    where a config file may set it."""
    flag = "--" + name.replace("_", "-")
    return f"{flag}/{name}" if "config" in args else flag


def _field_settings(cls) -> dict[str, tuple]:
    """Field -> (type, default, domain) of the fields of ``cls`` that have
    a domain."""
    return {f.name: (type(f.default), f.default, f.metadata["domain"])
            for f in fields(cls) if "domain" in f.metadata}


def _check_sampler(key: str, t1s: list[int], K: int, T: int) -> None:
    """The rules 1 <= K <= T, the length of the schedule that the sampler
    respaces, and 1 <= t1 <= K for each start in ``t1s``, the value of
    setting ``key``."""
    check("steps", K, f"[1, {T}]")
    for t1 in t1s:
        check(key, t1, f"[1, {K}]")


def _write_csv(path, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

_DEGRADATION = _field_settings(DegradationConfig)
_GEN_KEYS = {
    "count": (int, 4096, "[0, inf)"),
    **_DEGRADATION,
    "weak_factor": (int, WEAK_FACTOR, WEAK_FACTOR_DOMAIN),
}


def cmd_gen_data(args) -> int:
    v = _resolve(args)
    if SIZE % v["weak_factor"]:
        raise SettingError(lambda n: f"{n} must divide the image size {SIZE}, "
                           f"got {v['weak_factor']}", "weak_factor")
    cfg = DegradationConfig(**{k: v[k] for k in _DEGRADATION})
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

_TRAIN_FIELDS = _field_settings(TrainConfig)


def _train_config(v: dict, **fixed) -> TrainConfig:
    """TrainConfig of the resolved values ``v``; ``fixed`` sets fields
    directly and leaves their keys in ``v`` unread."""
    return TrainConfig(**fixed, **{name: v[name] for name in _TRAIN_FIELDS
                                   if name not in fixed})


_TRAIN_KEYS = {**_TRAIN_FIELDS, "checkpoint_every": (int, 0, "[0, inf)")}


def _load_dataset(flag: str, path, size: int) -> PairedDataset:
    """The dataset in directory ``path``, given by ``flag``, whose images
    must be ``size`` x ``size``: the network's input."""
    ids, clean, weak, strong = load_dataset_dir(path)
    if clean.shape[-2:] != (size, size):
        raise DataError(f"{flag} {path}: images are {clean.shape[-2]}x"
                        f"{clean.shape[-1]}, the network takes {size}x{size}")
    return PairedDataset(clean=clean, weak=weak, strong=strong, ids=ids)


def cmd_train(args) -> int:
    v = _resolve(args)
    stage = Stage(args.stage)
    if stage is Stage.STRONG_DISTILL and not args.teacher:
        raise UsageError("--stage strong requires --teacher "
                         "(checkpoint of the weak-degradation model)")
    config = _train_config(v, stage=stage)
    for flag, path in (("--out", args.out), ("--loss-csv", args.loss_csv)):
        if path and os.path.isdir(path):
            raise DataError(f"{flag} {path} is a directory")
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise DataError(f"{flag} {path}: its directory does not exist")

    init = teacher = None
    if args.init:
        init = load_checkpoint(args.init).student
    if args.teacher:
        teacher = load_checkpoint(args.teacher).student
        if init is None:
            # the distillation stage starts the student from the teacher
            init = teacher
    if init is not None and teacher is not None and init.spec != teacher.spec:
        raise DataError(f"--init descriptor {init.spec} does not match "
                        f"--teacher descriptor {teacher.spec}")
    dataset = _load_dataset("--data", args.data,
                            (init.spec if init else NetSpec()).image_size)

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
    v = _resolve(args)
    K, t1 = v["steps"], v["t1"]
    ckpt = load_checkpoint(args.ckpt)
    _check_sampler("t1", [t1], K, ckpt.meta.t_steps)
    size = ckpt.student.spec.image_size
    fn, sched = _checkpoint_sampler(ckpt.student, ckpt.meta, K)

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
    os.makedirs(snap_dir if v["snapshots"] else args.out, exist_ok=True)
    # one restore call per --batch chunk, timed on its own; item i draws
    # from stream i whatever the chunking
    trace_rows = ["item_id,nfe,seconds"]
    x = to_signed(np.stack(imgs)[:, None])
    rng = Rng(v["seed"])
    for lo in range(0, len(x), v["batch"]):
        hi = min(lo + v["batch"], len(x))
        t0 = time.perf_counter()
        out, snapshots = restore(x[lo:hi], fn, sched, t1, rng,
                                 snapshot_every=v["snapshots"],
                                 stream_offset=lo)
        per_item = (time.perf_counter() - t0) / (hi - lo)
        for t_orig, snap in snapshots:
            for name, img in zip(names[lo:hi], to_unit(snap[:, 0])):
                write_pgm(os.path.join(snap_dir, f"{name}_t{t_orig:04d}.pgm"),
                          img)
        for name, img in zip(names[lo:hi], to_unit(out[:, 0])):
            write_pgm(os.path.join(args.out, f"{name}.pgm"), img)
            trace_rows.append(f"{name},{t1},{per_item:.4f}")
    _write_csv(os.path.join(args.out, "trace.csv"), trace_rows)
    print(f"restored {len(names)} images to {args.out} "
          f"(t1={t1}, steps={K}, nfe={t1})")
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
    def pair(item):
        p, r = read_pgm(pred[item]), read_pgm(ref[item])
        if p.shape != r.shape:
            raise DataError(f"item {item}: {pred[item]} is {p.shape} but "
                            f"{ref[item]} is {r.shape}")
        return item, p, r

    report = evaluate_pairs(pair(item) for item in sorted(pred))
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
                  eval_ds: PairedDataset, t1: int, steps: int, seed: int):
    fn, sched = _checkpoint_sampler(params, meta, steps)
    x = to_signed(eval_ds.strong)
    t0 = time.perf_counter()
    out, _ = restore_batched(x, fn, sched, t1, Rng(seed))
    seconds = time.perf_counter() - t0
    restored = to_unit(out)
    report = evaluate_pairs(zip(eval_ds.ids, restored[:, 0],
                                eval_ds.clean[:, 0]))
    dists = np.mean((restored - eval_ds.strong) ** 2, axis=(1, 2, 3))
    return report, dists, seconds


# ``steps`` is the sampler's K here; each training stage's steps have
# their own keys
_PT_KEYS = {
    "steps_weak": _TRAIN_FIELDS["steps"],
    "steps_strong": _TRAIN_FIELDS["steps"],
    **{k: entry for k, entry in _TRAIN_FIELDS.items() if k != "steps"},
    "steps": _RESTORE_KEYS["steps"],
    "t1": _RESTORE_KEYS["t1"],
}


def cmd_ablate_pt(args) -> int:
    v = _resolve(args)
    total = v["steps_weak"] + v["steps_strong"]
    # all three stage configs are built, and so checked, before any data is
    # read; checkpoint headers hold the base seed, the stage and the steps
    # taken
    base = _train_config(v, stage=Stage.WEAK_COND, steps=v["steps_weak"])
    distill = replace(base, stage=Stage.STRONG_DISTILL,
                      steps=v["steps_strong"], seed=base.seed + 1)
    direct = replace(base, steps=total, seed=base.seed + 2)
    _check_sampler("t1", [v["t1"]], v["steps"], base.t_steps)
    size = NetSpec().image_size
    train_ds = _load_dataset("--train-data", args.train_data, size)
    eval_ds = _load_dataset("--eval-data", args.eval_data, size)
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


_SAMPLING_KEYS = {
    "steps": _RESTORE_KEYS["steps"],
    "t1_list": (str, "10,20,30,45,60", _RESTORE_KEYS["t1"][2]),
    "seed": _RESTORE_KEYS["seed"],
}


def cmd_ablate_sampling(args) -> int:
    v = _resolve(args)
    K = v["steps"]
    ckpt = load_checkpoint(args.ckpt)
    _check_sampler("t1_list", v["t1_list"], K, ckpt.meta.t_steps)
    eval_ds = _load_dataset("--eval-data", args.eval_data,
                            ckpt.student.spec.image_size)
    os.makedirs(args.out, exist_ok=True)

    rows = ["variant,t1,nfe,seconds_per_item,psnr_mean,ssim_mean,dist_mean"]
    per_t1 = []
    n = len(eval_ds)
    # the truncated starts, then the full chain t1 = K if the list lacks it
    t1s = v["t1_list"] if K in v["t1_list"] else [*v["t1_list"], K]
    for t1 in t1s:
        rep, dists, secs = _restore_eval(ckpt.student, ckpt.meta, eval_ds,
                                         t1, K, v["seed"])
        rows.append(f"t1={t1},{t1},{t1},{secs / n:.4f},{rep.psnr_mean:.4f},"
                    f"{rep.ssim_mean:.5f},{float(np.mean(dists)):.6f}")
        per_t1.append(dists)
    _write_csv(os.path.join(args.out, "sampling_ablation.csv"), rows)

    item_rows = ["item_id," + ",".join(f"dist_t1={t1}" for t1 in t1s)]
    for i, item_id in enumerate(eval_ds.ids):
        item_rows.append(item_id + "," + ",".join(f"{d[i]:.6f}"
                                                  for d in per_t1))
    _write_csv(os.path.join(args.out, "sampling_per_item.csv"), item_rows)
    for line in rows:
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_settings(p, settings: dict, defaults=False, **helps) -> None:
    """A flag for each setting of the table ``settings``, its help showing
    the default and domain.  A flag defaults to None, so that a config file
    may set it, or with ``defaults`` to the setting's default."""
    for key, (typ, default, domain) in settings.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=typ,
                       default=default if defaults else None,
                       help=f"{helps.get(key, '')} (default {default}, in "
                            f"{domain})".lstrip())


def build_parser() -> _Parser:
    p = _Parser(prog="turbdiff",
                description="Toy-scale conditional diffusion for "
                            "turbulence-style degradation removal.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a toy dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--config", default=None)
    _add_settings(g, _GEN_KEYS,
                  weak_factor=f"a divisor of the image size {SIZE}")
    g.set_defaults(fn=cmd_gen_data, settings=_GEN_KEYS)

    t = sub.add_parser("train", help="train one stage")
    t.add_argument("--stage", required=True, choices=[s.value for s in Stage])
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--init", default=None, help="checkpoint to start from")
    t.add_argument("--teacher", default=None,
                   help="weak-stage checkpoint (required for --stage strong)")
    t.add_argument("--loss-csv", default=None)
    t.add_argument("--config", default=None)
    _add_settings(t, _TRAIN_KEYS)
    t.set_defaults(fn=cmd_train, settings=_TRAIN_KEYS)

    r = sub.add_parser("restore", help="restore degraded images")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--in", dest="images", nargs="+", required=True,
                   metavar="IMG")
    r.add_argument("--out", required=True)
    _add_settings(
        r, _RESTORE_KEYS, True,
        t1="truncated start step, at most --steps; --t1 equal to --steps "
           "runs the full chain",
        steps="respaced steps, at most the checkpoint's t_steps",
        snapshots="dump every SNAPSHOTS-th intermediate image",
        batch="images restored together; trace.csv's seconds for an image "
              "is its chunk's time over its size")
    r.set_defaults(fn=cmd_restore, settings=_RESTORE_KEYS)

    e = sub.add_parser("eval", help="PSNR/SSIM of predictions vs references")
    e.add_argument("--pred", required=True)
    e.add_argument("--ref", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("ablate", help="the paper's two ablation studies")
    studies = a.add_subparsers(dest="study", required=True)
    for name, data, table, fn, about, helps in (
            ("pt", "--train-data", _PT_KEYS, cmd_ablate_pt,
             "progressive against direct training on --train-data",
             dict(t1="truncated start step, at most --steps")),
            ("sampling", "--ckpt", _SAMPLING_KEYS, cmd_ablate_sampling,
             "truncated starts against the full chain, with --ckpt",
             dict(t1_list="truncated starts, each at most --steps; the "
                          "full chain t1 = --steps is always run"))):
        s = studies.add_parser(name, help=f"{about}; scores --eval-data")
        for flag in (data, "--eval-data", "--out"):
            s.add_argument(flag, required=True)
        s.add_argument("--config", default=None)
        _add_settings(s, table, steps="the sampler's respaced steps K",
                      **helps)
        s.set_defaults(fn=fn, settings=table)
    return p


@functools.cache
def _parser() -> _Parser:
    """The parser of :func:`main`, built once per process: building it
    makes about 70 ``add_argument`` calls, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # a blow-up is reported by the finiteness checks of restore,
        # optimizer_step, write_pgm and save_checkpoint, with exit 3 or 2,
        # not by numpy's warnings on the way there
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SettingError as e:
        # named by flag and key, as the command's table names them
        print(f"error: {e.text(*(_label(args, n) for n in e.names))}",
              file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
