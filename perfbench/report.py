"""End-to-end and per-layer metrics from one run."""

from __future__ import annotations

import resource

import numpy as np

from spans import BLOCKS, OP_KINDS


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(m, setup_s, rss_mb, attempted, failed) -> dict:
    op_ms = np.asarray(m.op_s) * 1e3
    return {
        "setup_s": _m(min(setup_s), "s"),
        "peak_rss_mb": _m(rss_mb, "MB"),
        "ok_frac": _m(1.0 - failed / attempted, "fraction"),
        "op_ms.p50": _m(np.percentile(op_ms, 50), "ms"),
        "op_ms.p90": _m(np.percentile(op_ms, 90), "ms"),
        "items_per_s": _m(m.items / m.busy_s, "1/s"),
        "quality_db": _m(m.quality_db, "dB"),
    }


def per_layer(tracer, n_ops: int) -> dict:
    """Per-layer metrics of the measured phase.  Unless the name says
    otherwise, a value is per workload operation (train step, restored
    image, restore request, generated corpus); ``calls`` are counts per
    operation.  Layers a workload does not use read 0."""
    by_name, blocks, teacher_s, flop = tracer.summary()

    def total(name):
        return by_name[name]["total_s"] if name in by_name else 0.0

    def calls(name):
        return by_name[name]["calls"] if name in by_name else 0

    def self_s(name):
        return by_name[name]["self_s"] if name in by_name else 0.0

    per_op = lambda s: 1e3 * s / n_ops   # noqa: E731  seconds -> ms per op
    out = {}
    for kind in OP_KINDS:
        out[f"autodiff.{kind}.fwd_ms"] = _m(per_op(total(f"autodiff.{kind}.fwd")), "ms")
        out[f"autodiff.{kind}.bwd_ms"] = _m(per_op(total(f"autodiff.{kind}.bwd")), "ms")
        out[f"autodiff.{kind}.calls"] = _m(calls(f"autodiff.{kind}.fwd") / n_ops, "count")
    # conv work is computed from the op shapes (2 x multiply-adds; backward
    # counts two forward passes), not counted by the hardware
    conv_s = total("autodiff.conv2d.fwd") + total("autodiff.conv2d.bwd")
    out["autodiff.conv2d.gflop"] = _m(flop / 1e9 / n_ops, "GFLOP")
    out["autodiff.conv2d.gflop_per_s"] = _m(flop / 1e9 / conv_s if conv_s else 0.0,
                                            "GFLOP/s")
    out["autodiff.backward.self_ms"] = _m(per_op(self_s("autodiff.backward")), "ms")

    eps_calls = calls("denoiser.eps_predict")
    per_call = lambda s: 1e3 * s / eps_calls if eps_calls else 0.0  # noqa: E731
    out["denoiser.eps_predict.ms"] = _m(per_call(total("denoiser.eps_predict")), "ms")
    for b in BLOCKS:
        out[f"denoiser.{b}.ms"] = _m(per_call(blocks.get(b, 0.0)), "ms")

    # one denoiser call per reverse step
    steps = eps_calls if calls("diffusion.restore") else 0
    out["diffusion.restore.self_ms_per_step"] = _m(
        1e3 * self_s("diffusion.restore") / steps if steps else 0.0, "ms")
    out["rng.gauss.ms"] = _m(per_op(total("rng.gauss")), "ms")
    out["rng.gauss.calls"] = _m(calls("rng.gauss") / n_ops, "count")

    step_self = self_s("train.weak.step") + self_s("train.strong.step")
    out["training.data_ms"] = _m(per_op(step_self), "ms")
    out["training.loss_fwd_ms"] = _m(per_op(total("training.loss") - teacher_s), "ms")
    out["training.teacher_fwd_ms"] = _m(per_op(teacher_s), "ms")
    out["training.optimizer_step_ms"] = _m(per_op(total("training.optimizer_step")), "ms")
    out["training.ema_update_ms"] = _m(per_op(total("training.ema_update")), "ms")

    for name in ("formats.write_pgm", "formats.read_pgm",
                 "formats.load_dataset_dir", "toyfaces.render",
                 "turbulence.degrade_strong", "turbulence.degrade_weak",
                 "metrics.psnr", "metrics.ssim"):
        out[f"{name}.ms"] = _m(per_op(total(name)), "ms")
    return out


def self_time_table(tracer, n_ops: int) -> list[tuple[str, float]]:
    """Self ms per operation of every span name in the measured phase,
    largest first; the root span of an operation holds the time spent
    outside every traced layer."""
    by_name = tracer.summary()[0]
    rows = [(name, 1e3 * d["self_s"] / n_ops) for name, d in by_name.items()]
    return sorted(rows, key=lambda r: -r[1])


def print_table(metrics: dict) -> None:
    for name, d in metrics.items():
        print(f"metrics: {name:42s} {d['value']:14.6g} {d['unit']}")
