"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the turbdiff modules where their
callers look them up (a module attribute, or a method on ``Rng``), records
one span per call, and also wraps the vector-Jacobian closure of every node
a wrapped autodiff op returns, so backward time is attributed per op kind.
Nothing under ``src/`` is edited: the wrappers are installed at run time and
only in the traced run.

A span is ``[name, start, end, parent, op_id, tag, flop]``.  ``op_id`` is
the index of the workload operation (train step, restore request, ...) the
span belongs to, or -1 during set-up.  ``tag`` is the denoiser block an
autodiff forward op ran in, ``"teacher"`` on the teacher's forward pass, or
``""``.  ``flop`` is the work of a conv2d span computed from its shapes.
Self time is a span's duration minus the time covered by its direct
children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# autodiff op -> reported kind; ``resample`` is pooling plus upsampling and
# ``elementwise`` covers arithmetic, bias broadcasts, concat, layout and mse
AUTODIFF_KINDS = {
    "conv2d": "conv2d", "group_norm": "group_norm", "silu": "silu",
    "matmul": "matmul", "avg_pool2": "resample", "upsample2": "resample",
    "add": "elementwise", "sub": "elementwise", "mul": "elementwise",
    "scale": "elementwise", "add_bias": "elementwise",
    "add_channel_map": "elementwise", "concat_channels": "elementwise",
    "channels_last": "elementwise", "channels_first": "elementwise",
    "tsum": "elementwise", "tmean": "elementwise", "mse": "elementwise",
}
OP_KINDS = ("conv2d", "group_norm", "silu", "matmul", "resample", "elementwise")
BLOCKS = ("stem", "b1", "b2", "b3", "fuse", "b4", "head")

# (module, attribute, span name) of the plain functions that are wrapped
FUNCTIONS = (
    ("turbdiff.autodiff", "backward", "autodiff.backward"),
    ("turbdiff.diffusion", "restore", "diffusion.restore"),
    ("turbdiff.training", "loss_simple", "training.loss"),
    ("turbdiff.training", "loss_final", "training.loss"),
    ("turbdiff.training", "optimizer_step", "training.optimizer_step"),
    ("turbdiff.training", "ema_update", "training.ema_update"),
    ("turbdiff.formats", "write_pgm", "formats.write_pgm"),
    ("turbdiff.formats", "read_pgm", "formats.read_pgm"),
    ("turbdiff.formats", "load_dataset_dir", "formats.load_dataset_dir"),
    ("turbdiff.toyfaces", "render", "toyfaces.render"),
    ("turbdiff.turbulence", "degrade_strong", "turbulence.degrade_strong"),
    ("turbdiff.turbulence", "degrade_weak", "turbulence.degrade_weak"),
    ("turbdiff.metrics", "psnr", "metrics.psnr"),
    ("turbdiff.metrics", "ssim", "metrics.ssim"),
)

NAME, START, END, PARENT, OP, TAG, FLOP = range(7)


class Tracer:
    """Records spans in memory; :meth:`install` patches the program."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self._block_of: dict[int, str] = {}   # id(parameter tensor) -> block
        self._block = ""
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str, tag: str = "", flop: float = 0.0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.op_id, tag, flop])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    def _call(self, name, fn, args, kwargs, tag="", flop=0.0):
        idx = self.begin(name, tag, flop)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # -- wrappers -----------------------------------------------------------

    def _wrap_plain(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _wrap_eps_predict(self, fn, ad):
        @functools.wraps(fn)
        def wrapper(params, *args, **kwargs):
            parent = self.spans[self._stack[-1]][NAME] if self._stack else ""
            teacher = not ad._grad_enabled and parent == "training.loss"
            saved = self._block_of, self._block
            self._block_of = {id(t): k.split(".", 1)[0]
                              for k, t in params.tensors.items()}
            self._block = BLOCKS[0]
            try:
                return self._call("denoiser.eps_predict", fn,
                                  (params,) + args, kwargs,
                                  "teacher" if teacher else "")
            finally:
                self._block_of, self._block = saved
        return wrapper

    def _wrap_op(self, kind, fn, tensor_cls):
        fwd_name, bwd_name = f"autodiff.{kind}.fwd", f"autodiff.{kind}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # an op runs in the block of the first parameter it receives;
            # ops without parameters stay in the block of the op before them
            for a in args:
                block = self._block_of.get(id(a))
                if block is not None:
                    self._block = block
                    break
            flop = _conv_flop(args[0].shape, args[1].shape) \
                if kind == "conv2d" else 0.0
            out = self._call(fwd_name, fn, args, kwargs, self._block, flop)
            if isinstance(out, tensor_cls) and out._vjp is not None:
                vjp = out._vjp

                def timed_vjp(g):
                    # dW and dx each cost one forward pass
                    idx = self.begin(bwd_name, "", 2.0 * flop)
                    try:
                        return vjp(g)
                    finally:
                        self.end(idx)
                out._vjp = timed_vjp
            return out
        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, obj, attr, new):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _patch_everywhere(self, orig, new):
        """Rebind ``orig`` in every turbdiff module that holds it."""
        for modname, mod in list(sys.modules.items()):
            if modname == "turbdiff" or modname.startswith("turbdiff."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, new)

    def install(self) -> None:
        import turbdiff.autodiff as ad
        import turbdiff.cli  # noqa: F401  (its imported names are rebound too)
        import turbdiff.denoiser as den
        import turbdiff.rng as rng_mod

        for op, kind in AUTODIFF_KINDS.items():
            orig = getattr(ad, op)
            self._patch_everywhere(orig, self._wrap_op(kind, orig, ad.Tensor))
        self._patch_everywhere(den.eps_predict,
                               self._wrap_eps_predict(den.eps_predict, ad))
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            self._patch_everywhere(orig, self._wrap_plain(name, orig))
        self._patch(rng_mod.Rng, "gauss",
                    self._wrap_plain("rng.gauss", rng_mod.Rng.gauss))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)

    # -- output -------------------------------------------------------------

    def write_csv(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,start_s,end_s,parent,op_id,tag\n")
            for i, sp in enumerate(self.spans):
                f.write(f"{i},{sp[NAME]},{sp[START] - t0:.7f},"
                        f"{sp[END] - t0:.7f},{sp[PARENT]},{sp[OP]},{sp[TAG]}\n")

    def summary(self):
        """Aggregate the spans of the measured phase (``op_id >= 0``).

        Returns ``(by_name, blocks, teacher_s, flop)``: per span name its
        calls, total and self seconds; forward seconds per denoiser block;
        seconds of teacher forward passes; computed conv2d FLOPs.
        """
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp[PARENT] >= 0:
                child[sp[PARENT]] += sp[END] - sp[START]
        by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        blocks = defaultdict(float)
        teacher_s = flop = 0.0
        for sp, c in zip(self.spans, child):
            if sp[OP] < 0:
                continue
            dur = sp[END] - sp[START]
            d = by_name[sp[NAME]]
            d["calls"] += 1
            d["total_s"] += dur
            d["self_s"] += dur - c
            flop += sp[FLOP]
            if sp[TAG] == "teacher":
                teacher_s += dur
            elif sp[TAG]:
                blocks[sp[TAG]] += dur
        return by_name, blocks, teacher_s, flop


def _conv_flop(x_shape, w_shape) -> float:
    """2 x multiply-adds of one stride-1, size-preserving conv forward."""
    b, h, w, _ = x_shape
    kh, kw, ci, co = w_shape
    return 2.0 * b * h * w * kh * kw * ci * co
