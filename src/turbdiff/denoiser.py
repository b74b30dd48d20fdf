"""Conditional noise-prediction network.

A small residual convolutional net sized for 32x32 single-channel images:
four residual blocks at widths (w1, w2, w3, w4) with one 2x down/up level
in the middle, group normalization, SiLU, and 3x3 kernels.  The degraded
observation is conditioned by channel concatenation with the noisy input;
the timestep enters through a sinusoidal embedding projected per block and
added as a per-channel bias.  The output head is zero-initialized so a
fresh network predicts exactly zero noise.

Parameters are named tensors in a fixed order (the checkpoint order); the
architecture descriptor alone determines every shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .domain import check_fields, setting
from .rng import Rng


@dataclass(frozen=True)
class NetSpec:
    """Architecture descriptor; uniquely determines all parameter shapes."""

    image_size: int = setting(32, "[2, inf)")
    widths: tuple[int, int, int, int] = (32, 64, 64, 32)
    emb_dim: int = setting(64, "[2, inf)")
    groups: int = setting(8, "[1, inf)")
    cond_channels: int = setting(1, "[1, inf)")
    out_channels: int = setting(1, "[1, inf)")

    def __post_init__(self):
        check_fields(self)
        if self.image_size % 2 or self.emb_dim % 2:
            raise ValueError(f"image_size and emb_dim must be even, got "
                             f"{self.image_size} and {self.emb_dim}")
        if len(self.widths) != 4:
            raise ValueError(f"need 4 block widths, got {self.widths}")
        if self.widths[3] != self.widths[0]:
            raise ValueError(
                f"widths[3] must equal widths[0] (full-resolution skip add), got {self.widths}")
        for w in self.widths:
            if w % self.groups:
                raise ValueError(f"groups={self.groups} must divide width {w}")

    @property
    def in_channels(self) -> int:
        return self.out_channels + self.cond_channels


def _block_shapes(name: str, cin: int, cout: int, emb: int) -> dict[str, tuple]:
    # conv kernels are channels-last: (kh, kw, Cin, Cout)
    shapes = {
        f"{name}.gn1.g": (cin,), f"{name}.gn1.b": (cin,),
        f"{name}.conv1.w": (3, 3, cin, cout), f"{name}.conv1.b": (cout,),
        f"{name}.temb.w": (emb, cout), f"{name}.temb.b": (cout,),
        f"{name}.gn2.g": (cout,), f"{name}.gn2.b": (cout,),
        f"{name}.conv2.w": (3, 3, cout, cout), f"{name}.conv2.b": (cout,),
    }
    if cin != cout:
        shapes[f"{name}.skip.w"] = (1, 1, cin, cout)
        shapes[f"{name}.skip.b"] = (cout,)
    return shapes


def param_shapes(spec: NetSpec) -> dict[str, tuple]:
    """Ordered name -> shape map for every parameter of ``spec``."""
    w1, w2, w3, w4 = spec.widths
    e = spec.emb_dim
    shapes: dict[str, tuple] = {
        "stem.w": (3, 3, spec.in_channels, w1), "stem.b": (w1,),
    }
    shapes.update(_block_shapes("b1", w1, w1, e))
    shapes.update(_block_shapes("b2", w1, w2, e))
    shapes.update(_block_shapes("b3", w2, w3, e))
    shapes["fuse.w"] = (1, 1, w3, w4)
    shapes["fuse.b"] = (w4,)
    shapes.update(_block_shapes("b4", w4, w4, e))
    shapes.update({
        "head.gn.g": (w4,), "head.gn.b": (w4,),
        "head.w": (3, 3, w4, spec.out_channels), "head.b": (spec.out_channels,),
    })
    return shapes


@dataclass
class DenoiserParams:
    """Named parameter tensors plus the descriptor that shaped them."""

    spec: NetSpec
    tensors: dict[str, Tensor]

    def astype(self, dtype, requires_grad: bool | None = None
               ) -> "DenoiserParams":
        """Deep copy with every tensor cast to ``dtype``; ``requires_grad``,
        when given, replaces each tensor's gradient tracking."""
        out = {}
        for k, t in self.tensors.items():
            rg = t.requires_grad if requires_grad is None else requires_grad
            out[k] = Tensor(t.data.astype(dtype), requires_grad=rg)
        return DenoiserParams(self.spec, out)


def init_params(spec: NetSpec, rng: Rng, requires_grad: bool = True) -> DenoiserParams:
    """Fan-in-scaled Gaussian kernels, zero biases, unit norm scales; the
    output head is zero-initialized so the initial prediction is 0."""
    tensors: dict[str, Tensor] = {}
    for name, shape in param_shapes(spec).items():
        if name == "head.w" or name.endswith(".b"):
            data = np.zeros(shape)
        elif name.endswith(".g"):
            data = np.ones(shape)
        else:  # conv kernels and time-embedding projections
            fan_in = shape[0] * shape[1] * shape[2] if len(shape) == 4 else shape[0]
            data = rng.gauss(shape) * np.sqrt(2.0 / fan_in)
        tensors[name] = Tensor(data, requires_grad=requires_grad)
    return DenoiserParams(spec, tensors)


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal features of integer timesteps at geometric frequencies.

    Returns (B, dim) for an array of timesteps or (1, dim) for an int;
    distinct integers in the usual training range map to distinct rows.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    if half > 1:
        freqs = np.exp(-np.log(10000.0) * np.arange(half) / (half - 1))
    else:
        freqs = np.ones(1)
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


def _resblock(p: dict[str, Tensor], name: str, h: Tensor, emb: Tensor,
              groups: int) -> Tensor:
    a = ad.silu(ad.group_norm(h, p[f"{name}.gn1.g"], p[f"{name}.gn1.b"], groups))
    a = ad.conv2d(a, p[f"{name}.conv1.w"], p[f"{name}.conv1.b"])
    tv = ad.add_bias(ad.matmul(emb, p[f"{name}.temb.w"]), p[f"{name}.temb.b"])
    a = ad.add_channel_map(a, tv)
    a = ad.silu(ad.group_norm(a, p[f"{name}.gn2.g"], p[f"{name}.gn2.b"], groups))
    a = ad.conv2d(a, p[f"{name}.conv2.w"], p[f"{name}.conv2.b"])
    if f"{name}.skip.w" in p:
        h = ad.conv2d(h, p[f"{name}.skip.w"], p[f"{name}.skip.b"])
    return ad.add(h, a)


def eps_predict(params: DenoiserParams, y_t, x, t) -> Tensor:
    """Predict the noise in ``y_t`` given conditioning image ``x`` and
    timestep ``t`` (int, or per-item array matching the batch).

    ``y_t`` is (B, out_channels, S, S) and ``x`` is (B, cond_channels, S, S),
    both numpy arrays.  The result has ``y_t``'s shape and is
    differentiable with respect to the parameters.
    """
    spec = params.spec
    p = params.tensors
    yt, xc = Tensor(y_t), Tensor(x)
    s = spec.image_size
    for name, a, c in (("y_t", yt, spec.out_channels),
                       ("x", xc, spec.cond_channels)):
        if a.data.ndim != 4 or a.shape[1] != c or a.shape[2:] != (s, s):
            raise ValueError(f"eps_predict: {name} shape {a.shape} does not "
                             f"match descriptor (B, {c}, {s}, {s})")
    if xc.shape[0] != yt.shape[0]:
        raise ValueError(f"eps_predict: batch mismatch {yt.shape} vs {xc.shape}")
    t_arr = np.atleast_1d(np.asarray(t))
    if t_arr.shape[0] == 1 and yt.shape[0] > 1:
        t_arr = np.repeat(t_arr, yt.shape[0])
    if t_arr.shape[0] != yt.shape[0]:
        raise ValueError(
            f"eps_predict: got {t_arr.shape[0]} timesteps for batch {yt.shape[0]}")
    emb = Tensor(time_embedding(t_arr, spec.emb_dim).astype(yt.data.dtype))

    # internals run channels-last; boundary transposes are views
    yt_cl = ad.channels_last(yt)
    xc_cl = ad.channels_last(xc)

    g = spec.groups
    h = ad.conv2d(ad.concat_channels(yt_cl, xc_cl), p["stem.w"], p["stem.b"])
    h1 = _resblock(p, "b1", h, emb, g)
    hd = ad.avg_pool2(h1)
    h2 = _resblock(p, "b2", hd, emb, g)
    h3 = _resblock(p, "b3", h2, emb, g)
    # the 1x1 fuse conv commutes with nearest upsampling, so it runs at half
    # resolution: the same output, a quarter of the FLOPs, and its dW reads
    # h3 instead of an upsampled copy that the graph would keep
    hf = ad.add(ad.upsample2(ad.conv2d(h3, p["fuse.w"], p["fuse.b"])), h1)
    h4 = _resblock(p, "b4", hf, emb, g)
    out = ad.silu(ad.group_norm(h4, p["head.gn.g"], p["head.gn.b"], g))
    out = ad.conv2d(out, p["head.w"], p["head.b"])
    return ad.channels_first(out)


# activation bytes per item group, counted as the widest activation
# (image_size**2 * max(widths) * itemsize per item): at 1 MB a conv's
# output and the padded input it reads share a 2 MB L2.  It sizes
# make_denoise_fn's item groups and train_stage's shards.  Of 1, 2, 4 and 8
# items of the float32 32x32 net, 4 (1 MB) was fastest for a sampler chunk
# and for a training step alike
_GROUP_BYTES = 1 << 20


def group_items(spec: NetSpec, dtype) -> int:
    """Items per L2-sized group of a ``spec`` net in ``dtype``: 4 for the
    float32 default net."""
    return max(1, _GROUP_BYTES // (spec.image_size ** 2 * max(spec.widths)
                                   * np.dtype(dtype).itemsize))


def make_denoise_fn(params: DenoiserParams):
    """Wrap params as a plain ``(y, x, t) -> eps_hat`` numpy callable for the
    samplers (no graph is recorded); ``eps_hat`` is float64.

    The batch is evaluated in consecutive item groups of
    :func:`group_items`, each written into one float64 output.  One
    ``eps_predict`` call over a large batch (the sampler's 64-image chunk)
    makes every activation larger than the L2 cache, so the network runs
    from memory; the activations of one group fit in L2.  Items never mix,
    so grouping changes an item's result only by float32 rounding in BLAS.
    A batch of at most one group is one ``eps_predict`` call.
    """
    dtype = next(iter(params.tensors.values())).data.dtype
    group = group_items(params.spec, dtype)

    def fn(y, x, t):
        y = np.asarray(y, dtype=dtype)
        x = np.asarray(x, dtype=dtype)
        if y.ndim != 4 or x.ndim != 4 or len(y) != len(x):
            raise ValueError(f"denoise_fn: need (B, C, S, S) inputs of one "
                             f"batch size, got {y.shape} and {x.shape}")
        t = np.atleast_1d(np.asarray(t))
        if len(t) not in (1, len(y)):
            raise ValueError(
                f"denoise_fn: got {len(t)} timesteps for batch {len(y)}")
        out = np.empty(y.shape, dtype=np.float64)
        with ad.no_grad():
            for lo in range(0, len(y), group):
                g = slice(lo, lo + group)
                out[g] = eps_predict(params, y[g], x[g],
                                     t if len(t) == 1 else t[g]).data
        return out

    return fn
