"""Define-by-run reverse-mode automatic differentiation over numpy arrays.

The op set is sized for a small convolutional noise-prediction network:
elementwise arithmetic, dense and convolutional linear maps, SiLU, group
normalization, 2x pooling/upsampling, channel concatenation, bias
broadcasts, and scalar reductions.  A fresh graph is recorded on every
forward pass; tracked tensors are never mutated in place.  Each op computes
in the dtype of its operands (float32 for training and sampling; the
gradient tests run in float64); non-float input becomes float64.

The hot kernels use numpy, plus numpy's own OpenBLAS for convolution where
``ctypes`` finds it: convolution is one matmul per kernel tap over the row
slice of the padded input (no patch matrix), each added into the output by
BLAS itself, then the bias as one more product (ones times bias) into the
same output, and by ``np.dot``, a temporary and ``+=`` on builds without
that library (see :func:`_conv_rows`).  Sums over pixels (group
normalization's statistics, the conv bias and channel-map gradients) are
BLAS products ``ones @ x``; group normalization then takes each channel's
group mean with one (C, C) projection per item (:func:`_group_mean_map`)
and broadcasts it.  SiLU's sigmoid is ``0.5 + 0.5*tanh(x/2)``.

Allocator policy: on glibc, importing this module sets the C allocator to
keep the memory the process frees (``mallopt``: arrays up to 32 MiB come
from the heap instead of their own mmap, and up to 256 MiB of free heap is
kept rather than returned to the kernel).  Every forward pass frees and
re-allocates activations of the same sizes; with glibc's defaults each
one went back to the kernel and was page-faulted in again on the next
pass.  On other C libraries nothing is changed.

Gradient conventions: :func:`backward` accumulates ``dLoss/dLeaf`` into
``.grad`` of every ``requires_grad`` leaf, additively across calls, until
the caller resets ``.grad``.

Graph memory: the graph is made of nodes, not of tensors.  A tracked
interior tensor points to its node; the node holds its parents' graph
entries (their nodes, or the leaf tensors themselves) and the
vector-Jacobian closure, and the closure holds only the arrays it reads
(conv2d: its input and kernel; silu: its input; group_norm: its input and
statistics).  So an activation that no closure reads, such as an addend,
lives only as long as the caller's reference to its tensor.
:func:`backward` consumes the graph as it sweeps: once a node's closure has
run, the node drops it and its parents, so each saved array is freed
during the pass and a loss the caller still holds pins nothing.  A second
:func:`backward` through a consumed node raises ``ValueError``; rebuild
the graph with a new forward.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor", "no_grad", "backward",
    "add", "sub", "mul", "scale", "matmul", "add_bias",
    "conv2d", "silu", "group_norm",
    "avg_pool2", "upsample2", "concat_channels", "add_channel_map",
    "channels_last", "channels_first",
    "tsum", "tmean", "mse",
]

_grad_enabled = True

# glibc mallopt parameters (malloc.h) and the values set: the largest mmap
# threshold glibc accepts, and a trim threshold far above one forward pass
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 256 << 20, 32 << 20


def _keep_freed_memory() -> None:
    """Apply the allocator policy of the module docstring.  Both settings
    are needed: with only one of them the page faults went up."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # not a glibc system
        return
    if libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt  # the running process's own libc
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


_keep_freed_memory()


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / constants)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """N-dimensional float array with optional gradient tracking.

    ``data`` is a numpy float array (row-major); ``grad``, once populated by
    :func:`backward`, always matches ``data``'s shape.  A tracked interior
    tensor points to its :class:`_Node`, which holds the parents' graph
    entries and the vector-Jacobian closure; the tensor holds no parents.
    A leaf has no node and is its own graph entry.
    """

    __slots__ = ("data", "requires_grad", "grad", "_graph")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._graph = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def is_leaf(self) -> bool:
        return self._graph is None

    # the graph entry's fields; a leaf has no parents and no vjp
    @property
    def _parents(self) -> tuple:
        return () if self._graph is None else self._graph._parents

    @property
    def _vjp(self):
        return None if self._graph is None else self._graph._vjp

    @_vjp.setter
    def _vjp(self, vjp) -> None:
        # perfbench's span tracer times backward by wrapping each op's vjp
        self._graph._vjp = vjp

    def detach(self) -> "Tensor":
        """Same data, no tracking (data is shared, not copied)."""
        return Tensor(self.data, requires_grad=False)

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    """The graph record of a tracked interior tensor: its parents' graph
    entries (a node, or a leaf tensor) and its vector-Jacobian closure.
    It holds no array of its own, so the tensor's data lives only as long
    as the caller's reference or a closure that reads it."""

    __slots__ = ("_parents", "_vjp")
    requires_grad = True
    is_leaf = False

    def __init__(self, parents: tuple, vjp):
        self._parents, self._vjp = parents, vjp


# stands in for the closure of a node that backward has run; a consumed
# node is then neither a leaf nor differentiable again
_CONSUMED = object()


def _entry(t: Tensor):
    """The graph entry of ``t``: its node, or ``t`` itself for a leaf."""
    return t if t._graph is None else t._graph


def _node(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._graph = _Node(tuple(_entry(p) for p in parents), vjp)
    return out


def _need(t, op: str) -> Tensor:
    if not isinstance(t, Tensor):
        raise TypeError(f"{op}: expected Tensor, got {type(t).__name__}")
    return t


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# elementwise / linear ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _need(a, "add"), _need(b, "add")
    _same_shape(a, b, "add")
    return _node(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _need(a, "sub"), _need(b, "sub")
    _same_shape(a, b, "sub")
    return _node(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _need(a, "mul"), _need(b, "mul")
    _same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _node(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a Python scalar (no broadcasting machinery needed)."""
    _need(a, "scale")
    s = float(s)
    return _node(a.data * s, (a,), lambda g: (g * s,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product (n,k) @ (k,m)."""
    _need(a, "matmul"), _need(b, "matmul")
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _node(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast bias: (n, d) + (d,)."""
    _need(x, "add_bias"), _need(b, "add_bias")
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ValueError(f"add_bias: shape mismatch {x.shape} vs {b.shape}")
    return _node(x.data + b.data, (x, b), lambda g: (g, g.sum(axis=0)))


def _channel_sums(a: np.ndarray) -> np.ndarray:
    """Sums of ``a`` (..., N, C) over N, as the BLAS product ``ones @ a``:
    numpy's ``sum`` over that axis took 4-11x as long on the net's
    activations.  A stacked ``a`` (B, N, C) is one product per item, so an
    item's sums are the same bits in any batch."""
    return np.ones(a.shape[-2], a.dtype) @ a


# ---------------------------------------------------------------------------
# convolution (channels-last, shift-and-matmul on the padded row grid)
# ---------------------------------------------------------------------------

# cblas enums (cblas.h), and the integer 1 (K of the bias product, its
# leading dimension, and the vector strides), as the ctypes instances the
# calls take
_ROW_MAJOR, _NO_TRANS = ctypes.c_int(101), ctypes.c_int(111)
_ONE = ctypes.c_int64(1)
# OpenBLAS cuts a gemm's inner dimension into blocks and adds each block's
# product into the output, so with beta = 1 a conv of more input channels
# than one block would sum in another order than np.dot; those convs take
# np.dot.  On SkylakeX 384 float64 and 448 float32 channels still matched
# np.dot, 400 and 512 did not; the cap leaves room for smaller blocks
_BLAS_MAX_CI = 128


def _load_cblas() -> dict | None:
    """numpy's own OpenBLAS gemm and gemv, as ``{dtype: (gemm, gemv,
    real)}`` with ``real`` the ctypes type of a scalar, or None when numpy
    links no such library.  The scipy-openblas wheels export the cblas
    functions with a ``scipy_`` prefix and, on the ILP64 build, 64-bit
    integers and a ``64_`` suffix; they are found through the numpy
    extension module that links them.

    ``argtypes`` stays declared, so an argument of the wrong kind raises
    rather than reaching BLAS.  But ctypes converts each Python int or
    float argument to its declared type, a new object per argument per
    call, and passes an argument that already is an instance of that type
    as it is: a 4x4 sgemm call took 2.3-2.7 us with Python numbers and
    1.3-1.5 us with instances (pinned CPU, 1 BLAS thread).  So
    :func:`_conv_rows` builds its sizes, scalars and pointers as instances
    once per call, and the enums are module constants."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        funcs = {}
        # enums (order, transposes), then sizes, scalars, pointers and
        # strides, as in cblas.h with 64-bit integers
        i, p, e = ctypes.c_int64, ctypes.c_void_p, ctypes.c_int
        for dtype, c, real in ((np.float32, "s", ctypes.c_float),
                               (np.float64, "d", ctypes.c_double)):
            gemm = getattr(lib, f"scipy_cblas_{c}gemm64_")
            gemv = getattr(lib, f"scipy_cblas_{c}gemv64_")
            gemm.argtypes = (e, e, e, i, i, i, real, p, i, p, i, real, p, i)
            gemv.argtypes = (e, e, i, i, real, p, i, p, i, real, p, i)
            gemm.restype = gemv.restype = None
            funcs[np.dtype(dtype)] = (gemm, gemv, real)
        return funcs
    except (ImportError, OSError, AttributeError):
        return None


_CBLAS = _load_cblas()


def _padded_rows(x: np.ndarray, kh: int, kw: int, dtype=None) -> np.ndarray:
    """x (B,H,W,C) zero-padded by (kh // 2, kw // 2) on each side and
    flattened to (B * Hp * Wp, C) rows, in ``dtype`` (default: x's)."""
    b, h, wd, c = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.empty((b, h + 2 * ph, wd + 2 * pw, c),
                  dtype=x.dtype if dtype is None else dtype)
    xp[:, :ph] = xp[:, ph + h:] = 0
    xp[:, :, :pw] = xp[:, :, pw + wd:] = 0
    xp[:, ph:ph + h, pw:pw + wd] = x
    return xp.reshape(-1, c)


def _dot_taps(flat: np.ndarray, taps: list, acc: np.ndarray) -> None:
    """acc = the sum over ``taps`` (offset, weight) of
    flat[offset:][:len(acc)] @ weight, by np.dot.  np.dot, not np.matmul:
    matmul leaves BLAS for a single input channel (the head's dx), which is
    ~7x slower."""
    n = len(acc)
    np.dot(flat[:n], taps[0][1], out=acc)
    t = np.empty_like(acc)
    for off, wk in taps[1:]:
        np.dot(flat[off:off + n], wk, out=t)
        acc += t


def _conv_rows(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None):
    """Stride-1 'same' convolution of x (B,H,W,Ci) with w (kh,kw,Ci,Co),
    plus the optional bias (Co,), in the result dtype of the three.

    The input is zero-padded once and flattened to rows of Ci.  On that
    padded grid (Hp, Wp) the tap (u, v) of output row r reads input row
    r + u*Wp + v, so the convolution is one matmul per tap over one
    contiguous row slice.  Rows whose tap would read past an item's padded
    grid land on its border and are dropped, so items never mix.  The bias
    is added on the padded grid, then the valid rows are copied out once.
    Returns the contiguous (B, H, W, Co) output and the flattened padded
    input.

    ``ctypes`` is here because ``np.dot`` cannot add a product into its
    output: with it each tap's product goes to a temporary and is then
    added to the output, eight extra passes of a 3x3 conv.  BLAS adds the
    product itself (``beta = 1``), so where numpy's own OpenBLAS is found
    (:func:`_load_cblas`) each tap is one call into it, to the routine
    ``np.dot`` uses for that shape: gemv for one output channel, gemm
    otherwise.  The first tap writes the output, the others add into it,
    in the same order, so the bits are ``np.dot``'s.  The bias is one more
    gemm, ones (N, 1) times bias (1, Co) with beta = 1: each product is
    exact, so it gives the bits of ``out + bias``.  The fallback is
    ``np.dot`` and a temporary (:func:`_dot_taps`), then ``+=`` of the
    bias: on builds without that library, for more than ``_BLAS_MAX_CI``
    input channels, and for one output row, which ``np.dot`` sends to other
    routines.
    """
    b, h, wd, _ = x.shape
    kh, kw, ci, co = w.shape
    hp, wp = h + kh - 1, wd + kw - 1
    dtype = np.result_type(x, w) if bias is None else np.result_type(x, w, bias)
    w = np.ascontiguousarray(w, dtype=dtype)
    flat = _padded_rows(x, kh, kw, dtype)
    offs = [u * wp + v for u in range(kh) for v in range(kw)]
    n = flat.shape[0] - offs[-1]
    out = np.empty((flat.shape[0], co), dtype=dtype)
    blas = _CBLAS and n > 1 and ci <= _BLAS_MAX_CI and _CBLAS.get(dtype)
    if not blas:
        _dot_taps(flat, list(zip(offs, w.reshape(-1, ci, co))), out[:n])
        if bias is not None:
            out[:n] += bias
    else:
        gemm, gemv, real = blas
        i64, ptr, size = ctypes.c_int64, ctypes.c_void_p, dtype.itemsize
        rows, cin, cout = i64(n), i64(ci), i64(co)
        one, beta, c = real(1.0), real(0.0), ptr(out.ctypes.data)
        fp, w0 = flat.ctypes.data, w.ctypes.data
        for k, off in enumerate(offs):
            a, wk = ptr(fp + off * ci * size), ptr(w0 + k * ci * co * size)
            # np.dot takes a single input channel as a scalar product;
            # gemv with beta = 1 fused that product into the sum, gemm
            # rounds it first as np.dot does
            if co == 1 < ci:
                gemv(_ROW_MAJOR, _NO_TRANS, rows, cin, one, a, cin, wk, _ONE,
                     beta, c, _ONE)
            else:
                gemm(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, rows, cout, cin, one,
                     a, cin, wk, cout, beta, c, cout)
            beta = one
        if bias is not None:
            ones = np.ones(n, dtype)
            bias = np.ascontiguousarray(bias, dtype=dtype)
            gemm(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, rows, cout, _ONE, one,
                 ptr(ones.ctypes.data), _ONE, ptr(bias.ctypes.data), cout,
                 one, c, cout)
    return np.ascontiguousarray(out.reshape(b, hp, wp, co)[:, :h, :wd]), flat


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Stride-1 2-D convolution with zero padding preserving spatial size.

    ``x`` is channels-last (B, H, W, Ci); ``w`` is (kh, kw, Ci, Co) with odd
    kh, kw; the optional bias is (Co,).  A 1x1 kernel degenerates to a
    per-pixel linear map with no padding.
    """
    _need(x, "conv2d"), _need(w, "conv2d")
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError(f"conv2d: need 4-D input/weight, got {x.shape}, {w.shape}")
    kh, kw, ci, co = w.shape
    if x.shape[3] != ci:
        raise ValueError(f"conv2d: channel mismatch {x.shape} vs {w.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel dims must be odd, got {(kh, kw)}")
    if b is not None:
        _need(b, "conv2d")
        if b.shape != (co,):
            raise ValueError(f"conv2d: bias shape {b.shape} != ({co},)")
    xd, wdat = x.data, w.data
    x_grad, bias = x.requires_grad, b is not None
    out = _conv_rows(xd, wdat, None if b is None else b.data)[0]

    def vjp(g):
        # dx: full correlation with the spatially flipped, channel-swapped
        # kernel.  Its padded grid has the forward's shape with g centred, so
        # output row r's gradient is gflat[c + r], and dW[u, v] pairs it with
        # input row r + u*Wp + v.  An input that needs no gradient (the
        # stem's) gets None and only the padded g is built.  The padded
        # input is rebuilt here rather than kept from the forward: x's data
        # is saved for dW anyway, and a kept copy would hold every conv
        # input twice until backward; the re-pads cost ~0.5% of a training
        # step
        if x_grad:
            wr = np.ascontiguousarray(
                np.flip(wdat, (0, 1)).transpose(0, 1, 3, 2))
            dx, gflat = _conv_rows(g, wr)
        else:
            dx, gflat = None, _padded_rows(g, kh, kw)
        wp = xd.shape[2] + kw - 1
        n, c = gflat.shape[0] - (kh - 1) * wp - (kw - 1), (kh // 2) * wp + kw // 2
        xflat = _padded_rows(xd, kh, kw)
        dw = np.empty((kh, kw, xflat.shape[1], gflat.shape[1]),
                      dtype=np.result_type(xflat, gflat))
        for u in range(kh):
            for v in range(kw):
                np.matmul(xflat[u * wp + v:][:n].T, gflat[c:c + n],
                          out=dw[u, v])
        grads = (dx, dw)
        return grads + (_channel_sums(g.reshape(-1, co)),) if bias else grads

    parents = (x, w) if b is None else (x, w, b)
    return _node(out, parents, vjp)


# ---------------------------------------------------------------------------
# nonlinearity / normalization
# ---------------------------------------------------------------------------

def silu(x: Tensor) -> Tensor:
    """Sigmoid-weighted linear unit x * sigmoid(x) (a smooth ReLU), with
    sigmoid(x) = 0.5 + 0.5*tanh(x/2) computed in one buffer."""
    _need(x, "silu")
    xd = x.data
    out = np.multiply(xd, 0.5)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    out *= xd

    def vjp(g):
        s = 0.5 + 0.5 * np.tanh(0.5 * xd)
        return (g * (s * (1.0 + xd * (1.0 - s))),)

    return _node(out, (x,), vjp)


@functools.lru_cache(maxsize=64)
def _group_mean_map(c: int, groups: int, m: int, dtype: np.dtype) -> np.ndarray:
    """The read-only (C, C) projection that takes per-channel sums (a row)
    to each channel's group mean over ``m`` values: 1/m between two
    channels of one group, 0 elsewhere."""
    group = np.arange(c) // (c // groups)
    proj = np.where(group[:, None] == group, 1.0 / m, 0.0).astype(dtype)
    proj.flags.writeable = False
    return proj


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int,
               eps: float = 1e-5) -> Tensor:
    """Group normalization over channels-last (B, H, W, C) with per-channel
    affine.  Groups partition the channel axis; statistics pool over the
    spatial dims and the channels within a group.

    Each statistic is a per-channel sum (:func:`_channel_sums`), then one
    product with :func:`_group_mean_map` per item, which pools the sums of
    a group and divides by its size; an item's statistics, and so its
    output and input gradient, are the same bits in any batch."""
    _need(x, "group_norm"), _need(gamma, "group_norm"), _need(beta, "group_norm")
    if x.data.ndim != 4:
        raise ValueError(f"group_norm: need 4-D input, got {x.shape}")
    bsz, h, w, c = x.shape
    if c % groups != 0:
        raise ValueError(f"group_norm: {groups} groups do not divide {c} channels")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(
            f"group_norm: affine shapes {gamma.shape}/{beta.shape} != ({c},)")
    proj = _group_mean_map(c, groups, h * w * c // groups, x.data.dtype)

    def group_mean(sums):
        # (B, C) per-channel sums -> each channel's group mean, as (B, 1, C)
        return sums[:, None, :] @ proj

    xr = x.data.reshape(bsz, h * w, c)
    mu = group_mean(_channel_sums(xr))
    xc = xr - mu
    out = np.square(xc)
    inv = 1.0 / np.sqrt(group_mean(_channel_sums(out)) + eps)
    gd = gamma.data
    np.multiply(xc, inv * gd, out=out)
    out += beta.data

    def vjp(g):
        gr = g.reshape(bsz, h * w, c)
        xhat = xr - mu
        xhat *= inv
        g_c = _channel_sums(gr)
        dx = gr * xhat
        gx_c = _channel_sums(dx)
        np.multiply(gr, gd, out=dx)
        dx -= group_mean(g_c * gd)
        xhat *= group_mean(gx_c * gd)  # in place: xhat is not read again
        dx -= xhat
        dx *= inv
        return (dx.reshape(bsz, h, w, c), gx_c.sum(axis=0), g_c.sum(axis=0))

    return _node(out.reshape(x.shape), (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# resolution / layout ops
# ---------------------------------------------------------------------------

def _sum2x2(x: np.ndarray) -> np.ndarray:
    """Sums of the 2x2 blocks of (B, H, W, C), by slices: numpy's strided
    reduction over a (B, H/2, 2, W/2, 2, C) view is several times slower."""
    return x[:, 0::2, 0::2] + x[:, 0::2, 1::2] + x[:, 1::2, 0::2] \
        + x[:, 1::2, 1::2]


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 mean pooling on channels-last input; spatial dims must be even."""
    _need(x, "avg_pool2")
    _, h, w, _ = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"avg_pool2: odd spatial size {(h, w)}")
    out = _sum2x2(x.data) / 4

    def vjp(g):
        return (np.repeat(np.repeat(g, 2, axis=1), 2, axis=2) * 0.25,)

    return _node(out, (x,), vjp)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling on channels-last input."""
    _need(x, "upsample2")
    out = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)
    return _node(out, (x,), lambda g: (_sum2x2(g),))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel (last) axis of (B, H, W, C) tensors."""
    _need(a, "concat_channels"), _need(b, "concat_channels")
    if a.data.ndim != 4 or b.data.ndim != 4:
        raise ValueError(f"concat_channels: need 4-D, got {a.shape}, {b.shape}")
    if a.shape[:3] != b.shape[:3]:
        raise ValueError(f"concat_channels: shape mismatch {a.shape} vs {b.shape}")
    ca = a.shape[3]
    out = np.concatenate([a.data, b.data], axis=3)
    return _node(out, (a, b), lambda g: (g[..., :ca], g[..., ca:]))


def channels_last(x: Tensor) -> Tensor:
    """View (B, C, H, W) as (B, H, W, C); the data is not copied."""
    _need(x, "channels_last")
    if x.data.ndim != 4:
        raise ValueError(f"channels_last: need 4-D, got {x.shape}")
    return _node(x.data.transpose(0, 2, 3, 1), (x,),
                 lambda g: (g.transpose(0, 3, 1, 2),))


def channels_first(x: Tensor) -> Tensor:
    """View (B, H, W, C) as (B, C, H, W); the data is not copied."""
    _need(x, "channels_first")
    if x.data.ndim != 4:
        raise ValueError(f"channels_first: need 4-D, got {x.shape}")
    return _node(x.data.transpose(0, 3, 1, 2), (x,),
                 lambda g: (g.transpose(0, 2, 3, 1),))


def add_channel_map(x: Tensor, v: Tensor) -> Tensor:
    """Broadcast-add a per-item, per-channel vector: (B,H,W,C) + (B,C)."""
    _need(x, "add_channel_map"), _need(v, "add_channel_map")
    if x.data.ndim != 4 or v.data.ndim != 2 \
            or (x.shape[0], x.shape[3]) != v.shape:
        raise ValueError(f"add_channel_map: shape mismatch {x.shape} vs {v.shape}")
    out = x.data + v.data[:, None, None, :]
    return _node(out, (x, v),
                 lambda g: (g, _channel_sums(g.reshape(len(g), -1, g.shape[3]))))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def tsum(x: Tensor) -> Tensor:
    """Sum of all elements (scalar tensor)."""
    _need(x, "tsum")
    shp = x.shape
    return _node(np.asarray(x.data.sum()), (x,),
                 lambda g: (np.broadcast_to(g, shp).copy(),))


def tmean(x: Tensor) -> Tensor:
    """Mean of all elements (scalar tensor)."""
    _need(x, "tmean")
    shp = x.shape
    n = x.data.size
    return _node(np.asarray(x.data.mean()), (x,),
                 lambda g: (np.broadcast_to(g / n, shp).copy(),))


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference of two same-shape tensors (scalar)."""
    _need(a, "mse"), _need(b, "mse")
    _same_shape(a, b, "mse")
    d = a.data - b.data
    n = d.size
    val = np.asarray(np.mean(d * d))

    def vjp(g):
        ga = g * (2.0 / n) * d
        return (ga, -ga)

    return _node(val, (a, b), vjp)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dLeaf into every requires_grad leaf below ``loss``,
    consuming the graph (see the module docstring).

    ``loss`` must be a scalar (shape ``()``).  Gradients add across calls;
    reset ``leaf.grad = None`` between optimization steps.
    """
    _need(loss, "backward")
    if loss.data.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss does not depend on any tracked tensor")

    # iterative post-order topological sort over graph entries: nodes, and
    # leaf tensors as their own entries
    root = _entry(loss)
    topo: list = []
    seen: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._vjp is _CONSUMED:
            raise ValueError("backward: graph already consumed by an "
                             "earlier backward; run the forward again")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    # sweep in reverse topological order, popping each node and dropping
    # its closure and parents once its vjp has run
    grads: dict[int, np.ndarray] = {id(root): np.asarray(1.0, dtype=loss.data.dtype)}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if node._vjp is None:  # a leaf tensor
            if g is not None:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        vjp, parents = node._vjp, node._parents
        node._vjp, node._parents = _CONSUMED, ()
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if not parent.requires_grad or pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
