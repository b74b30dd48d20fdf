import ctypes
import functools
import tracemalloc
import weakref

import numpy as np
import pytest

from turbdiff import autodiff as ad
from turbdiff.autodiff import Tensor
from turbdiff.rng import Rng

from conftest import finite_diff_check


def t_(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_mse_identical_is_zero():
    a = t_([1.0, 2.0, 3.0])
    assert ad.mse(a, a).item() == 0.0


def test_mse_simple_value():
    assert ad.mse(t_([0.0, 0.0]), t_([1.0, 1.0])).item() == 1.0


def test_conv2d_identity_kernel():
    x = t_(Rng(0).gauss((2, 5, 5, 3)))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0] = np.eye(3)
    out = ad.conv2d(x, t_(w))
    assert np.array_equal(out.data, x.data)


def test_conv2d_matches_direct_convolution():
    # oracle: explicit loop over kernel taps with zero padding
    rng = Rng(1)
    x = rng.gauss((1, 4, 4, 2))
    w = rng.gauss((3, 3, 2, 3))
    out = ad.conv2d(t_(x), t_(w)).data
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    ref = np.zeros((1, 4, 4, 3))
    for i in range(4):
        for j in range(4):
            patch = xp[0, i:i + 3, j:j + 3, :]
            for co in range(3):
                ref[0, i, j, co] = np.sum(patch * w[:, :, :, co])
    assert np.allclose(out, ref, atol=1e-12)


@pytest.mark.parametrize("kernel", [(3, 3), (1, 1), (3, 1)])
def test_conv2d_skips_dx_of_an_input_without_grad(monkeypatch, kernel):
    # like the stem's input: the weight and bias grads are the same
    # whether or not x is tracked, and the untracked x costs no dx pass
    rng = Rng(3)
    x = rng.gauss((2, 5, 6, 3))
    w = rng.gauss((*kernel, 3, 4))
    b = rng.gauss((4,))
    gout = rng.gauss((2, 5, 6, 4))
    calls = []
    conv_rows = ad._conv_rows
    monkeypatch.setattr(ad, "_conv_rows",
                        lambda *a: calls.append(1) or conv_rows(*a))
    grads, counts = [], []
    for x_grad in (True, False):
        xt, wt, bt = t_(x, x_grad), t_(w), t_(b)
        calls.clear()
        ad.backward(ad.tsum(ad.mul(ad.conv2d(xt, wt, bt), t_(gout, False))))
        grads.append((wt.grad, bt.grad))
        counts.append(len(calls))
        assert (xt.grad is not None) == x_grad
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])
    assert counts == [2, 1]


def test_elementwise_shape_errors_name_both_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        ad.add(t_([1.0, 2.0]), t_([1.0, 2.0, 3.0]))


def test_matmul_shape_error():
    with pytest.raises(ValueError, match="matmul"):
        ad.matmul(t_(np.ones((2, 3))), t_(np.ones((2, 3))))


def test_silu_values():
    x = t_([0.0, 100.0, -100.0])
    out = ad.silu(x).data
    assert out[0] == 0.0
    assert abs(out[1] - 100.0) < 1e-9
    assert abs(out[2]) < 1e-9


def test_group_norm_normalizes():
    x = t_(5.0 + 3.0 * Rng(2).gauss((2, 4, 4, 8)))
    out = ad.group_norm(x, t_(np.ones(8)), t_(np.zeros(8)), groups=2).data
    grp = out.reshape(2, 4, 4, 2, 4)
    assert np.allclose(grp.mean(axis=(1, 2, 4)), 0.0, atol=1e-10)
    assert np.allclose(grp.reshape(2, -1, 2, 4).std(axis=(1, 3)), 1.0, atol=1e-3)


def test_pool_and_upsample_shapes_and_values():
    x = t_(np.arange(16.0).reshape(1, 4, 4, 1))
    p = ad.avg_pool2(x)
    assert p.shape == (1, 2, 2, 1)
    assert p.data[0, 0, 0, 0] == (0 + 1 + 4 + 5) / 4.0
    u = ad.upsample2(p)
    assert u.shape == (1, 4, 4, 1)
    assert np.all(u.data[0, :2, :2, 0] == p.data[0, 0, 0, 0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 32, 32, 32), (4, 16, 16, 64),
                                   (8, 8, 8, 3), (2, 6, 4, 2), (3, 2, 2, 7),
                                   (2, 6, 4, 1)])
def test_2x2_sums_by_slices_equal_the_reshaped_reductions(dtype, shape):
    # avg_pool2 and upsample2's vjp sum 2x2 blocks by slices: bit for bit
    # the reshape-and-reduce forms they replace.  With one channel numpy
    # reduces the contiguous blocks in another order, so there the two
    # agree to the rounding of a 4-term sum
    bsz, h, w, c = shape
    x = Rng(sum(shape)).gauss(shape).astype(dtype)
    blocks = x.reshape(bsz, h // 2, 2, w // 2, 2, c)
    atol = 0 if c > 1 else 4 * np.finfo(dtype).eps * np.abs(x).max()
    for got, want in [(ad.avg_pool2(Tensor(x)).data, blocks.mean(axis=(2, 4))),
                      (ad._sum2x2(x), blocks.sum(axis=(2, 4)))]:
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


def test_layout_transposes_roundtrip():
    x = t_(Rng(3).gauss((2, 3, 4, 5)))
    back = ad.channels_first(ad.channels_last(x))
    assert np.array_equal(back.data, x.data)


# ---------------------------------------------------------------------------
# backward: analytic cases
# ---------------------------------------------------------------------------

def test_backward_linear_case():
    # loss = sum(w * x) with fixed x  =>  dloss/dw == x
    x = np.array([1.5, -2.0, 0.5])
    w = t_([0.1, 0.2, 0.3])
    loss = ad.tsum(ad.mul(w, Tensor(x)))
    ad.backward(loss)
    assert np.allclose(w.grad, x, atol=1e-15)


def test_backward_mse_analytic():
    # loss = mse(w, t)  =>  dloss/dw == 2 (w - t) / n
    w = t_([1.0, 2.0, 3.0, 4.0])
    target = Tensor(np.array([0.0, 0.0, 1.0, 1.0]))
    ad.backward(ad.mse(w, target))
    assert np.allclose(w.grad, 2.0 * (w.data - target.data) / 4.0, atol=1e-15)


def test_backward_requires_scalar():
    w = t_([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.mul(w, w))


def test_backward_accumulates_until_cleared():
    w = t_([1.0, -1.0])
    x = Tensor(np.array([2.0, 3.0]))

    def loss():
        return ad.tsum(ad.mul(w, x))

    ad.backward(loss())
    first = w.grad.copy()
    ad.backward(loss())
    assert np.allclose(w.grad, 2.0 * first)
    w.grad = None
    ad.backward(loss())
    assert np.allclose(w.grad, first)


def _interior_nodes(root):
    """Every node below ``root`` that has a vjp (and ``root`` itself)."""
    out, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node.is_leaf:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node._parents)
    return out


def test_backward_consumes_the_graph():
    rng = Rng(5)
    x = t_(rng.gauss((2, 6, 6, 2)))
    w = t_(rng.gauss((3, 3, 2, 3)))
    gamma, beta = t_(np.ones(3)), t_(np.zeros(3))
    h = ad.silu(ad.group_norm(ad.conv2d(x, w), gamma, beta, groups=1))
    loss = ad.add(ad.tmean(h), ad.mse(h, Tensor(np.zeros(h.shape))))
    nodes = _interior_nodes(loss)
    assert len(nodes) == 6
    ad.backward(loss)
    # every interior node dropped its vjp and parents, and none of them
    # reads as a leaf; the leaves kept their gradients
    for node in nodes:
        assert node._parents == () and not callable(node._vjp)
        assert not node.is_leaf
    grads = [t.grad.copy() for t in (x, w, gamma, beta)]
    with pytest.raises(ValueError, match="consumed"):
        ad.backward(loss)
    # a new graph over a consumed node is refused before any leaf moves
    ones = t_(np.ones(h.shape))
    with pytest.raises(ValueError, match="consumed"):
        ad.backward(ad.tsum(ad.mul(h, ones)))
    assert ones.grad is None
    for t, g in zip((x, w, gamma, beta), grads):
        assert np.array_equal(t.grad, g)


def test_a_node_keeps_only_the_arrays_its_vjp_reads():
    rng = Rng(6)
    x = t_(rng.gauss((2, 6, 6, 3)))
    w = t_(rng.gauss((3, 3, 3, 3)))
    y = t_(rng.gauss((2, 6, 6, 3)))
    # add's vjp reads neither input, so the conv output dies with the
    # caller's last reference, though its node stays in the graph
    h = ad.conv2d(x, w)
    summand = weakref.ref(h.data)
    total = ad.add(h, y)
    del h
    assert summand() is None
    # silu's vjp reads its input, which lives until backward has run it
    h = ad.conv2d(x, w)
    read = weakref.ref(h.data)
    act = ad.silu(h)
    del h
    assert read() is not None
    ad.backward(ad.tsum(ad.add(total, act)))
    assert read() is None


def test_conv2d_graph_saves_no_padded_input():
    # the graph of one conv2d holds its output and the parents it was given;
    # a padded copy of x would add (8+2)^2/8^2 ~ 1.6x the output's bytes
    rng = Rng(8)
    x = t_(rng.gauss((4, 8, 8, 16)))
    w, b = t_(rng.gauss((3, 3, 16, 16))), t_(rng.gauss((16,)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, w, b)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.data.nbytes <= grown <= 1.1 * out.data.nbytes


def test_three_layer_net_finite_difference():
    # random 3-layer dense net, every parameter checked against central FD
    rng = Rng(11)
    x = Tensor(rng.gauss((4, 3)))
    target = Tensor(rng.gauss((4, 2)))
    params = {
        "w1": t_(rng.gauss((3, 5)) * 0.5), "b1": t_(rng.gauss((5,)) * 0.1),
        "w2": t_(rng.gauss((5, 4)) * 0.5), "b2": t_(rng.gauss((4,)) * 0.1),
        "w3": t_(rng.gauss((4, 2)) * 0.5), "b3": t_(rng.gauss((2,)) * 0.1),
    }

    def loss():
        h = ad.silu(ad.add_bias(ad.matmul(x, params["w1"]), params["b1"]))
        h = ad.silu(ad.add_bias(ad.matmul(h, params["w2"]), params["b2"]))
        out = ad.add_bias(ad.matmul(h, params["w3"]), params["b3"])
        return ad.mse(out, target)

    finite_diff_check(loss, params)


@pytest.mark.parametrize("op_name", [
    "add", "sub", "mul", "scale", "matmul", "add_bias", "conv2d", "conv1x1",
    "silu", "group_norm", "avg_pool2", "upsample2", "concat", "channel_map",
    "tsum", "tmean", "mse", "layout",
])
def test_every_op_against_finite_differences(op_name):
    rng = Rng(sum(map(ord, op_name)))
    a4 = t_(rng.gauss((2, 4, 4, 4)))
    b4 = t_(rng.gauss((2, 4, 4, 4)))
    ref4 = Tensor(rng.gauss((2, 4, 4, 4)))

    builders = {
        "add": (lambda: ad.mse(ad.add(a4, b4), ref4), {"a": a4, "b": b4}),
        "sub": (lambda: ad.mse(ad.sub(a4, b4), ref4), {"a": a4, "b": b4}),
        "mul": (lambda: ad.mse(ad.mul(a4, b4), ref4), {"a": a4, "b": b4}),
        "scale": (lambda: ad.mse(ad.scale(a4, -1.7), ref4), {"a": a4}),
        "matmul": (lambda: ad.mse(ad.matmul(m1, m2), refm), None),
        "add_bias": (lambda: ad.mse(ad.add_bias(m1, bias), m1ref), None),
        "conv2d": (lambda: ad.mse(ad.conv2d(a4, cw, cb), ref_conv), None),
        "conv1x1": (lambda: ad.mse(ad.conv2d(a4, cw1, cb1), ref_conv1), None),
        "silu": (lambda: ad.mse(ad.silu(a4), ref4), {"a": a4}),
        "group_norm": (lambda: ad.mse(
            ad.group_norm(a4, gn_g, gn_b, groups=2), ref4), None),
        "avg_pool2": (lambda: ad.mse(ad.avg_pool2(a4), ref_pool), {"a": a4}),
        "upsample2": (lambda: ad.mse(ad.upsample2(a4), ref_up), {"a": a4}),
        "concat": (lambda: ad.mse(ad.concat_channels(a4, b4), ref_cat),
                   {"a": a4, "b": b4}),
        "channel_map": (lambda: ad.mse(ad.add_channel_map(a4, vmap), ref4),
                        None),
        "tsum": (lambda: ad.tsum(ad.mul(a4, b4)), {"a": a4}),
        "tmean": (lambda: ad.tmean(ad.mul(a4, b4)), {"a": a4}),
        "mse": (lambda: ad.mse(a4, b4), {"a": a4, "b": b4}),
        "layout": (lambda: ad.mse(ad.channels_first(ad.channels_last(a4)),
                                  ref4), {"a": a4}),
    }
    m1 = t_(rng.gauss((3, 4)))
    m2 = t_(rng.gauss((4, 2)))
    refm = Tensor(rng.gauss((3, 2)))
    bias = t_(rng.gauss((4,)))
    m1ref = Tensor(rng.gauss((3, 4)))
    cw = t_(rng.gauss((3, 3, 4, 2)) * 0.4)
    cb = t_(rng.gauss((2,)) * 0.1)
    ref_conv = Tensor(rng.gauss((2, 4, 4, 2)))
    cw1 = t_(rng.gauss((1, 1, 4, 3)) * 0.4)
    cb1 = t_(rng.gauss((3,)) * 0.1)
    ref_conv1 = Tensor(rng.gauss((2, 4, 4, 3)))
    gn_g = t_(1.0 + 0.2 * rng.gauss((4,)))
    gn_b = t_(0.2 * rng.gauss((4,)))
    ref_pool = Tensor(rng.gauss((2, 2, 2, 4)))
    ref_up = Tensor(rng.gauss((2, 8, 8, 4)))
    ref_cat = Tensor(rng.gauss((2, 4, 4, 8)))
    vmap = t_(rng.gauss((2, 4)))

    loss_fn, tensors = builders[op_name]
    if tensors is None:
        tensors = {
            "matmul": {"m1": m1, "m2": m2},
            "add_bias": {"m1": m1, "bias": bias},
            "conv2d": {"a": a4, "w": cw, "b": cb},
            "conv1x1": {"a": a4, "w": cw1, "b": cb1},
            "group_norm": {"a": a4, "g": gn_g, "b": gn_b},
            "channel_map": {"a": a4, "v": vmap},
        }[op_name]
    finite_diff_check(loss_fn, tensors)


def test_deterministic_repeat_bitwise():
    def run():
        rng = Rng(77)
        x = Tensor(rng.gauss((2, 6, 6, 2)))
        w = t_(rng.gauss((3, 3, 2, 2)))
        out = ad.conv2d(ad.silu(ad.conv2d(x, w)), w)
        loss = ad.tmean(out)
        w.grad = None
        ad.backward(loss)
        return out.data.copy(), w.grad.copy()

    o1, g1 = run()
    o2, g2 = run()
    assert np.array_equal(o1, o2) and np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# float32 kernels against float64 references
# ---------------------------------------------------------------------------

# float32 outputs and gradients of order 1 must match float64 within ~100
# float32 ulps of the largest reference value: the kernels reassociate
# sums, a wrong index moves values by O(1)
TOL32 = 1e-5

# every conv of the default denoiser: (size, Ci, Co, k)
DENOISER_CONVS = [
    (32, 2, 32, 3),    # stem
    (32, 32, 32, 3),   # b1 / b4 convs
    (16, 32, 64, 3),   # b2.conv1
    (16, 64, 64, 3),   # b2.conv2, b3 convs
    (16, 32, 64, 1),   # b2.skip
    (32, 64, 32, 1),   # fuse
    (32, 32, 1, 3),    # head
]


def conv_ref(x, w):
    """Float64 'same' convolution as a sum over taps of padded shifts."""
    kh, kw = w.shape[:2]
    h, wd = x.shape[1:3]
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    return sum(np.einsum("bhwc,cd->bhwd", xp[:, u:u + h, v:v + wd], w[u, v])
               for u in range(kh) for v in range(kw))


def group_norm_ref(x, g, b, groups, eps=1e-5):
    bsz, h, w, c = x.shape
    xg = x.reshape(bsz, h, w, groups, c // groups)
    mu = xg.mean(axis=(1, 2, 4), keepdims=True)
    var = xg.var(axis=(1, 2, 4), keepdims=True)
    return ((xg - mu) / np.sqrt(var + eps)).reshape(x.shape) * g + b


def assert_close32(got, want, tol=TOL32):
    assert got.dtype == np.float32
    err = np.max(np.abs(got - want))
    assert err <= tol * max(1.0, np.max(np.abs(want))), err


def op_outputs(op, arrays, gout, dtype):
    """Forward value and every input gradient of ``op`` at ``dtype``, with
    the output cotangent ``gout``."""
    ts = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    out = op(*ts)
    ad.backward(ad.tsum(ad.mul(out, Tensor(gout.astype(dtype)))))
    return [out.data] + [t.grad for t in ts]


@pytest.mark.parametrize("size,ci,co,k", DENOISER_CONVS)
def test_conv2d_float32_matches_float64_reference(size, ci, co, k):
    rng = Rng(1000 + size + ci + co + k)
    x = rng.gauss((2, size, size, ci))
    w = rng.gauss((k, k, ci, co)) / np.sqrt(k * k * ci)
    b = 0.1 * rng.gauss((co,))
    assert_close32(ad.conv2d(Tensor(x.astype(np.float32)),
                             Tensor(w.astype(np.float32)),
                             Tensor(b.astype(np.float32))).data,
                   conv_ref(x, w) + b)
    gout = rng.gauss((2, size, size, co))
    got = op_outputs(ad.conv2d, (x, w, b), gout, np.float32)
    want = op_outputs(ad.conv2d, (x, w, b), gout, np.float64)
    for g32, g64 in zip(got, want):
        assert_close32(g32, g64)


@pytest.mark.parametrize("size,c", [(32, 32), (16, 32), (16, 64)])
def test_group_norm_and_silu_float32_match_float64_reference(size, c):
    rng = Rng(2000 + size + c)
    x = rng.gauss((2, size, size, c))
    g = 1.0 + 0.2 * rng.gauss((c,))
    b = 0.2 * rng.gauss((c,))
    gout = rng.gauss(x.shape)
    gn = functools.partial(ad.group_norm, groups=8)
    assert_close32(gn(*(Tensor(a.astype(np.float32)) for a in (x, g, b))).data,
                   group_norm_ref(x, g, b, 8))
    for g32, g64 in zip(op_outputs(gn, (x, g, b), gout, np.float32),
                        op_outputs(gn, (x, g, b), gout, np.float64)):
        assert_close32(g32, g64)
    xs = 4.0 * x
    assert_close32(ad.silu(Tensor(xs.astype(np.float32))).data,
                   xs / (1.0 + np.exp(-xs)))
    for g32, g64 in zip(op_outputs(ad.silu, (xs,), gout, np.float32),
                        op_outputs(ad.silu, (xs,), gout, np.float64)):
        assert_close32(g32, g64)


def test_group_norm_float32_survives_a_large_offset():
    # a one-pass E[x^2] - E[x]^2 variance loses ~5e-2 here; centering first
    # keeps the error at the float32 rounding of the mean (~1e-4)
    rng = Rng(9)
    x = 100.0 + rng.gauss((2, 32, 32, 32))
    g, b = np.ones(32), np.zeros(32)
    out = ad.group_norm(*(Tensor(a.astype(np.float32)) for a in (x, g, b)),
                        groups=8).data
    assert_close32(out, group_norm_ref(x, g, b, 8), tol=1e-3)


def group_norm_by_axis_sums(x, g, b, groups, gout, eps=1e-5):
    """Output and (dx, dgamma, dbeta) of group_norm, with its statistics
    taken by numpy's sums over axes (the formula before they became BLAS
    products), in x's dtype."""
    bsz, h, w, c = x.shape
    cg = c // groups

    def group_mean(s):
        s = s.reshape(bsz, groups, cg).sum(axis=2) / (h * w * cg)
        return np.repeat(s, cg, axis=1)[:, None, :]

    xr, gr = x.reshape(bsz, h * w, c), gout.reshape(bsz, h * w, c)
    mu = group_mean(xr.sum(axis=1))
    xc = xr - mu
    inv = 1.0 / np.sqrt(group_mean((xc * xc).sum(axis=1)) + eps)
    xhat = xc * inv
    g_c, gx_c = gr.sum(axis=1), (gr * xhat).sum(axis=1)
    dx = (gr * g - group_mean(g_c * g) - xhat * group_mean(gx_c * g)) * inv
    return [(xhat * g + b).reshape(x.shape), dx.reshape(x.shape),
            gx_c.sum(axis=0), g_c.sum(axis=0)]


# group_norm's float32 forward and gradients against the axis-sum formula in
# float64, relative to each tensor's largest magnitude: at most 3.4e-7 on
# the cases below with the BLAS sums
TOL_GN32 = 2e-6


@pytest.mark.parametrize("shape", [(4, 32, 32, 32), (4, 16, 16, 64),
                                   (1, 32, 32, 32), (2, 2, 2, 32)])
def test_group_norm_float32_stays_near_the_axis_sums_in_float64(shape):
    rng = Rng(2100 + shape[0] + shape[1] + shape[3])
    x = 0.5 + 2.0 * rng.gauss(shape)
    g = 1.0 + 0.2 * rng.gauss((shape[3],))
    b = 0.2 * rng.gauss((shape[3],))
    gout = rng.gauss(shape)
    gn = functools.partial(ad.group_norm, groups=8)
    got = op_outputs(gn, (x, g, b), gout, np.float32)
    want = group_norm_by_axis_sums(x, g, b, 8, gout)
    for name, g32, g64 in zip(("out", "dx", "dgamma", "dbeta"), got, want):
        assert g32.dtype == np.float32
        err = np.max(np.abs(g32 - g64)) / np.max(np.abs(g64))
        assert err <= TOL_GN32, (name, err)


@pytest.mark.parametrize("shape", [(4, 32, 32, 32), (4, 16, 16, 64),
                                   (4, 2, 2, 32)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_group_norm_of_a_batch_is_each_item_alone(dtype, shape):
    # the per-item stream contract: an item's statistics, output and input
    # gradient do not depend on the other items of its batch
    rng = Rng(2200 + shape[1] + shape[3])
    x = rng.gauss(shape) * (3.0 ** np.arange(4))[:, None, None, None]
    g, b = 1.0 + 0.2 * rng.gauss((shape[3],)), rng.gauss((shape[3],))
    gout = rng.gauss(shape)
    gn = functools.partial(ad.group_norm, groups=8)
    out, dx = op_outputs(gn, (x, g, b), gout, dtype)[:2]
    for i in range(4):
        oi, dxi = op_outputs(gn, (x[i:i + 1], g, b), gout[i:i + 1], dtype)[:2]
        assert np.array_equal(oi[0], out[i]), i
        assert np.array_equal(dxi[0], dx[i]), i


def test_pixel_sum_gradients_float32_stay_near_the_axis_sums_in_float64():
    # the conv bias and channel-map gradients are ones-products; in float32
    # they stay within ~100 ulps of numpy's axis sums in float64
    rng = Rng(2300)
    g = rng.gauss((4, 32, 32, 32))
    x, w = rng.gauss((4, 32, 32, 32)), rng.gauss((3, 3, 32, 32)) / 17.0
    db = op_outputs(ad.conv2d, (x, w, rng.gauss((32,))), g, np.float32)[3]
    assert_close32(db, g.sum(axis=(0, 1, 2)))
    dv = op_outputs(ad.add_channel_map, (x, rng.gauss((4, 32))), g,
                    np.float32)[2]
    assert_close32(dv, g.sum(axis=(1, 2)))


def test_conv2d_non_square_kernel_finite_differences():
    # kh != kw: the tap offsets u*Wp + v and the centred gradient grid of dW
    rng = Rng(41)
    x = t_(rng.gauss((2, 5, 4, 2)))
    w = t_(rng.gauss((5, 3, 2, 2)) * 0.4)
    b = t_(rng.gauss((2,)) * 0.1)
    ref = Tensor(rng.gauss((2, 5, 4, 2)))
    finite_diff_check(lambda: ad.mse(ad.conv2d(x, w, b), ref),
                      {"x": x, "w": w, "b": b})


@pytest.mark.parametrize("kernel", [(3, 3), (5, 3), (1, 1)])
def test_conv2d_batch_items_are_independent(kernel):
    # items of very different scale: a padded row read across an item
    # boundary would show up far above the tolerance
    rng = Rng(31)
    x = rng.gauss((5, 6, 7, 3)) * (10.0 ** np.arange(5))[:, None, None, None]
    w = t_(rng.gauss(kernel + (3, 4)))
    g = rng.gauss((5, 6, 7, 4))
    xt = t_(x)
    out = ad.conv2d(xt, w)
    ad.backward(ad.tsum(ad.mul(out, Tensor(g))))
    for i in range(5):
        xi = t_(x[i:i + 1])
        oi = ad.conv2d(xi, w)
        ad.backward(ad.tsum(ad.mul(oi, Tensor(g[i:i + 1]))))
        scale = 10.0 ** i
        assert np.max(np.abs(oi.data[0] - out.data[i])) <= 1e-12 * scale
        assert np.max(np.abs(xi.grad[0] - xt.grad[i])) <= 1e-12


# ---------------------------------------------------------------------------
# the BLAS path of _conv_rows and its np.dot fallback
# ---------------------------------------------------------------------------

def _conv_rows_both(monkeypatch, x, w):
    """_conv_rows' (output, padded input) on the BLAS path, then on the
    np.dot fallback, as contiguous arrays."""
    blas, outs = ad._CBLAS, []
    for path in (blas, None):
        monkeypatch.setattr(ad, "_CBLAS", path)
        outs.append([np.ascontiguousarray(a) for a in ad._conv_rows(x, w)])
    monkeypatch.setattr(ad, "_CBLAS", blas)
    return outs


@pytest.mark.parametrize("guard_bytes", [1 << 19, 1 << 10])
@pytest.mark.parametrize("kernel", [(3, 3), (1, 1), (3, 1), (1, 3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_rows_blas_path_gives_the_np_dot_bits(monkeypatch, dtype,
                                                   kernel, guard_bytes):
    # one input channel goes to gemm, one output channel to gemv; a 1x1
    # image of one item is one output row.  The weights are a view between
    # guard_bytes of NaN on each side of a larger buffer.  A tap that read
    # past the padded buffer or outside its weight slice, or added in
    # another order, would not give np.dot's bits
    rng = Rng(50)
    guard = guard_bytes // np.dtype(dtype).itemsize
    for ci in (1, 2, 32):
        for co in (1, 4, 32):
            for b in (1, 3):
                for hw in ((1, 1), (5, 6), (32, 32)):
                    x = rng.gauss((b, *hw, ci)).astype(dtype)
                    size = kernel[0] * kernel[1] * ci * co
                    buf = np.full(size + 2 * guard, np.nan, dtype=dtype)
                    w = buf[guard:guard + size].reshape(*kernel, ci, co)
                    w[...] = rng.gauss(w.shape)
                    (got, fg), (want, fw) = _conv_rows_both(monkeypatch, x, w)
                    case = (ci, co, b, hw)
                    assert got.dtype == want.dtype == dtype, case
                    assert np.array_equal(got, want), case
                    assert np.array_equal(fg, fw), case


def test_conv_rows_blas_path_of_mixed_dtypes_is_float64(monkeypatch):
    rng = Rng(51)
    x = rng.gauss((2, 5, 6, 3)).astype(np.float32)
    w = rng.gauss((3, 3, 3, 4))
    (got, _), (want, _) = _conv_rows_both(monkeypatch, x, w)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)
    assert np.array_equal(got, ad._conv_rows(x.astype(np.float64), w)[0])


def test_conv_rows_takes_the_blas_path_on_numpys_openblas(monkeypatch):
    # numpy's wheels link the ILP64 scipy-openblas; there, every conv of
    # the denoiser (the stem's 2 input channels, the head's 1 output
    # channel) must run on BLAS calls, one per tap plus one gemm for the
    # bias, whose arguments are all ctypes instances (argtypes passes them
    # on unconverted), and give the fallback's bits
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    ilp64 = blas["name"] == "scipy-openblas" and \
        "USE64BITINT" in blas.get("openblas configuration", "")
    assert (ad._CBLAS is not None) == ilp64
    if not ilp64:
        return
    calls = {"gemm": 0, "gemv": 0}

    def counted(name, fn):
        def call(*args):
            assert all(isinstance(a, ctypes._SimpleCData) for a in args)
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(ad, "_CBLAS", {
        dt: (counted("gemm", gemm), counted("gemv", gemv), real)
        for dt, (gemm, gemv, real) in ad._CBLAS.items()})
    rng = Rng(52)
    for size, ci, co, k in DENOISER_CONVS:
        x = rng.gauss((2, size, size, ci)).astype(np.float32)
        w = rng.gauss((k, k, ci, co)).astype(np.float32)
        bias = rng.gauss((co,)).astype(np.float32)
        before = dict(calls)
        (got, _), (want, _) = _conv_rows_both(monkeypatch, x, w)
        assert np.array_equal(got, want)
        name = "gemv" if co == 1 else "gemm"
        assert calls[name] - before[name] >= k * k, (size, ci, co, k)
        before = dict(calls)
        assert np.array_equal(ad._conv_rows(x, w, bias)[0], want + bias)
        assert calls["gemm"] - before["gemm"] == (k * k if co > 1 else 0) + 1


def test_conv2d_without_blas_gives_the_same_values_and_grads(monkeypatch):
    # the fallback is the only path on builds without numpy's OpenBLAS:
    # forward and every gradient are the BLAS path's bits, in float32 and
    # float64, and the gradients pass the finite-difference check
    rng, blas = Rng(53), ad._CBLAS
    for dtype in (np.float32, np.float64):
        for size, ci, co, k in DENOISER_CONVS:
            arrays = (rng.gauss((2, size // 2, size // 2, ci)),
                      rng.gauss((k, k, ci, co)), rng.gauss((co,)))
            gout = rng.gauss((2, size // 2, size // 2, co))
            results = []
            for path in (blas, None):
                monkeypatch.setattr(ad, "_CBLAS", path)
                results.append(op_outputs(ad.conv2d, arrays, gout, dtype))
            for got, want in zip(*results):
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got, want), (dtype, size, ci, co, k)
    monkeypatch.setattr(ad, "_CBLAS", None)
    x = t_(rng.gauss((2, 5, 4, 2)))
    w = t_(rng.gauss((3, 3, 2, 3)) * 0.4)
    b = t_(rng.gauss((3,)) * 0.1)
    ref = Tensor(rng.gauss((2, 5, 4, 3)))
    finite_diff_check(lambda: ad.mse(ad.conv2d(x, w, b), ref),
                      {"x": x, "w": w, "b": b})


def test_load_cblas_without_the_symbols_is_none(monkeypatch):
    # a numpy built on another BLAS, or on an LP64 OpenBLAS whose symbols
    # lack the 64_ suffix: no BLAS path, and _conv_rows keeps np.dot
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda path: object())
    assert ad._load_cblas() is None


def test_no_grad_blocks_graph():
    w = t_([1.0, 2.0])
    with ad.no_grad():
        out = ad.mul(w, w)
    assert not out.requires_grad
    assert out.is_leaf


def test_non_finite_inputs_are_not_masked():
    # NaN flows through ops (error handling is at checkpoint/optimizer level)
    x = t_([np.nan, 1.0])
    assert np.isnan(ad.mse(x, t_([0.0, 0.0])).item())
