"""Seedable, splittable random streams on a counter-based splitmix64 core.

Every stochastic component of the package takes an explicit :class:`Rng`, so
the k-th value of a stream depends only on ``(seed, stream_id, k)`` — never on
global state, draw batching, or evaluation order.  This is what makes dataset
generation, training, and sampling exactly reproducible, and lets per-item
work use independent sub-streams.  One :class:`Rng` can also hold N streams,
so a batch of items draws its per-item streams in one vectorized pass.

Gaussians are produced by the Box–Muller transform over the uniform stream.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03
_TWO_PI = 2.0 * np.pi
_U64_TO_UNIT = 2.0 ** -53


def _mix(z):
    """splitmix64 finalizer of a Python int in [0, 2^64), or in place of a
    uint64 array, which wraps by itself (its masks change nothing)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4B5B9
    z &= _MASK
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK
    z ^= z >> 31
    return z


def _check_shape(shape) -> tuple[int, ...]:
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    shape = tuple(int(d) for d in shape)
    if len(shape) == 0:
        raise ValueError("shape must be nonempty; use (1,) for a single value")
    if any(d < 1 for d in shape):
        raise ValueError(f"all dimensions must be >= 1, got {shape}")
    return shape


class Rng:
    """Deterministic random stream identified by ``(seed, stream_id)``, or N
    streams that share a seed and draw as one.

    The generator is counter-based: output k is a fixed avalanche mix of
    ``base + (k+1) * golden`` where ``base`` is derived from the seed and
    stream id.  Bulk draws therefore vectorize, and two draws of n values
    equal one draw of 2n values split in half.

    Distinct stream ids from one seed give statistically independent
    sequences; use :meth:`stream` to derive per-item sub-streams.  N streams
    have an (N, 1) uint64 array of ids; a draw of ``shape`` from them is
    (N, *shape), and row i is bit for bit stream i's own draw.
    """

    def __init__(self, seed: int, stream_id=0):
        self.seed = int(seed) & _MASK
        self.stream_id = stream_id & _MASK
        base = _mix((self.seed + _GOLDEN) & _MASK)
        self._base = _mix(base ^ _mix(self.stream_id ^ _STREAM_SALT))
        self._count = 0

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream_id={self.stream_id})"

    def stream(self, index) -> "Rng":
        """Derive an independent child stream for sub-task ``index``.  A
        sequence of N indices derives N streams in one pass, and on N streams
        an int derives child ``index`` of each."""
        try:
            key = (operator.index(index) + 1) * _GOLDEN & _MASK
        except TypeError:  # N indices; int64 ones wrap as the mask does
            key = np.asarray(index).astype(np.uint64).reshape(-1, 1)
            key = (key + 1) * _GOLDEN
        return Rng(self.seed, _mix(self.stream_id ^ key))

    def _raw(self, n: int) -> np.ndarray:
        """Next ``n`` uint64 words of each stream; advances the counter by
        ``n``."""
        ks = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix(np.uint64(self._base) + ks * _GOLDEN)

    def uniform(self, shape) -> np.ndarray:
        """i.i.d. uniforms in [0, 1), one counter word per value."""
        shape = _check_shape(shape)
        n = math.prod(shape)
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _U64_TO_UNIT
        return u.reshape(*u.shape[:-1], *shape)

    def uniform_range(self, lo: float, hi: float, shape=(1,)) -> np.ndarray:
        """i.i.d. uniforms in [lo, hi)."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        return lo + (hi - lo) * self.uniform(shape)

    def gauss(self, shape) -> np.ndarray:
        """i.i.d. standard normals via Box–Muller over the uniform stream.

        Consumes ``2 * ceil(n/2)`` counter words for ``n`` values (pairs of
        uniforms map to pairs of normals; a trailing odd value discards its
        sine partner).
        """
        shape = _check_shape(shape)
        n = math.prod(shape)
        m = (n + 1) // 2
        # in place in the words' buffer: r over the first m, theta over the
        # rest; a float64 view casts each word where it lies
        w = self._raw(2 * m)
        w >>= np.uint64(11)
        u = w.view(np.float64)
        np.multiply(w, _U64_TO_UNIT, out=u, casting="unsafe")
        r, theta = u[..., :m], u[..., m:]
        np.subtract(1.0, r, out=r)  # (0, 1]: keeps log finite
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= _TWO_PI
        z = np.empty((*u.shape[:-1], n))
        np.cos(theta, out=z[..., :m])
        z[..., :m] *= r
        np.sin(theta[..., :n - m], out=z[..., m:])
        z[..., m:] *= r[..., :n - m]
        return z.reshape(*z.shape[:-1], *shape)

    def integers(self, lo: int, hi: int, shape=(1,)) -> np.ndarray:
        """i.i.d. integers in [lo, hi), one counter word per value."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        u = self.uniform(shape)
        return (lo + np.floor(u * (hi - lo))).astype(np.int64)
