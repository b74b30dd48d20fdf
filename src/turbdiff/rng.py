"""Seedable, splittable random streams on a counter-based splitmix64 core.

Every stochastic component of the package takes an explicit :class:`Rng`, so
the k-th value of a stream depends only on ``(seed, stream_id, k)`` — never on
global state, draw batching, or evaluation order.  This is what makes dataset
generation, training, and sampling exactly reproducible, and lets per-item
work use independent sub-streams.

Gaussians are produced by the Box–Muller transform over the uniform stream.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03
_TWO_PI = 2.0 * np.pi
_U64_TO_UNIT = 2.0 ** -53


def _mix_int(z: int) -> int:
    """splitmix64 finalizer on a Python int (mod 2^64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer vectorized over a uint64 array (wraps mod 2^64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4B5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


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
    """Deterministic random stream identified by ``(seed, stream_id)``.

    The generator is counter-based: output k is a fixed avalanche mix of
    ``base + (k+1) * golden`` where ``base`` is derived from the seed and
    stream id.  Bulk draws therefore vectorize, and two draws of n values
    equal one draw of 2n values split in half.

    Distinct stream ids from one seed give statistically independent
    sequences; use :meth:`stream` to derive per-item sub-streams.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK
        self.stream_id = int(stream_id) & _MASK
        base = _mix_int(self.seed + _GOLDEN)
        self._base = _mix_int(base ^ _mix_int(self.stream_id ^ _STREAM_SALT))
        self._count = 0

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream_id={self.stream_id})"

    def stream(self, index: int) -> "Rng":
        """Derive an independent child stream for sub-task ``index``."""
        child_id = _mix_int(self.stream_id ^ ((int(index) + 1) * _GOLDEN))
        return Rng(self.seed, child_id)

    def _raw(self, n: int) -> np.ndarray:
        """Next ``n`` uint64 words; advances the counter by ``n``."""
        ks = np.arange(1, n + 1, dtype=np.uint64) + np.uint64(self._count)
        self._count += n
        words = np.uint64(self._base) + ks * np.uint64(_GOLDEN)
        return _mix_array(words)

    def uniform(self, shape) -> np.ndarray:
        """i.i.d. uniforms in [0, 1), one counter word per value."""
        shape = _check_shape(shape)
        n = math.prod(shape)
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _U64_TO_UNIT
        return u.reshape(shape)

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
        u = (self._raw(2 * m) >> np.uint64(11)).astype(np.float64) * _U64_TO_UNIT
        u1 = 1.0 - u[:m]  # (0, 1]: keeps log finite
        u2 = u[m:]
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(_TWO_PI * u2), r * np.sin(_TWO_PI * u2)])
        return z[:n].reshape(shape)

    def integers(self, lo: int, hi: int, shape=(1,)) -> np.ndarray:
        """i.i.d. integers in [lo, hi), one counter word per value."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        u = self.uniform(shape)
        return (lo + np.floor(u * (hi - lo))).astype(np.int64)
