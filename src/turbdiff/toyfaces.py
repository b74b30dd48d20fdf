"""Procedural face-like toy images.

Each image is a light elliptical "face" on a darker background with two
eyes and a curved mouth, rasterized with 2x supersampling and a box filter
so edges are anti-aliased.  The parameter ranges give enough structured
variation (position, proportions, expression, shading) for a small
conditional prior to be learnable in minutes, while every geometric element
stays inside the canvas by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng

SIZE = 32


@dataclass(frozen=True)
class FaceSpec:
    """All sampled quantities of one face; rendering is deterministic."""

    bg: float            # background intensity
    skin: float          # face-ellipse intensity
    feature: float       # eye/mouth intensity
    cx: float            # ellipse center (pixels)
    cy: float
    ax: float            # ellipse semi-axes (pixels)
    ay: float
    eye_dx: float        # eye offset from center (pixels)
    eye_dy: float
    eye_r: float         # eye radius (pixels)
    mouth_y: float       # mouth drop below center (pixels)
    mouth_halfw: float   # mouth half-width (pixels)
    mouth_curve: float   # vertical bend at the mouth ends (pixels)
    mouth_thick: float   # mouth stroke thickness (pixels)
    seed: int = 0


# draw ranges, all uniform; fractions are relative to the ellipse axes
_RANGES = {
    "bg": (0.05, 0.35),
    "skin": (0.55, 0.95),
    "feature": (0.05, 0.30),
    "cx": (14.5, 17.5),
    "cy": (14.5, 17.5),
    "ax": (9.0, 12.0),
    "ay": (11.0, 14.0),
    "eye_dx_frac": (0.35, 0.55),
    "eye_dy_frac": (0.30, 0.50),
    "eye_r": (1.2, 2.2),
    "mouth_y_frac": (0.35, 0.60),
    "mouth_halfw_frac": (0.35, 0.65),
    "mouth_curve": (-1.0, 2.0),
    "mouth_thick": (0.9, 1.6),
}
_LO = np.array([lo for lo, _ in _RANGES.values()])
_SPAN = np.array([hi - lo for lo, hi in _RANGES.values()])


def sample_spec(rng: Rng, seed_tag: int = 0) -> FaceSpec:
    """Draw one spec with one uniform draw over the fields of _RANGES.

    The stream is counter-based, so this consumes the same words in the
    same order, and gives the same values, as one one-value
    ``uniform_range(lo, hi)`` draw per field in _RANGES order.
    """
    u = rng.uniform((len(_RANGES),))
    v = dict(zip(_RANGES, (_LO + _SPAN * u).tolist()))
    return FaceSpec(
        bg=v["bg"], skin=v["skin"], feature=v["feature"],
        cx=v["cx"], cy=v["cy"], ax=v["ax"], ay=v["ay"],
        eye_dx=v["eye_dx_frac"] * v["ax"],
        eye_dy=v["eye_dy_frac"] * v["ay"],
        eye_r=v["eye_r"],
        mouth_y=v["mouth_y_frac"] * v["ay"],
        mouth_halfw=v["mouth_halfw_frac"] * v["ax"],
        mouth_curve=v["mouth_curve"],
        mouth_thick=v["mouth_thick"],
        seed=seed_tag,
    )


def render(spec: FaceSpec, size: int = SIZE) -> np.ndarray:
    """Rasterize a spec to (size, size) in [0, 1] with 2x supersampling."""
    ss = 2 * size
    # supersample coordinates at pixel-subcell centers
    c = (np.arange(ss) + 0.5) / 2.0 - 0.5
    ys, xs = c[:, None], c[None, :]  # broadcast to the (ss, ss) grid

    ax = max(spec.ax, 0.5)  # degenerate axes render as a minimal blob
    ay = max(spec.ay, 0.5)
    img = np.full((ss, ss), spec.bg)

    face = ((xs - spec.cx) / ax) ** 2 + ((ys - spec.cy) / ay) ** 2 <= 1.0
    img[face] = spec.skin

    for sx in (-1.0, 1.0):
        ex = spec.cx + sx * spec.eye_dx
        ey = spec.cy - spec.eye_dy
        eye = (xs - ex) ** 2 + (ys - ey) ** 2 <= spec.eye_r ** 2
        img[eye & face] = spec.feature

    rel = (xs - spec.cx) / max(spec.mouth_halfw, 0.5)
    curve_y = spec.cy + spec.mouth_y + spec.mouth_curve * rel ** 2
    mouth = (np.abs(ys - curve_y) <= spec.mouth_thick / 2.0) \
        & (np.abs(xs - spec.cx) <= spec.mouth_halfw)
    img[mouth & face] = spec.feature

    # 2x2 box mean as a horizontal then a vertical pair sum: for size >= 2
    # the additions of img.reshape(size, 2, size, 2).mean(axis=(1, 3)) in
    # numpy's order, without its slow strided reduction
    pairs = img.reshape(ss, size, 2)
    pairs = (pairs[..., 0] + pairs[..., 1]).reshape(size, 2, size)
    return (pairs[:, 0] + pairs[:, 1]) / 4.0


def make_corpus(count: int, seed: int, size: int = SIZE) -> np.ndarray:
    """(count, size, size) clean images; item i depends only on (seed, i)."""
    base = Rng(seed)
    out = np.empty((count, size, size))
    for i in range(count):
        out[i] = render(sample_spec(base.stream(i), seed_tag=i), size=size)
    return out
