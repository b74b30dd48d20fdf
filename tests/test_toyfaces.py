import numpy as np

from turbdiff.rng import Rng
from turbdiff.toyfaces import (_RANGES, FaceSpec, make_corpus, render,
                               sample_spec)


def test_fixed_seed_gives_identical_spec():
    a = sample_spec(Rng(42))
    b = sample_spec(Rng(42))
    assert a == b


def _spec_field_by_field(rng: Rng, seed_tag: int = 0) -> FaceSpec:
    """sample_spec as one one-value uniform_range draw per field."""
    v = {k: float(rng.uniform_range(lo, hi, (1,))[0])
         for k, (lo, hi) in _RANGES.items()}
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


def test_sample_spec_equals_field_by_field_draws():
    for i in range(300):
        got = sample_spec(Rng(4).stream(i), seed_tag=i)
        assert got == _spec_field_by_field(Rng(4).stream(i), seed_tag=i)
    # both consume the same stream words
    a, b = Rng(5), Rng(5)
    sample_spec(a)
    _spec_field_by_field(b)
    assert np.array_equal(a.uniform((3,)), b.uniform((3,)))


def _render_meshgrid(spec: FaceSpec, size: int) -> np.ndarray:
    """render on full meshgrid coordinates with numpy's 2x2 box mean."""
    ss = 2 * size
    c = (np.arange(ss) + 0.5) / 2.0 - 0.5
    ys, xs = np.meshgrid(c, c, indexing="ij")
    ax = max(spec.ax, 0.5)
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
    return img.reshape(size, 2, size, 2).mean(axis=(1, 3))


def test_render_equals_meshgrid_reference():
    for i in range(300):
        spec = sample_spec(Rng(6).stream(i))
        assert np.array_equal(render(spec), _render_meshgrid(spec, 32)), i
    for size in (2, 8, 16):
        spec = sample_spec(Rng(7).stream(size))
        assert np.array_equal(render(spec, size), _render_meshgrid(spec, size))


def test_render_is_deterministic():
    spec = sample_spec(Rng(7))
    assert np.array_equal(render(spec), render(spec))


def test_specs_satisfy_canvas_invariants():
    for i in range(1000):
        s = sample_spec(Rng(0).stream(i))
        assert 0.0 <= s.bg <= 1.0 and 0.0 <= s.skin <= 1.0
        assert 0.0 <= s.feature <= 1.0
        assert s.cx - s.ax >= 0.5 and s.cx + s.ax <= 31.5
        assert s.cy - s.ay >= 0.5 and s.cy + s.ay <= 31.5
        assert s.cx - s.eye_dx - s.eye_r >= 0.0
        assert s.cx + s.eye_dx + s.eye_r <= 31.0
        assert s.eye_r > 0 and s.mouth_halfw > 0 and s.mouth_thick > 0


def test_render_range_and_shape():
    img = render(sample_spec(Rng(3)))
    assert img.shape == (32, 32)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_render_degenerate_axes_min_size():
    spec = FaceSpec(bg=0.2, skin=0.8, feature=0.1, cx=16, cy=16, ax=0.0,
                    ay=0.0, eye_dx=0.0, eye_dy=0.0, eye_r=0.0, mouth_y=0.0,
                    mouth_halfw=0.0, mouth_curve=0.0, mouth_thick=0.0)
    img = render(spec)
    assert np.isfinite(img).all()
    # almost the whole canvas is background
    assert np.mean(np.isclose(img, 0.2)) > 0.95


def test_corpus_diversity():
    faces = make_corpus(40, seed=5)
    rng = Rng(6)
    pairs = 0
    distinct = 0
    for _ in range(200):
        i, j = rng.integers(0, 40, (2,))
        if i == j:
            continue
        pairs += 1
        if np.mean((faces[i] - faces[j]) ** 2) > 0:
            distinct += 1
    assert distinct / pairs >= 0.99


def test_corpus_mean_intensity_band():
    # pinned once from the default ranges; catches accidental range drift
    faces = make_corpus(256, seed=0)
    assert 0.30 < float(faces.mean()) < 0.50


def test_corpus_order_independent():
    full = make_corpus(10, seed=9)
    item7 = make_corpus(8, seed=9)[7]
    assert np.array_equal(full[7], item7)
