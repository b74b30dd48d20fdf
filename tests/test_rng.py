import numpy as np
import pytest

from turbdiff.rng import Rng, Streams


def test_same_seed_same_sequence():
    a = Rng(0).gauss((2,))
    b = Rng(0).gauss((2,))
    assert np.array_equal(a, b)


def test_distinct_seeds_differ():
    assert not np.array_equal(Rng(0).gauss((8,)), Rng(1).gauss((8,)))


def test_stream_ids_differ_and_are_stable():
    base = Rng(3)
    s1, s2 = base.stream(1), base.stream(2)
    assert not np.array_equal(s1.uniform((16,)), s2.uniform((16,)))
    assert np.array_equal(Rng(3).stream(1).uniform((4,)),
                          Rng(3).stream(1).uniform((4,)))


def test_counter_based_draws_compose():
    # two draws of n values equal one draw of 2n split in half
    r1 = Rng(9)
    a = np.concatenate([r1.uniform((5,)), r1.uniform((5,))])
    b = Rng(9).uniform((10,))
    assert np.array_equal(a, b)


def test_single_value_shape():
    v = Rng(0).gauss((1, 1))
    assert v.shape == (1, 1)
    assert np.isfinite(v).all()


def test_gauss_moments_clt():
    # CLT bound check: 10^6 draws, mean within +-0.005, variance within 1%
    z = Rng(123).gauss((1_000_000,))
    assert -0.005 < z.mean() < 0.005
    assert 0.99 < z.var() < 1.01


def test_gauss_finite_and_bounded_tails():
    z = Rng(7).gauss((100_000,))
    assert np.isfinite(z).all()
    # Box-Muller radius is capped by the 53-bit uniform floor
    assert np.abs(z).max() < 9.0


def test_uniform_range_bounds():
    u = Rng(4).uniform((50_000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    v = Rng(4).uniform_range(-2.0, 3.0, (1000,))
    assert v.min() >= -2.0 and v.max() < 3.0


def test_integers_cover_range():
    k = Rng(5).integers(1, 7, (10_000,))
    assert set(np.unique(k)) == {1, 2, 3, 4, 5, 6}


def test_streams_statistically_independent():
    base = Rng(42)
    a = base.stream(0).gauss((50_000,))
    b = base.stream(1).gauss((50_000,))
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_shape_validation():
    with pytest.raises(ValueError):
        Rng(0).gauss(())
    with pytest.raises(ValueError):
        Rng(0).uniform((0, 3))
    with pytest.raises(ValueError):
        Rng(0).integers(5, 5, (2,))


def _streams_at(counts):
    """Streams of one seed, advanced to the given counters."""
    rngs = [Rng(8).stream(i) for i in range(len(counts))]
    for r, c in zip(rngs, counts):
        r._raw(c)
    return rngs


def test_streams_draw_words_as_each_stream_would():
    counts = [0, 3, 1, 40, 0, 7]
    alone, stacked = _streams_at(counts), _streams_at(counts)
    words = Streams(stacked)._raw(9)
    assert words.shape == (6, 9) and words.dtype == np.uint64
    assert np.array_equal(words, np.stack([r._raw(9) for r in alone]))
    assert [r._count for r in stacked] == [c + 9 for c in counts]
    assert [r._count for r in stacked] == [r._count for r in alone]


@pytest.mark.parametrize("draw", [
    lambda r: r.uniform((3, 5)), lambda r: r.gauss((3, 5)),
    lambda r: r.gauss((1,)), lambda r: r.uniform_range(-2.0, 0.5, (4,))],
    ids=["uniform", "gauss-odd", "gauss-one", "uniform_range"])
def test_streams_draws_equal_per_stream_draws(draw):
    counts = [5, 0, 2, 11]
    alone, stacked = _streams_at(counts), _streams_at(counts)
    streams = Streams(stacked)
    for _ in range(2):  # a second draw continues each stream
        got = draw(streams)
        assert np.array_equal(got, np.stack([draw(r) for r in alone]))
    assert [r._count for r in stacked] == [r._count for r in alone]
