import hashlib
import tracemalloc

import numpy as np
import pytest

from turbdiff.rng import Rng


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


IDS = [0, 3, 1, 40, 7, 2]


def test_streams_draw_words_as_each_stream_would():
    many = Rng(8).stream(IDS)
    words = many._raw(9)
    assert words.shape == (6, 9) and words.dtype == np.uint64
    assert np.array_equal(words, np.stack([Rng(8).stream(i)._raw(9)
                                           for i in IDS]))
    assert many._count == 9


@pytest.mark.parametrize("draw", [
    lambda r: r.uniform((3, 5)), lambda r: r.gauss((3, 5)),
    lambda r: r.gauss((1,)), lambda r: r.uniform_range(-2.0, 0.5, (4,)),
    lambda r: r.integers(-3, 9, (2, 7))],
    ids=["uniform", "gauss-odd", "gauss-one", "uniform_range", "integers"])
def test_streams_draws_equal_per_stream_draws(draw):
    many, alone = Rng(8).stream(IDS), [Rng(8).stream(i) for i in IDS]
    for _ in range(2):  # a second draw continues each row
        got = draw(many)
        assert np.array_equal(got, np.stack([draw(r) for r in alone]))
    assert many._count == alone[0]._count


@pytest.mark.parametrize("key", [0, 5, -1])
def test_child_streams_of_n_streams_are_each_streams_child(key):
    base = Rng(12)
    got = base.stream(np.arange(4) + 30).stream(key).gauss((3, 3))
    want = [base.stream(i).stream(key).gauss((3, 3)) for i in range(30, 34)]
    assert np.array_equal(got, np.stack(want))


def test_n_streams_take_negative_indices_and_ids_past_2_63():
    # tier-1 turns numpy's overflow warnings into errors
    for sid in (0, 2 ** 63 + 5, 2 ** 64 - 1):
        base = Rng(3, sid)
        for ids in ([-1, -7, 0, 2 ** 62], np.array([2 ** 63, 2 ** 64 - 1],
                                                   dtype=np.uint64)):
            many = base.stream(ids)
            want = [base.stream(int(i)) for i in ids]
            assert np.array_equal(many.stream_id.ravel(),
                                  [r.stream_id for r in want])
            assert np.array_equal(many.gauss((5,)),
                                  np.stack([r.gauss((5,)) for r in want]))
            assert np.array_equal(
                many.stream(-2).uniform((3,)),
                np.stack([r.stream(-2).uniform((3,)) for r in want]))


def test_gauss_of_n_streams_works_in_the_words_buffer():
    # the per-step draw of a 64-item restore chunk: its (64, 1024) words
    # and (64, 1024) normals take 1 MiB, and the in-place transform peaks
    # at 1.19 MiB, where separate uniforms, r, cos, sin and their
    # concatenation took 2.25
    r = Rng(0).stream(np.arange(64))
    tracemalloc.start()
    try:
        z = r.gauss((1, 32, 32))
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 1.5, peak
    # and the draws keep their bits: N streams, one stream of an odd size,
    # and two streams of an odd size, as the allocating transform drew them
    z = z.tobytes() + Rng(3).gauss((5, 7)).tobytes() \
        + Rng(4).stream([1, 2]).gauss((3,)).tobytes()
    assert hashlib.sha256(z).hexdigest() == \
        "2b42277cecc189286e9f9ffc64a43c3f84767e7547249d1565ebbdd6d6257a10"
