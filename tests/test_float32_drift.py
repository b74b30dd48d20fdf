"""The float32 pipeline against a float64 run of the same code and weights.

The trained benchmark fixture is evaluated in both dtypes: one network
evaluation (NFE) at three timesteps, and a restore at the CLI defaults.
The float64 run is the reference and is computed here, not stored, so the
bounds hold on any BLAS kernel, and a change to float64 arithmetic must
pass them too.  Each bound is about ten times the gap measured on these
inputs; a change that reassociates float32 sums moves the gap, and one
that moves it by an order of magnitude fails here.
"""

import os

import numpy as np
import pytest

from turbdiff import turbulence
from turbdiff.denoiser import make_denoise_fn
from turbdiff.diffusion import q_sample, restore, to_signed, to_unit
from turbdiff.formats import PGM_MAXVAL, load_checkpoint
from turbdiff.rng import Rng
from turbdiff.schedule import respace
from turbdiff.toyfaces import render, sample_spec

FIXTURE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "fixture", "restore.ckpt")
TEST_SEED = 1_000_003  # the benchmark's held-out corpus
ITEMS = 4

# one NFE, float32 against float64: measured at most 1.27e-6 absolute (at
# t = 50; 7.2e-7 at 300, 6.1e-7 at 900) for outputs of up to 4.0
NFE_ATOL = 1.3e-5
# a restore at K = 60, t1 = 30, in model range [-1, 1]: measured 1.9e-7
RESTORE_ATOL = 2e-6
# 16-bit PGM levels of that restore: one pixel of the 4,096 sits 7e-5 of
# a level from a rounding boundary and lands one level apart
RESTORE_LEVELS = 1


@pytest.fixture(scope="module")
def fixture_net():
    """The fixture's checkpoint, its denoiser in float32 and float64, and
    the first ``ITEMS`` held-out faces, clean and strongly degraded, in
    model range."""
    ckpt = load_checkpoint(FIXTURE)
    base, cfg = Rng(TEST_SEED), turbulence.DegradationConfig(seed=TEST_SEED)
    clean = np.stack([render(sample_spec(base.stream(i), seed_tag=i))
                      for i in range(ITEMS)])
    strong = np.stack([turbulence.degrade_strong(c, cfg, base.stream(i))
                       for i, c in enumerate(clean)])
    fns = [make_denoise_fn(ckpt.student.astype(dt))
           for dt in (np.float32, np.float64)]
    return ckpt, fns, to_signed(clean[:, None]), to_signed(strong[:, None])


@pytest.mark.parametrize("t", [50, 300, 900])
def test_float32_nfe_stays_near_float64(fixture_net, t):
    ckpt, fns, y0, x = fixture_net
    y_t = q_sample(y0, t, Rng(t).gauss(y0.shape), ckpt.meta.schedule())
    got, want = (fn(y_t, x, t) for fn in fns)
    assert np.max(np.abs(got - want)) <= NFE_ATOL


def test_float32_restore_stays_near_float64(fixture_net):
    ckpt, fns, _, x = fixture_net
    sched = respace(ckpt.meta.schedule(), 60)
    got, want = (restore(x, fn, sched, 30, Rng(0))[0] for fn in fns)
    assert np.max(np.abs(got - want)) <= RESTORE_ATOL
    got, want = (np.floor(to_unit(y) * PGM_MAXVAL + 0.5) for y in (got, want))
    assert np.max(np.abs(got - want)) <= RESTORE_LEVELS
