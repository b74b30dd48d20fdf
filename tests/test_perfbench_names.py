"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps turbdiff
functions that its span tracer looks up by name, and the workloads unpack
the sampler entry points as pairs.  These tests read the tracer's tables
from ``perfbench/spans.py``, so a deletion or signature change that would
break the traced run fails here."""

import importlib
import importlib.util
import os

import numpy as np

from turbdiff import autodiff as ad
from turbdiff import denoiser
from turbdiff.diffusion import restore, restore_batched
from turbdiff.rng import Rng
from turbdiff.schedule import linear_schedule, respace

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    spans = _spans()
    for op in spans.AUTODIFF_KINDS:
        assert callable(getattr(ad, op, None)), op
    for modname, attr, _ in spans.FUNCTIONS:
        mod = importlib.import_module(modname)
        assert callable(getattr(mod, attr, None)), (modname, attr)
    # wrapped by Tracer.install itself, outside the tables
    assert callable(denoiser.eps_predict) and callable(Rng.gauss)


def test_restore_entry_points_return_pairs():
    r = respace(linear_schedule(20), 4)
    x = Rng(0).gauss((3, 1, 4, 4))

    def zero(y, xx, t):
        return np.zeros_like(y)

    for got in (restore(x, zero, r, 2, Rng(1)),
                restore_batched(x, zero, r, 2, Rng(1), batch_size=2)):
        assert isinstance(got, tuple) and len(got) == 2
        assert got[0].shape == x.shape
