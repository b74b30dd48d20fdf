"""The benchmark in ``perfbench/`` uses turbdiff by name: its files refer
to module attributes such as ``schedule.respace``, the traced run
(``perfbench/run.py --trace 1``) wraps functions that its span tracer looks
up by name, and the workloads unpack the sampler entry points as pairs.
These tests read the benchmark's files without running them, so a deletion
or signature change that would break the benchmark fails here."""

import ast
import glob
import importlib
import importlib.util
import os

import numpy as np

from turbdiff import autodiff as ad
from turbdiff import denoiser
from turbdiff.diffusion import restore, restore_batched
from turbdiff.rng import Rng
from turbdiff.schedule import linear_schedule, respace

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SPANS = os.path.join(PERFBENCH, "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _turbdiff_references(path) -> set[tuple[str, str]]:
    """(dotted turbdiff name, attribute) for every attribute read, call or
    annotation in ``path`` whose base is a name the file binds by importing
    turbdiff, such as ``("turbdiff.schedule", "respace")`` for
    ``schedule.respace`` after ``from turbdiff import schedule``, and
    ``("turbdiff.rng.Rng", "gauss")`` for ``rng_mod.Rng.gauss``.

    Imports anywhere in the file count, function-level ones too.  An
    attribute of an instance (``sched.steps``) is out of reach here; the
    benchmark's self-check (``perfbench/test_selfcheck.py``) runs those.
    """
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    binds, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "turbdiff":
                    base, _, attr = a.name.rpartition(".")
                    if base:
                        refs.add((base, attr))
                    # ``import turbdiff.cli`` binds the package itself
                    binds[a.asname or "turbdiff"] = \
                        a.name if a.asname else "turbdiff"
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "turbdiff"):
            for a in node.names:
                refs.add((node.module, a.name))
                binds[a.asname or a.name] = f"{node.module}.{a.name}"

    def dotted(n):
        if isinstance(n, ast.Name):
            return binds.get(n.id)
        if isinstance(n, ast.Attribute):
            base = dotted(n.value)
            return base and f"{base}.{n.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and dotted(node.value):
            refs.add((dotted(node.value), node.attr))
    return refs


def _resolves(dotted: str) -> bool:
    """Whether a dotted turbdiff name stands for an object; submodules are
    imported on the way, as ``from turbdiff import cli`` would."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_perfbench_turbdiff_attributes_resolve():
    refs = set()
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        refs |= _turbdiff_references(path)
    # guards the walker itself: the benchmark reads dozens of names
    assert len(refs) >= 30, sorted(refs)
    assert ("turbdiff.schedule", "respace") in refs
    assert ("turbdiff.formats", "Checkpoint") in refs  # an annotation
    missing = [f"{base}.{attr}" for base, attr in sorted(refs)
               if not _resolves(f"{base}.{attr}")]
    assert not missing, missing


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


def test_tracer_times_backward_per_op():
    # the traced run times backward by wrapping each node's vjp, which it
    # reads and assigns as ``out._vjp`` on the tensor an op returns
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        rng = Rng(2)
        x = ad.Tensor(rng.gauss((1, 4, 4, 2)), requires_grad=True)
        w = ad.Tensor(rng.gauss((3, 3, 2, 2)), requires_grad=True)
        gamma = ad.Tensor(np.ones(2), requires_grad=True)
        beta = ad.Tensor(np.zeros(2), requires_grad=True)
        h = ad.group_norm(ad.conv2d(x, w), gamma, beta, 1)
        ad.backward(ad.tsum(h))
    finally:
        tracer.uninstall()
    names = {sp[spans.NAME] for sp in tracer.spans}
    assert {"autodiff.conv2d.bwd", "autodiff.group_norm.bwd"} <= names, names
    assert x.grad is not None and w.grad is not None
