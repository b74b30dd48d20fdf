"""Correctness checks of the benchmark run, and the golden outputs.

Golden outputs were recorded with this benchmark on a fixed seed and are
recomputed on every run, whatever ``--seed`` is:

* the loss of the first three weak and three distillation steps of the
  ``train`` workload, within a relative ``LOSS_RTOL``;
* the first two images ``restore-batch`` restores, within ``IMAGE_ATOL``
  on the [0, 1] scale.

Both tolerances are for float32 arithmetic whose summation order may change
(another BLAS kernel, another convolution algorithm); a wrong result moves
these values by orders of magnitude more.

    python3 perfbench/record_golden.py    (from the checkout root)

rewrites ``golden.json`` from the current program.
"""

from __future__ import annotations

import json
import os

import numpy as np

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
GOLDEN_SEED = 0
LOSS_RTOL = 1e-3
IMAGE_ATOL = 1e-3
STREAM_ATOL = 1e-4       # one image restored alone vs inside a batch


class Checks:
    """Counts checks and keeps a message for each one that fails."""

    def __init__(self):
        self.count = 0
        self.failures: list[str] = []
        self._golden = None

    def expect(self, name: str, ok, detail: str = "") -> None:
        self.count += 1
        if not bool(ok):
            self.failures.append(f"{name}: {detail or 'failed'}")

    def close(self, name: str, got, want, atol: float) -> None:
        got, want = np.asarray(got, float), np.asarray(want, float)
        if want.ndim == 0:
            want = np.broadcast_to(want, got.shape)
        if got.shape != want.shape:
            self.expect(name, False, f"shape {got.shape} != {want.shape}")
            return
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        self.expect(name, err <= atol, f"max error {err:.3g} > {atol:.3g}")

    def golden(self) -> dict:
        if self._golden is None:
            with open(GOLDEN, encoding="utf-8") as f:
                self._golden = json.load(f)
        return self._golden

    def golden_train(self) -> None:
        want = self.golden()["train_losses"]
        got = golden_train_losses()
        err = float(np.max(np.abs(np.subtract(got, want)) / np.abs(want)))
        self.expect("golden.train_losses", err <= LOSS_RTOL,
                    f"relative error {err:.3g} > {LOSS_RTOL}")

    def golden_restore(self) -> None:
        want = np.array(self.golden()["restored"])
        self.close("golden.restored", golden_restored(), want, IMAGE_ATOL)


def golden_train_losses() -> list[float]:
    """Total loss of 3 weak then 3 distillation steps on the golden seed."""
    from workloads import Ops, train_measure, train_setup

    st = train_setup(GOLDEN_SEED, tiny=True)
    m = train_measure(st, float("inf"), Ops(), distill_steps=3)
    return m.outputs["losses"]


def golden_restored() -> np.ndarray:
    """The first two images ``restore-batch`` restores on the golden seed."""
    from turbdiff import diffusion, rng
    from workloads import T1, batch_setup

    st = batch_setup(GOLDEN_SEED, tiny=True)
    out, _ = diffusion.restore_batched(diffusion.to_signed(st.strong[:2]),
                                       st.fn, st.sched, T1,
                                       rng.Rng(GOLDEN_SEED), batch_size=st.chunk)
    return diffusion.to_unit(out)


def record() -> None:
    data = {"seed": GOLDEN_SEED,
            "train_losses": [float(v) for v in golden_train_losses()],
            "restored": np.round(golden_restored(), 7).tolist()}
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(data, f)
        f.write("\n")
    print(f"wrote {GOLDEN}")

