"""turbdiff benchmark: runs one workload in this process and prints its
metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a turbdiff checkout; the program is imported from
``src/`` there.  Workloads: ``train``, ``restore-batch``, ``restore-single``
and ``gen-data`` (see ``workloads.py``).  The seed makes the inputs; the run
measures for about ``--seconds``.  Set-up is timed in two windows, one
before and one after the measured phase (see ``SETUP_REPEATS``), and the
fastest set-up is reported: on a shared host a slow phase can last several
seconds, and the fastest of samples taken half a minute apart is the
figure that moves least between runs.

Output: a ``machine:`` line (CPU, caches, library versions, BLAS threads),
the sample counts, ``detail:`` lines with the workload's own figures under
their own names (``train.distill.step_ms.p90``, ...), a ``metrics:`` table,
then, as the last line, one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``.  With ``--trace 1`` the run
installs the span tracer, writes every span to
``.bench_out/spans-<workload>-<seed>.csv``, prints the self time of every
span name per operation (``self:`` lines), its end-to-end figures,
tracing overhead included (``traced:`` line), and the tracer's own
estimated cost per operation (``detail: trace.cost_ms_per_op``), and
reports the per-layer metrics.  ``attempted`` counts operations plus
correctness checks and ``failed`` the failed ones; the exit code is 0 only
if none failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# One closed-loop client on a 2-core machine: one BLAS thread (two were no
# faster at B=1 or B=64), and the process kept on one CPU, which cut B=1
# request latency by about a tenth against letting it migrate.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# in each of its two windows, set-up runs at least this many times and for
# at least this long
SETUP_REPEATS, SETUP_MIN_S = 3, 2.0
HERE = os.path.dirname(os.path.abspath(__file__))


def prepare() -> None:
    """Pin BLAS threads (before numpy is first imported) and this process
    to its last allowed CPU, and put the checkout's ``src/`` on the import
    path."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "turbdiff", "__init__.py")):
        raise SystemExit("error: no src/turbdiff here; run from the root "
                         "of a turbdiff checkout")
    sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train", "restore-batch", "restore-single", "gen-data"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the self-check")
    return p.parse_args(argv)


def time_setup(setup, args):
    """One window of set-up repeats: their times, and the last state.  The
    tiny self-check runs skip the minimum duration."""
    times, min_s = [], 0.0 if args.tiny else SETUP_MIN_S
    while len(times) < SETUP_REPEATS or sum(times) < min_s:
        t = time.perf_counter()
        state = setup(args.seed, args.tiny)
        times.append(time.perf_counter() - t)
    return times, state


def tracing_cost(tracer, n_ops: int) -> dict:
    """Spans per operation of the measured phase, and the tracer's own cost
    per operation estimated from the cost of one wrapped call that does
    nothing (median of repeated batches): the part of the traced time that
    the untraced run does not spend."""
    from spans import OP, Tracer
    spans = sum(1 for sp in tracer.spans if sp[OP] >= 0)
    probe, n, costs = Tracer(), 2000, []
    noop = probe._wrap_plain("noop", lambda: None)
    for _ in range(15):
        probe.spans.clear()
        t = time.perf_counter()
        for _ in range(n):
            noop()
        costs.append((time.perf_counter() - t) / n)
    cost_ms = 1e3 * sorted(costs)[len(costs) // 2]
    return {"trace.spans_per_op": (spans / n_ops, "count"),
            "trace.cost_ms_per_op": (spans / n_ops * cost_ms, "ms")}


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    from checks import Checks
    from machine import machine_record
    from report import (end_to_end, peak_rss_mb, per_layer, print_table,
                        self_time_table)
    from spans import Tracer
    from workloads import SCRATCH, WORKLOADS, Ops

    setup, measure, check = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    setup_s, state = time_setup(setup, args)
    m = measure(state, args.seconds, Ops(tracer))
    rss_mb = peak_rss_mb()
    setup_s += time_setup(setup, args)[0]
    if tracer is not None:
        tracer.uninstall()
        m.detail.update(tracing_cost(tracer, m.attempted))
    checks = Checks()
    check(state, m, checks)

    attempted = m.attempted + checks.count
    failed = m.failed + len(checks.failures)
    e2e = end_to_end(m, setup_s, rss_mb, attempted, failed)
    print("machine: " + json.dumps(machine_record(BLAS_THREADS, THREAD_VARS)))
    print(f"samples: {len(m.op_s)} op_ms samples, {m.attempted} operations, "
          f"{checks.count} checks")
    m.detail["busy_ms_per_op"] = (1e3 * m.measured_s / m.attempted, "ms")
    for name, (value, unit) in m.detail.items():
        print(f"detail: {name} {value:.6g} {unit}")
    for msg in checks.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if tracer is not None:
        out = os.path.join(SCRATCH,
                           f"spans-{args.workload}-{args.seed}.csv")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tracer.write_csv(out)
        print("traced: " + json.dumps(e2e))
        for name, ms in self_time_table(tracer, m.attempted):
            print(f"self: {name:34s} {ms:12.4f} ms/op")
        metrics = per_layer(tracer, m.attempted)
    else:
        metrics = e2e
    print_table(metrics)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
