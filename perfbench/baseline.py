"""Runs every workload over several seeds, traced and untraced, and writes
the results file.

    python3 perfbench/baseline.py [--out perfbench/results/baseline.json]

Run it from the root of a turbdiff checkout, on an otherwise idle machine.
Each run is a fresh ``perfbench/run.py`` process.  Every workload runs on
``SEEDS`` seeds from ``FIRST_SEED``; the first ``TRACED`` of them also get
a traced run, right after the untraced run of the same seed.  For every
end-to-end metric the file holds the values of all runs, their median and
quartiles, and the spread (third minus first quartile, over the median)
next to the metric's bound in ``BENCHMARK.json``.  The traced runs add the
per-layer metrics and the self time of every span per operation (medians
over the traced runs), and the tracing overhead: for each traced seed, the
traced result minus the untraced one of the same seed, and the median of
those differences.  Next to it stands the tracer's own cost per operation
as the traced run estimates it (spans per operation times the cost of one
empty wrapped call).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FIRST_SEED, SEEDS, TRACED = 100, 10, 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}:\n"
                           f"{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
    out = {"result": json.loads(lines[-1]), "wall_s": wall, "self_ms": {},
           "detail": {}}
    for line in lines:
        if line.startswith("machine: "):
            out["machine"] = json.loads(line[len("machine: "):])
        elif line.startswith("traced: "):
            out["traced"] = json.loads(line[len("traced: "):])
        elif line.startswith("detail: "):
            name, value, _ = line[len("detail: "):].split()
            out["detail"][name] = float(value)
        elif line.startswith("self: "):
            name, ms = line[len("self: "):].split()[:2]
            out["self_ms"][name] = float(ms)
    return out


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=os.path.join(HERE, "results", "baseline.json"))
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(FIRST_SEED, FIRST_SEED + SEEDS))

    doc = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        runs, traced = [], []
        for i, s in enumerate(seeds):
            runs.append(run_once(w, s, seconds, 0))
            if i < TRACED:
                traced.append(run_once(w, s, seconds, 1))
        doc["machine"] = runs[0]["machine"]
        e2e = {}
        for name, bound in bounds.items():
            st = stats([r["result"]["metrics"][name]["value"] for r in runs])
            st["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            st["bound"] = bound
            e2e[name] = st
            print(f"{w:15s} {name:12s} median {st['median']:12.5g} "
                  f"spread {st['spread']:.4f} (bound {bound})", flush=True)
        detail = {name: stats([r["detail"][name] for r in runs])
                  for name in runs[0]["detail"]}

        def med(rows):
            return {k: statistics.median(r[k] for r in rows) for k in rows[0]}

        # traced minus untraced, seed by seed (runs[i] and traced[i] share it)
        pairs = [({k: v["value"] for k, v in t["traced"].items()},
                  {k: v["value"] for k, v in r["result"]["metrics"].items()})
                 for t, r in zip(traced, runs)]
        busy = [(t["detail"]["busy_ms_per_op"], r["detail"]["busy_ms_per_op"])
                for t, r in zip(traced, runs)]
        cost = statistics.median(t["detail"]["trace.cost_ms_per_op"] for t in traced)
        busy_overhead = statistics.median(bt - bu for bt, bu in busy)
        doc["workloads"][w] = {
            "end_to_end": e2e,
            "detail": detail,
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "traced": {
                "seeds": seeds[:TRACED],
                "per_layer": med([{k: v["value"] for k, v in
                                   t["result"]["metrics"].items()} for t in traced]),
                "self_ms_per_op": med([t["self_ms"] for t in traced]),
                "end_to_end": med([t for t, _ in pairs]),
                "overhead": {k: statistics.median(t[k] - u[k] for t, u in pairs)
                             for k in pairs[0][0]},
                # the self times of all spans add up to the traced busy time
                # per operation; its untraced counterpart is the same seed's
                "busy_ms_per_op_pairs": busy,
                "busy_overhead_ms_per_op": busy_overhead,
                "trace_cost_ms_per_op": cost,
            },
        }
        print(f"{w:15s} busy ms/op traced - untraced, same seed: "
              f"{busy_overhead:+.3f} (tracer cost estimate {cost:.3f})", flush=True)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
