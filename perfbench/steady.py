"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py

Run from the root of a source checkout.  Each of the two sets runs
``run.py`` ten times on every workload of BENCHMARK.json, every run with its
own seed (1000-1009 in the first set, 2000-2009 in the second), for the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric and workload
it reports each set's median and spread (distance between the first and
third quartile of ``statistics.quantiles(values, n=4)``, as a share of the
median) and how much worse the second set's median is than the first's, and
classifies the pair against the metric's bound:

  agreeing      both spreads within the bound (setup_s exempt) and the
                change of median within the bound;
  disagreeing   spreads within the bound but the change beyond it;
  unresolved    some spread wider than the bound, so the runs cannot tell.

It also marks spreads below a third of the bound, the benchmark's target.
The summary goes to stdout and to ``perfbench/results/steady-<time>.json``.
This tool starts ``run.py`` as child processes one at a time; the load
generator itself stays single-process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (run metadata helpers)

RUNS = 10
SEED_BASE = 1000


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = [sys.executable if arg == "python3" else arg for arg in spec["command"]]
    command += ["--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def classify(spec: dict, values: dict) -> dict:
    """values[workload] -> (first set, second set), each metric -> run values."""
    out = {}
    for workload, (first, second) in values.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = [statistics.median(first[name]), statistics.median(second[name])]
            spreads = [spread(first[name]), spread(second[name])]
            sign = 1 if metric["better"] == "lower" else -1
            worse_by = sign * (medians[1] - medians[0]) / medians[0]
            if name != "setup_s" and any(s > bound for s in spreads):
                verdict = "unresolved"
            elif abs(worse_by) <= bound:
                verdict = "agreeing"
            else:
                verdict = "disagreeing"
            out[f"{workload}/{name}"] = {
                "bound": bound,
                "medians": medians,
                "spreads": spreads,
                "worse_by": worse_by,
                "spread_below_third_of_bound": all(s < bound / 3 for s in spreads),
                "verdict": verdict,
            }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    values = {w: tuple({m["name"]: [] for m in spec["end_to_end"]} for _ in range(2)) for w in workloads}
    failures = 0
    for s in range(2):
        for i in range(RUNS):
            for workload in workloads:
                seed = SEED_BASE * (s + 1) + i
                result = run_once(spec, workload, seed)
                failures += result["failed"]
                for name, metric in result["metrics"].items():
                    values[workload][s][name].append(metric["value"])
                print(f"set {s} run {i} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                      flush=True)

    summary = classify(spec, values)
    for key, row in summary.items():
        print(f"{key:28s} {row['verdict']:12s} spreads "
              + " ".join(f"{s:.3f}" for s in row["spreads"])
              + f" (bound {row['bound']}, below a third: {row['spread_below_third_of_bound']})"
              + f" worse_by {row['worse_by']:+.3f}")
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    meta = run.metadata(argparse.Namespace(
        workload=workloads, seed=SEED_BASE, seconds=spec["run_seconds"], trace=0, scale="full"))
    out.write_text(json.dumps({"meta": meta, "runs": RUNS, "failed_ops": failures,
                               "values": values, "summary": summary}, indent=2) + "\n")
    print(f"failed ops: {failures}; summary in {out.relative_to(ROOT)}")
    return 0 if failures == 0 and all(r["verdict"] == "agreeing" for r in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
