"""crring benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify|export|query --seed N \
        --seconds S --trace 0|1 [--scale full|tiny]

Run it from the root of a source checkout; it imports ``crring`` from
``src/`` and fails (exit 2, no result) when that is missing.  The run:

1. writes the seed's datum files under ``perfbench/.work/``;
2. sets up: imports ``crring`` afresh and validates every datum once;
3. checks the hand values, runs one untimed warm-up pass, then repeats whole
   passes until ``--seconds`` have elapsed.  Between passes it sets up
   again, measured and undone, spreading SETUP_REPS set-ups over the run,
   and reports their median as ``setup_s``.  Every timed op and set-up is
   bracketed by a fixed reference kernel, and its time is scaled to the
   host speed at which that kernel takes REF_NOMINAL_S (see README.md).
   With ``--trace 1`` it alternates untraced and traced passes instead and
   reports per-layer metrics per traced pass;
4. checks every op's output, writes a result file under
   ``perfbench/results/`` and prints, as the last line of stdout, one JSON
   object with the keys correct, attempted, failed and metrics.

One process, no threads, no subprocesses.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracer as tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 13
# host-speed reference: fixed exact-rational arithmetic on the standard
# library's Fraction, the number type crring's hot loops use, touching no
# crring code
REF_LOOPS = 200
REF_NOMINAL_S = 1e-3


def reference() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REF_LOOPS):
        total = (total + Fraction(1, i % 9 + 1)) % 5
    return time.perf_counter() - start


def scaled(seconds: float, refs: list[float]) -> float:
    """A time taken between the reference samples ``refs``, scaled to the
    nominal host speed at which the kernel takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / statistics.median(refs)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=wl.SCALES,
                        help="tiny runs a handful of small data (smoke test)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# -- run metadata ------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout read from .git without starting git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of src/crring/*.py, naming the code measured when git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "crring").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:20]


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


# -- set-up ------------------------------------------------------------------------


def fresh_import():
    for key in [k for k in sys.modules if k == "crring" or k.startswith("crring.")]:
        del sys.modules[key]
    api = importlib.import_module("crring")
    importlib.import_module("crring.cli")
    return api


def setup(workload: str, docs: dict, paths: dict):
    """Import crring afresh and validate every datum once.  Returns the
    package, the validated data and the seconds it took."""
    start = time.perf_counter()
    api = fresh_import()
    if workload == "verify":
        vds = {name: api.validate_datum(api.datum_from_doc(doc)) for name, doc in docs.items()}
    else:
        vds = {
            name: api.validate_datum(api.datum_from_doc(json.loads(Path(paths[name]).read_text())))
            for name in docs
        }
    seconds = time.perf_counter() - start
    if Path(api.__file__).resolve().parent != (SRC / "crring").resolve():
        raise RuntimeError(f"imported crring from {api.__file__}, not from {SRC}")
    return api, vds, seconds


def timed_setup(workload: str, docs: dict, paths: dict):
    """``setup`` between two reference samples before and one after; returns
    the package, the validated data and the raw and scaled seconds."""
    before = [reference(), reference()]
    api, vds, seconds = setup(workload, docs, paths)
    return api, vds, (seconds, scaled(seconds, before + [reference()]))


def repeat_setup(workload: str, docs: dict, paths: dict) -> tuple[float, float]:
    """One more timed set-up between timed passes, then undone: the ops keep
    the package they were built with, and the discarded copy is collected
    here rather than during an op."""
    kept = {k: m for k, m in sys.modules.items() if k == "crring" or k.startswith("crring.")}
    try:
        return timed_setup(workload, docs, paths)[2]
    finally:
        for key in [k for k in sys.modules if k == "crring" or k.startswith("crring.")]:
            del sys.modules[key]
        sys.modules.update(kept)
        gc.collect()


# -- passes ------------------------------------------------------------------------


class Tally:
    """Latencies of timed ops, scaled to the nominal host speed, one list per
    timed pass; their raw latencies; and the outcome of every checked op."""

    def __init__(self):
        self.passes: list[list[float]] = []
        self.raw_passes: list[list[float]] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, ops, ctx, timed: bool) -> float:
        """Run one pass; returns the summed raw latency of its ops.  In a
        timed pass the reference kernel runs before every op and after the
        last, and each op is scaled by the median of the three samples
        nearest to it."""
        tracer = ctx.tracer
        raw, refs = [], []
        for op in ops:
            self.attempted += 1
            if timed:
                refs.append(reference())
            start = time.perf_counter()
            try:
                result = tracer.run_op(op.run) if tracer is not None else op.run()
            except Exception as exc:  # an unexpected exception is a failed op
                error = f"{op.name}: {type(exc).__name__}: {exc}"
                result = None
            else:
                error = None
            raw.append(time.perf_counter() - start)
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"{op.name}: check raised {type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append(error)
        if timed:
            refs.append(reference())
            self.raw_passes.append(raw)
            self.passes.append([
                scaled(t, refs[max(0, i - 1): i + 2]) for i, t in enumerate(raw)
            ])
        return sum(raw)


def tail_percentile(samples: list[float], level: float) -> tuple[float, int]:
    """Nearest-rank value at ``level`` and how many samples lie above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(level / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timing_metrics(passes: list[list[float]], setups: list[float], level: float) -> dict:
    """The timed end-to-end metrics from per-pass op latencies and set-up
    times, all in seconds."""
    latencies = [t for timings in passes for t in timings]
    # each op's median latency over the timed passes; op_p50_ms is the median
    # of those (see README.md: a median of single samples jumps between data)
    op_medians = [statistics.median(timings) for timings in zip(*passes)]
    return {
        "setup_s": (statistics.median(setups), "s"),
        # timed ops over their summed latency: the benchmark's own checks
        # and reference samples between ops are not counted
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(op_medians) * 1e3, "ms"),
        "op_tail_ms": (tail_percentile(latencies, level)[0] * 1e3, "ms"),
    }


def build_ops(args, ctx, docs, paths, vds, work: Path):
    if args.workload == "verify":
        return wl.verify_ops(ctx, docs, vds)
    if args.workload == "export":
        return wl.export_ops(ctx, docs, paths, work)
    pools = {name: wl.request_pools(name, vds[name]) for name in docs}
    block = wl.query_block(random.Random(f"query:{args.seed}"), pools)
    return wl.query_ops(ctx, docs, paths, block)


def measure(args, work: Path) -> tuple[dict, object]:
    docs = wl.workload_data(args.workload, args.scale, args.seed)
    paths = {}
    if args.workload != "verify":
        for name, doc in docs.items():
            paths[name] = work / f"{name}.datum"
            paths[name].write_text(json.dumps(doc, indent=2) + "\n")
    hand_paths = {}
    for name in {entry[0] for entry in wl.HAND}:
        hand_paths[name] = work / f"hand_{name}.datum"
        hand_paths[name].write_text(json.dumps(wl.DEMOS[name], indent=2) + "\n")

    golden = json.loads((BENCH / "golden.json").read_text())
    # Move the benchmark's own static objects (recorded digests, datum
    # documents) to the permanent generation before crring is imported: a
    # full collection during an op would otherwise traverse them, a cost no
    # CLI process pays.  crring's own long-lived objects (modules, validated
    # data, per-datum caches) stay in the normal generations.
    gc.collect()
    gc.freeze()
    api, vds, first_setup = timed_setup(args.workload, docs, paths)
    setup_times = [first_setup]
    ctx = wl.Context(api=api, golden=golden)
    ops = build_ops(args, ctx, docs, paths, vds, work)
    tally = Tally()
    tally.run(wl.hand_ops(ctx, hand_paths), ctx, timed=False)
    tally.run(ops, ctx, timed=False)  # warm-up: fills per-datum caches

    tracer = tracing.Tracer() if args.trace else None
    untraced_s = traced_s = 0.0
    traced_passes = 0
    start = time.perf_counter()
    while True:
        untraced_s += tally.run(ops, ctx, timed=True)
        if tracer is None:
            # set-up is measured again between passes, spread evenly over the
            # run, so that its median spans the host's states as the ops do
            share = min(1.0, (time.perf_counter() - start) / args.seconds)
            while len(setup_times) < 1 + (SETUP_REPS - 1) * share:
                setup_times.append(repeat_setup(args.workload, docs, paths))
        else:
            ctx.tracer = tracer
            tracer.install()
            try:
                traced_s += tally.run(ops, ctx, timed=False)
            finally:
                tracer.uninstall()
                ctx.tracer = None
            traced_passes += 1
        if time.perf_counter() - start >= args.seconds:
            break

    latencies = [t for timings in tally.passes for t in timings]
    level = wl.TAIL_LEVEL[args.workload]
    tail, beyond = tail_percentile(latencies, level)
    fail_ratio = len(tally.failures) / tally.attempted
    report = {
        "meta": metadata(args),
        "ops_per_pass": len(ops),
        "timed_passes": len(tally.passes),
        "timed_ops": len(latencies),
        "pass_op_seconds": [sum(timings) for timings in tally.passes],
        "pass_latencies_ms": [[t * 1e3 for t in timings] for timings in tally.passes],
        # as timed, before scaling to the nominal host speed
        "raw_pass_op_seconds": [sum(timings) for timings in tally.raw_passes],
        "raw_pass_latencies_ms": [[t * 1e3 for t in timings] for timings in tally.raw_passes],
        "op_names": [op.name for op in ops],
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "fail_ratio": fail_ratio,
        "failures": tally.failures[:20],
        "op_tail": {"percentile": level, "samples": len(latencies), "samples_above": beyond},
        "setup_s_reps": [scaled_s for _, scaled_s in setup_times],
        "raw_setup_s_reps": [raw_s for raw_s, _ in setup_times],
        "ungated_digest": wl.digest(json.dumps(sorted(ctx.ungated.items()))),
    }
    if tracer is None:
        report["metrics"] = {
            **timing_metrics(tally.passes, report["setup_s_reps"], level),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": (1 - fail_ratio, "ratio"),
        }
        report["raw_metrics"] = {
            name: value for name, (value, _) in
            timing_metrics(tally.raw_passes, report["raw_setup_s_reps"], level).items()
        }
    else:
        op_ns = tracer.total_ns.get("op", 0)
        report["metrics"] = tracer.layer_metrics(traced_passes, op_ns, traced_s / untraced_s)
        report["traced_passes"] = traced_passes
        report["layer_self_share"] = tracer.layer_shares(op_ns)
        report["spans_per_pass"] = {
            name: {key: value / traced_passes for key, value in row.items()}
            for name, row in tracer.span_table().items()
        }
        report["spans_file"] = f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    return report, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crring" / "__init__.py").is_file():
        print(f"run.py: no crring sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    results = BENCH / "results"
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report, tracer = measure(args, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write_spans(results / report["spans_file"])
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in report["metrics"].items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=2) + "\n")

    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for key, metric in report["metrics"].items():
        raw = report.get("raw_metrics", {}).get(key)
        note = "" if raw is None else f"   (unscaled {raw:.6g})"
        print(f"{args.workload:7s} {key:32s} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(
        f"{args.workload:7s} tail = p{report['op_tail']['percentile']:g} of "
        f"{report['op_tail']['samples']} ops ({report['op_tail']['samples_above']} above); fail_ratio {report['fail_ratio']:g} "
        f"({report['failed']}/{report['attempted']}); ungated digest {report['ungated_digest']}; "
        f"result file perfbench/results/{name}"
    )
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
