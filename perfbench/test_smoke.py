"""Fast smoke test of the benchmark itself, on tiny data.

    python3 perfbench/test_smoke.py        # or: python3 -m pytest perfbench/test_smoke.py

Run from the root of a source checkout; takes about 15 s.  It runs
every workload with ``--scale tiny --seconds 1`` in both trace modes and
checks the output contract, checks that the benchmark refuses to run without
the sources, and checks the statistics helpers on fixed numbers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import steady  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_contract_on_tiny_data():
    for workload in SPEC["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(ROOT, "--workload", workload["name"], "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--scale", "tiny")
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, done.stderr
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if trace == 0:
                assert all(v["value"] != 0 for v in result["metrics"].values())


def test_refuses_without_sources():
    bare = BENCH / ".work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _run(bare, "--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_tail_percentile():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail_percentile(samples, 90.0) == (90.0, 10)
    assert run.tail_percentile(samples * 10, 99.0) == (99.0, 10)
    assert run.tail_percentile([2.0, 1.0], 50.0) == (1.0, 1)


def test_scaling_to_nominal_speed():
    # an op timed while the reference kernel took twice its nominal time ran
    # on a host at half the nominal speed
    nominal = run.REF_NOMINAL_S
    assert run.scaled(0.5, [2 * nominal, 2 * nominal, 9 * nominal]) == 0.25
    assert run.scaled(0.5, [nominal, 3 * nominal]) == 0.25
    assert run.reference() > 0


def test_steadiness_verdicts():
    spec = {"end_to_end": [{"name": "x", "better": "lower", "bound": 0.1}]}
    steady_set = [1.0, 1.01, 0.99, 1.0, 1.02]
    cases = {
        "agreeing": [steady_set, [v * 1.03 for v in steady_set]],
        "disagreeing": [steady_set, [v * 1.5 for v in steady_set]],
        "unresolved": [steady_set, [1.0, 2.0, 0.5, 1.5, 0.7]],
    }
    for verdict, sets in cases.items():
        values = {"w": tuple({"x": s} for s in sets)}
        assert steady.classify(spec, values)["w/x"]["verdict"] == verdict


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
