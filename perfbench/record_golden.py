"""Record the output digests that gate the benchmark's correctness check.

    python3 perfbench/record_golden.py

Run from the root of a source checkout.  Writes ``perfbench/golden.json``:
for every all-positive datum of every workload and scale, the digest of its
self-test report (verify), of its ``table`` output (export) and of the
output of every request in its query pools (query).  Re-record only when a
change is meant to alter those outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DIGESTED_KINDS = ("shift", "pair", "cup", "triple", "sectors", "basis")


def main() -> int:
    sys.path.insert(0, str(SRC))
    import crring

    ctx = wl.Context(api=crring, golden={})
    work = BENCH / ".work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    golden = {"verify": {}, "export": {}, "query": {}}
    try:
        for (workload, _scale), data in sorted(wl.DATA.items()):
            for name, doc in sorted(data.items()):
                if not wl.gated(doc):
                    continue
                vd = crring.validate_datum(crring.datum_from_doc(doc))
                path = work / f"{name}.datum"
                path.write_text(json.dumps(doc))
                if workload == "verify":
                    report = crring.run_selftest(vd)
                    assert report.passed, name
                    golden["verify"][name] = wl.digest(wl.selftest_text(report))
                elif workload == "export":
                    out = work / f"{name}.table.json"
                    assert crring.cli.main(["table", str(path), "--out", str(out)]) == 0, name
                    golden["export"][name] = wl.digest(out.read_bytes())
                else:
                    record_queries(ctx, golden["query"], name, vd, path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print({section: len(entries) for section, entries in golden.items()})
    return 0


def record_queries(ctx, out: dict, name: str, vd, path: Path) -> None:
    pools = wl.request_pools(name, vd)
    for kind in DIGESTED_KINDS:
        for tail in pools[kind]:
            variants = [tail]
            if kind == "triple":
                variants = [["triple", "--method", m, *tail] for m in ("direct", "localization")]
                variants.append(["wallcross", *tail])
            outputs = {}
            for argv_tail in variants:
                code, text, err = wl.capture_main(ctx, [argv_tail[0], str(path), *argv_tail[1:]])
                assert code == 0, (name, argv_tail, err)
                key = wl.request_key(name, argv_tail)
                assert outputs.setdefault(key, text) == text, ("paths disagree", name, argv_tail)
                out[key] = wl.digest(text)


if __name__ == "__main__":
    sys.exit(main())
