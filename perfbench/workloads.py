"""Inputs, ops and correctness checks of the three workloads.

verify  one op is ``run_selftest`` on one validated datum (warm per-datum caches)
export  one op is ``crring table --out`` through ``cli.main``, then a re-parse
        with ``table_from_doc`` and a re-emit that must be byte-identical
query   one op is one in-process ``cli.main(argv)`` point request; every
        request re-reads and re-validates its datum file

Every workload is a closed loop: one client, one process, no threads.  A
pass is the workload's fixed list of ops for the seed; the benchmark repeats
whole passes.

What the seed changes.  ``verify`` and ``export`` apply a seeded coordinate
permutation to every datum (``verify`` also rescales each finite factor's
phases by a seeded unit) and run the data in a seeded order.  These
relabelings describe the same quotient, so they leave the outputs unchanged
and one recorded digest per base datum gates every seed.  They move the cost
of a single datum somewhat (see README.md), far less than a fresh draw of
data would.  ``query`` draws its
requests by seed from fixed per-datum pools whose outputs are recorded.

What is not covered (see README.md):
- outputs on mixed-sign data and in the negative chamber are checked for
  self-consistency only; their digest is reported, not gated, because the
  known chamber defects will change them when fixed;
- ``query`` generates no request with an eta power outside [0, dim] and no
  localized request on a label with an empty fixed set, because the correct
  output of those is not settled.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Callable


def datum_doc(weights, finite=(), chamber="positive") -> dict:
    return {
        "n": len(weights),
        "weights": list(weights),
        "finite": [{"order": order, "phases": list(phases)} for order, phases in finite],
        "chamber": chamber,
    }


# copies of demos/data/*.datum, kept here so that the recorded digests do
# not depend on files outside the benchmark
DEMOS = {
    "wp112": datum_doc((1, 1, 2)),
    "wp122333": datum_doc((1, 2, 2, 3, 3, 3)),
    "z3_on_p2": datum_doc((1, 1, 1), [(3, (0, 1, 2))]),
    "wall_11m1": datum_doc((1, 1, -1)),
}
NEGATIVE = {"neg_122": datum_doc((-1, -2, -2), chamber="negative")}
SPREAD = {
    "P1to7": datum_doc((1, 2, 3, 4, 5, 6, 7)),
    "P3to13": datum_doc((3, 5, 7, 11, 13)),
}
# drawn once with the generator of acceptance criterion 6 (n <= 6, weights
# 1..9, one cyclic factor of order 2..5), keeping data of basis size <= 60
CRITERION6 = {
    f"c6_{i:02d}": datum_doc(w)
    for i, w in enumerate(
        [(9, 1), (1, 7, 2, 1), (3, 4, 7), (2, 9, 2, 5), (9, 7, 5), (3, 8, 5, 7, 1),
         (3, 7, 4, 5, 4, 3), (6, 5, 8, 8), (4, 4, 9, 6, 5), (8, 4, 7, 5, 8, 3)]
    )
}
CRITERION6_FINITE = {
    f"c6f_{i:02d}": datum_doc(w, [f])
    for i, (w, f) in enumerate(
        [((3, 7, 1, 2), (2, (1, 0, 0, 0))), ((1, 2, 4, 1, 7), (2, (0, 0, 0, 1, 1))),
         ((1, 2, 4, 7), (3, (2, 1, 1, 2))), ((1, 5, 4), (4, (1, 2, 2))),
         ((7, 4), (5, (1, 3))), ((3, 8, 7, 1), (2, (1, 1, 1, 1)))]
    )
}


def ladder(*tops: int) -> dict:
    return {f"P1_{w}": datum_doc((1, w)) for w in tops}


def _pick(table: dict, *names: str) -> dict:
    return {name: table[name] for name in names}


C6F = CRITERION6_FINITE
DATA = {
    ("verify", "full"): {
        **ladder(10, 25, 50, 100), **SPREAD, **DEMOS, **NEGATIVE, **CRITERION6,
        **_pick(C6F, "c6f_00", "c6f_01", "c6f_02", "c6f_03"),
    },
    ("verify", "tiny"): {**DEMOS, **ladder(10), **_pick(CRITERION6, "c6_00"), **_pick(C6F, "c6f_00")},
    ("export", "full"): {
        **ladder(25, 50, 75, 100), **SPREAD, **_pick(DEMOS, "z3_on_p2"), **C6F,
    },
    ("export", "tiny"): {**ladder(25), **_pick(DEMOS, "z3_on_p2"), **_pick(C6F, "c6f_00")},
    ("query", "full"): {
        **DEMOS, **NEGATIVE, **ladder(50, 200), **SPREAD, **_pick(C6F, "c6f_03"),
    },
    ("query", "tiny"): {**DEMOS, **NEGATIVE},
}

WORKLOADS = ("verify", "export", "query")
SCALES = ("full", "tiny")

# hand values: (datum, argv after the datum path, expected "value")
HAND = (
    ("wp122333", ["triple", "--method", "direct", "--t1", "c=1/3", "--t2", "c=1/3", "--t3", "c=1/3"], "4/27"),
    ("wp122333", ["triple", "--method", "localization", "--t1", "c=1/3", "--t2", "c=1/3", "--t3", "c=1/3"], "4/27"),
    ("wp112", ["triple", "--method", "direct", "--t1", "c=1/2", "--t2", "c=1/2", "--t3", "c=0"], "1/2"),
    ("wp112", ["triple", "--method", "localization", "--t1", "c=1/2", "--t2", "c=1/2", "--t3", "c=0"], "1/2"),
    ("wall_11m1", ["wallcross", "--t1", "c=0", "--k1", "1", "--t2", "c=0", "--k2", "1", "--t3", "c=0"], "-1"),
)

# per datum and block: how many requests of each kind the query stream draws
QUERY_MIX = (
    ("shift", 2), ("pair", 2), ("cup", 2), ("triple", 2), ("sectors", 1), ("basis", 1),
    ("empty_sector", 1), ("non_composable", 1), ("malformed", 1),
)
POOL_SIZE = 12

# op_tail_ms percentile per workload: a level with at least ten timed samples
# above it in a run of BENCHMARK.json's length that falls inside one datum's
# latencies rather than between two.  It is fixed, not picked per run,
# because a pass mixes data of very different cost: a level that moved with
# the number of passes would jump from one datum's latency to another's
# (export at p90 vs p80: P(1,75) vs P(1,50)).  verify's p94 lies within
# P(1,50); its p90 lay between P(1,50) and the 0.2 s data.
TAIL_LEVEL = {"verify": 94.0, "export": 90.0, "query": 99.5}


def gated(doc: dict) -> bool:
    """Outputs are gated by recorded digests only on all-positive data."""
    return doc["chamber"] == "positive" and all(w > 0 for w in doc["weights"])


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:20]


def relabeled(doc: dict, rng: random.Random, rescale_units: bool) -> dict:
    """The same quotient with coordinates permuted and, optionally, each
    finite factor's phases multiplied by a unit of its order."""
    order = list(range(doc["n"]))
    rng.shuffle(order)
    finite = []
    for factor in doc["finite"]:
        unit = 1
        if rescale_units:
            unit = rng.choice([u for u in range(1, factor["order"]) if gcd(u, factor["order"]) == 1])
        finite.append(
            {"order": factor["order"], "phases": [unit * factor["phases"][j] % factor["order"] for j in order]}
        )
    return {**doc, "weights": [doc["weights"][j] for j in order], "finite": finite}


def workload_data(workload: str, scale: str, seed: int) -> dict[str, dict]:
    """Datum documents of one run, in the seeded order of the pass."""
    base = DATA[(workload, scale)]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "query":
        return dict(base)
    names = sorted(base)
    rng.shuffle(names)
    return {name: relabeled(base[name], rng, workload == "verify") for name in names}


# -- ops -------------------------------------------------------------------------


@dataclass
class Op:
    """One timed call into the program and the untimed check of its output.

    ``check`` returns None when the output is correct, else a message."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Context:
    """What ops share during a run: the package, the recorded digests, an
    optional tracer and the digests of ungated outputs by request."""

    api: object
    golden: dict
    tracer: object = None
    ungated: dict[str, str] = field(default_factory=dict)

    def span(self, name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.span(name, fn, *args)

    def count(self, name: str, amount: float = 1) -> None:
        if self.tracer is not None:
            self.tracer.count(name, amount)


def capture_main(ctx: Context, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ctx.api.cli.main(argv)
    text = out.getvalue()
    ctx.count("cli.emit_bytes", len(text))
    return code, text, err.getvalue()


def selftest_text(report) -> str:
    return json.dumps([[p.name, p.status, p.detail] for p in report.phases])


def _expect_digest(ctx: Context, section: str, key: str, doc: dict, output) -> str | None:
    if not gated(doc):
        # reported, not gated; a repeated request must still repeat its output
        seen = ctx.ungated.setdefault(key, digest(output))
        return None if seen == digest(output) else f"output of {key} changed between repeats"
    expected = ctx.golden[section].get(key)
    if expected is None:
        return f"no recorded digest for {key}"
    if digest(output) != expected:
        return f"output digest of {key} differs from the recorded one"
    return None


def verify_ops(ctx: Context, docs: dict, vds: dict) -> list[Op]:
    expected_phases = {"ring_axioms", "sector_involution", "obstruction_oracle", "path_agreement"}

    def make(name: str) -> Op:
        vd, doc = vds[name], docs[name]

        def check(report) -> str | None:
            if not report.passed:
                failed = [(p.name, p.detail) for p in report.phases if p.status == "fail"]
                return f"selftest failed on {name}: {failed}"
            if gated(doc):
                statuses = {p.name: p.status for p in report.phases}
                if set(statuses) != expected_phases or statuses["path_agreement"] != "pass":
                    return f"selftest phases on {name}: {statuses}"
            return _expect_digest(ctx, "verify", name, doc, selftest_text(report))

        return Op(f"verify {name}", lambda: ctx.api.run_selftest(vd), check)

    return [make(name) for name in docs]


def export_ops(ctx: Context, docs: dict, paths: dict, work: Path) -> list[Op]:
    def reparse(emitted: bytes):
        return ctx.api.table_from_doc(json.loads(emitted))

    def reemit(table) -> bytes:
        return (json.dumps(ctx.api.table_to_doc(table), indent=2) + "\n").encode()

    def make(name: str) -> Op:
        path, out = str(paths[name]), work / f"{name}.table.json"

        def run():
            code = ctx.api.cli.main(["table", path, "--out", str(out)])
            emitted = out.read_bytes()
            ctx.count("cli.emit_bytes", len(emitted))
            table = ctx.span("cli.reparse", reparse, emitted)
            return code, emitted, ctx.span("cli.reemit", reemit, table)

        def check(result) -> str | None:
            code, emitted, reemitted = result
            if code != 0:
                return f"table on {name} exited {code}"
            if emitted != reemitted:
                return f"re-emitted table of {name} is not byte-identical"
            return _expect_digest(ctx, "export", name, docs[name], emitted)

        return Op(f"export {name}", run, check)

    return [make(name) for name in docs]


# -- query requests -----------------------------------------------------------------


def label_flag(label) -> str:
    text = f"c={label.c}"
    if label.finite:
        text += ",a=" + ":".join(str(a) for a in label.finite)
    return text


def _primes_above(bound: int, count: int) -> list[int]:
    primes, q = [], bound + 1
    while len(primes) < count:
        if q > 1 and all(q % d for d in range(2, int(q**0.5) + 1)):
            primes.append(q)
        q += 1
    return primes


def request_pools(name: str, vd) -> dict[str, list[list[str]]]:
    """Per-kind pools of requests on one datum, as argv tails after the datum
    path.  Pools are drawn from a fixed seed over the sectors sorted by label,
    so they do not depend on the order the program lists sectors in."""
    sectors = sorted(vd.sectors(), key=lambda s: (s.label.c, s.label.finite))
    info = {s.label: s for s in sectors}
    identity = vd.identity()
    pools: dict[str, list[list[str]]] = {}

    def sector_k(rng):
        s = rng.choice(sectors)
        return s.label, rng.randint(0, s.dim)

    def flags(index: int, label, k: int | None) -> list[str]:
        out = [f"--t{index}", label_flag(label)]
        return out if k is None else out + [f"--k{index}", str(k)]

    def composable(rng):
        while True:
            (t1, k1), (t2, k2) = sector_k(rng), sector_k(rng)
            t3 = vd.inverse(vd.compose(t1, t2))
            if t3 in info:
                return flags(1, t1, k1) + flags(2, t2, k2) + flags(3, t3, rng.randint(0, info[t3].dim))

    def draw(kind: str, make) -> None:
        rng = random.Random(f"pool:{name}:{kind}")
        pools[kind] = [make(rng) for _ in range(POOL_SIZE)]

    draw("shift", lambda rng: ["shift", "--t", label_flag(rng.choice(sectors).label)])

    def pair(rng):
        t1, k1 = sector_k(rng)
        if rng.random() < 0.5:
            t2 = vd.inverse(t1)
            return ["pair", *flags(1, t1, k1), *flags(2, t2, info[t2].dim - k1)]
        return ["pair", *flags(1, t1, k1), *flags(2, *sector_k(rng))]

    draw("pair", pair)
    draw("cup", lambda rng: ["cup", *flags(1, *sector_k(rng)), *flags(2, *sector_k(rng))])
    draw("triple", composable)
    pools["sectors"] = [["sectors"]]
    pools["basis"] = [["basis"]]

    weights = vd.weights
    primes = _primes_above(max(abs(w) for w in weights), 8)

    def empty_sector(rng):
        # c = 1/q with q a prime above every |w_j| fixes no coordinate
        some = label_flag(rng.choice(sectors).label)
        return ["triple", "--method", "direct", "--t1", f"c=1/{rng.choice(primes)}", "--t2", some, "--t3", some]

    draw("empty_sector", empty_sector)

    labels = [s.label for s in sectors]
    if len(labels) > 1:

        def non_composable(rng):
            while True:
                t1, t2, t3 = (rng.choice(labels) for _ in range(3))
                if vd.compose(t1, vd.compose(t2, t3)) != identity:
                    return ["triple", "--method", "localization",
                            "--t1", label_flag(t1), "--t2", label_flag(t2), "--t3", label_flag(t3)]

        draw("non_composable", non_composable)

    malformed_flags = ["c=1/0", "c=one", "x=1/2", "c=1/2,b=1", "c=1/2,a=1,a=2", "c=1/2,a=1:1:1:1:1:1"]

    def malformed(rng):
        bad = rng.choice(malformed_flags)
        return rng.choice([["shift", "--t", bad], ["pair", "--t1", bad, "--t2", "c=0"], ["cup", "--t1", "c=0", "--t2", bad]])

    draw("malformed", malformed)
    return pools


def request_key(name: str, tail: list[str]) -> str:
    """Digest key of a request; both triple methods share one key."""
    if tail[0] == "triple":
        tail = ["triple"] + tail[3:]
    return " ".join([name, *tail])


def query_block(rng: random.Random, pools_by_datum: dict) -> list[tuple[str, str, list[str]]]:
    """One block of (datum, kind, argv tail) requests; a triple draw becomes
    the group direct, localization, wallcross on the same labels."""
    groups = []
    for name, pools in pools_by_datum.items():
        for kind, count in QUERY_MIX:
            pool = pools.get(kind)
            for _ in range(count if pool else 0):
                tail = rng.choice(pool)
                if kind == "triple":
                    groups.append([
                        (name, "triple", ["triple", "--method", "direct", *tail]),
                        (name, "triple", ["triple", "--method", "localization", *tail]),
                        (name, "wallcross", ["wallcross", *tail]),
                    ])
                else:
                    groups.append([(name, kind, tail)])
    rng.shuffle(groups)
    return [request for group in groups for request in group]


def _value(text: str, kind: str):
    doc = json.loads(text)
    return doc["value"] if kind == "wallcross" else doc


def query_ops(ctx: Context, docs: dict, paths: dict, block) -> list[Op]:
    refusals = {"empty_sector": "EmptySector", "non_composable": "NonComposable"}
    agreement: dict[str, object] = {}

    def make(name: str, kind: str, tail: list[str]) -> Op:
        argv = [tail[0], str(paths[name]), *tail[1:]]
        key = request_key(name, tail)
        label = " ".join([name, *tail])

        def check(result) -> str | None:
            code, out, err = result
            if kind in refusals:
                if code != 1 or not err.startswith(refusals[kind] + ":"):
                    return f"{label}: expected {refusals[kind]}, got exit {code} {err[:80]!r}"
                return None
            if kind == "malformed":
                return None if code == 2 else f"{label}: expected exit 2, got {code}"
            if code != 0:
                return f"{label}: exit {code} {err[:80]!r}"
            if kind in ("triple", "wallcross"):
                value = _value(out, kind)
                slot = " ".join(tail[3:] if tail[0] == "triple" else tail[1:])
                if tail[0] == "triple" and tail[2] == "direct":
                    agreement[slot] = value
                elif agreement.get(slot) != value:
                    return f"{label}: {value} disagrees with the direct path {agreement.get(slot)}"
            else:
                json.loads(out)
            return _expect_digest(ctx, "query", key, docs[name], out)

        return Op(f"query {label}", lambda: capture_main(ctx, argv), check)

    return [make(*request) for request in block]


def hand_ops(ctx: Context, paths: dict) -> list[Op]:
    """The hand-computed values, checked in every workload."""

    def make(name: str, tail: list[str], expected: str) -> Op:
        argv = [tail[0], str(paths[name]), *tail[1:]]

        def check(result) -> str | None:
            code, out, err = result
            if code != 0:
                return f"hand value on {name}: exit {code} {err[:80]!r}"
            value = _value(out, tail[0])
            return None if value == expected else f"hand value on {name}: {value} != {expected}"

        return Op(f"hand {name} {' '.join(tail)}", lambda: capture_main(ctx, argv), check)

    return [make(*entry) for entry in HAND]
