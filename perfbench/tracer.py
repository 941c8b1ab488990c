"""Spans around the public entry points of each ``crring`` layer.

The traced run wraps functions and methods of the imported package at run
time; nothing under ``src/`` is edited.  Every wrapped call records a span
(name, start, end, parent, op id).  Spans are kept in memory, aggregated as
they close (calls, inclusive time, self time = duration minus the time of
child spans), and written out when the run ends.  Hooks attached to some
entry points count work where it happens: sectors found, nonzero products,
nonzero triples, normal lines and so on.

Layers are the modules of ``src/crring``.  ``table_to_doc``/``table_from_doc``
live in ``crring.ring`` but are serialization, so they are counted in the
``cli`` layer as the layer list of the benchmark defines it.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter_ns

LAYERS = ("quotient", "ring", "localization", "exact", "cli")


def _leading_int(detail: str | None) -> int:
    """The count that starts a passing phase's detail, e.g. '666 composable ...'."""
    head = (detail or "").split(" ", 1)[0]
    return int(head) if head.isdigit() else 0


class Tracer:
    """In-memory span recorder with per-name aggregates and counters."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span id, start ns, child ns]
        self._next_id = 1
        self._op_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        span_id, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((span_id, parent[0] if parent else 0, self._op_id, name, start, end))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child

    def run_op(self, fn):
        """Run one benchmark op as a root span named 'op'."""
        self._op_id += 1
        frame = self._open()
        try:
            return fn()
        finally:
            self._close("op", frame)

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span of the given name."""
        frame = self._open()
        try:
            return fn(*args)
        finally:
            self._close(name, frame)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, name: str, fn, hook):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            frame = open_()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, frame)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_method(self, cls, attr: str, name: str, hook=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, hook))

    def wrap_function(self, modules, owner, attr: str, name: str, hook=None) -> None:
        """Wrap a module-level function in every module that imported it."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = self._wrapper(name, original, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        """Wrap the public entry points of every layer of the imported package."""
        modules = [m for key, m in sys.modules.items() if key == "crring" or key.startswith("crring.")]
        quotient, ring, localization, exact, cli = (
            sys.modules[f"crring.{layer}"] for layer in LAYERS
        )
        basis = ring.ChenRuanRing.basis  # unwrapped, for the hooks

        def f(owner, attr, name, hook=None):
            self.wrap_function(modules, owner, attr, name, hook)

        m = self.wrap_method

        f(quotient, "validate_datum", "quotient.validate")
        f(quotient, "datum_from_doc", "quotient.datum_from_doc")
        m(quotient.ValidatedDatum, "sectors", "quotient.sectors", _sectors_hook)
        m(quotient.ValidatedDatum, "sector_info", "quotient.sector_info")

        m(ring.ChenRuanRing, "__init__", "ring.build", _basis_size_hook(basis, "ring.basis_size", 1))
        m(ring.ChenRuanRing, "basis", "ring.basis")
        m(ring.ChenRuanRing, "cup_basis", "ring.cup_basis", _cup_hook)
        m(ring.ChenRuanRing, "cup", "ring.cup")
        m(ring.ChenRuanRing, "pairing", "ring.pairing")
        m(ring.ChenRuanRing, "structure_constants", "ring.table", _table_hook)
        m(ring.ChenRuanRing, "verify_ring_axioms", "ring.axioms", _basis_size_hook(basis, "ring.axioms_iters", 3))

        f(localization, "triple_localized", "localization.triple", _triple_hook)
        f(localization, "wall_crossing_delta", "localization.wallcross")

        f(exact, "collapse", "exact.collapse")
        f(exact, "format_rational", "exact.format")
        f(exact, "parse_rational", "exact.parse")

        f(cli, "main", "cli.main", _main_hook)
        f(cli, "run_selftest", "cli.selftest")
        f(cli, "_involution_phase", "cli.phase_involution")
        f(cli, "_obstruction_phase", "cli.phase_obstruction", _phase_hook("cli.obstruction_lines"))
        f(cli, "_agreement_phase", "cli.phase_agreement", _phase_hook("cli.agreement_triples"))
        f(cli, "_structured", "cli.render")
        f(ring, "table_to_doc", "cli.table_to_doc")
        f(ring, "table_from_doc", "cli.table_from_doc")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, passes: int, op_ns: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced pass, as {name: (value, unit)}."""
        per = max(passes, 1)
        calls = lambda n: self.calls.get(n, 0) / per
        self_s = lambda n: self.self_ns.get(n, 0) / per / 1e9
        total_s = lambda n: self.total_ns.get(n, 0) / per / 1e9
        counter = lambda n: self.counters.get(n, 0) / per
        ratio = lambda a, b: a / b if b else 0.0
        count, sec, rat = "count", "s", "ratio"
        out = {
            "quotient.validate_calls": (calls("quotient.validate"), count),
            "quotient.validate_s": (self_s("quotient.validate"), sec),
            "quotient.sectors_calls": (calls("quotient.sectors"), count),
            "quotient.sectors_s": (self_s("quotient.sectors"), sec),
            "quotient.sectors_found": (counter("quotient.sectors_found"), count),
            "quotient.candidates_computed": (counter("quotient.candidates"), count),
            "quotient.sector_yield": (
                ratio(counter("quotient.sectors_found"), counter("quotient.candidates")), rat),
            "ring.build_calls": (calls("ring.build"), count),
            "ring.build_s": (self_s("ring.build"), sec),
            "ring.basis_size": (counter("ring.basis_size"), count),
            "ring.table_calls": (calls("ring.table"), count),
            "ring.table_s": (self_s("ring.table"), sec),
            "ring.table_products": (counter("ring.table_products"), count),
            "ring.product_density": (
                ratio(counter("ring.table_products"), counter("ring.table_pairs")), rat),
            "ring.pairing_entries": (counter("ring.pairing_entries"), count),
            "ring.axioms_calls": (calls("ring.axioms"), count),
            "ring.axioms_s": (self_s("ring.axioms"), sec),
            "ring.axioms_iters": (counter("ring.axioms_iters"), count),
            "ring.cup_basis_calls": (calls("ring.cup_basis"), count),
            "ring.cup_basis_s": (self_s("ring.cup_basis"), sec),
            "ring.cup_nonzero_ratio": (
                ratio(counter("ring.cup_nonzero"), calls("ring.cup_basis")), rat),
            "localization.triple_calls": (calls("localization.triple"), count),
            "localization.triple_s": (self_s("localization.triple"), sec),
            "localization.triple_us": (
                ratio(total_s("localization.triple") * 1e6, calls("localization.triple")), "us"),
            "localization.nonzero_ratio": (
                ratio(counter("localization.triple_nonzero"), calls("localization.triple")), rat),
            "localization.wallcross_calls": (calls("localization.wallcross"), count),
            "localization.wallcross_s": (self_s("localization.wallcross"), sec),
            "exact.collapse_calls": (calls("exact.collapse"), count),
            "exact.collapse_s": (self_s("exact.collapse"), sec),
            "exact.format_calls": (calls("exact.format"), count),
            "exact.format_s": (self_s("exact.format"), sec),
            "exact.parse_calls": (calls("exact.parse"), count),
            "exact.parse_s": (self_s("exact.parse"), sec),
            "cli.main_calls": (calls("cli.main"), count),
            "cli.main_s": (self_s("cli.main"), sec),
            "cli.selftest_s": (total_s("cli.selftest"), sec),
            "cli.phase_axioms_s": (total_s("ring.axioms"), sec),
            "cli.phase_involution_s": (total_s("cli.phase_involution"), sec),
            "cli.phase_obstruction_s": (total_s("cli.phase_obstruction"), sec),
            "cli.phase_agreement_s": (total_s("cli.phase_agreement"), sec),
            "cli.agreement_triples": (counter("cli.agreement_triples"), count),
            "cli.obstruction_lines": (counter("cli.obstruction_lines"), count),
            "cli.emit_s": (total_s("cli.render") + total_s("cli.table_to_doc"), sec),
            "cli.emit_bytes": (counter("cli.emit_bytes"), "B"),
            "cli.reparse_s": (total_s("cli.reparse"), sec),
            "cli.rejected": (counter("cli.rejected"), count),
            "trace.overhead_ratio": (overhead_ratio, rat),
        }
        for layer, share in self.layer_shares(op_ns).items():
            out[f"{layer}.self_share"] = (share, rat)
        return out

    def layer_shares(self, op_ns: int) -> dict[str, float]:
        """Each layer's self time as a share of the traced ops' wall time."""
        shares = {layer: 0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            layer = name.split(".", 1)[0]
            if layer in shares:
                shares[layer] += ns
        return {layer: ns / op_ns if op_ns else 0.0 for layer, ns in shares.items()}

    def span_table(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_ns[name] / 1e9,
                "self_s": self.self_ns[name] / 1e9,
            }
            for name in sorted(self.calls)
        }

    def write_spans(self, path) -> None:
        """Write every span as one JSON array per line: id, parent, op, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def _sectors_hook(tracer: Tracer, args, result) -> None:
    vd = args[0]
    tracer.count("quotient.sectors_found", len(result))
    # candidate bound 1 + |A| * sum |w_j|, computed from the datum
    tracer.count("quotient.candidates", 1 + vd.finite_order * sum(abs(w) for w in vd.weights))


def _basis_size_hook(basis, counter: str, exponent: int):
    """Count N**exponent for the ring's basis size N (N**3: the axiom loop bound)."""

    def hook(tracer: Tracer, args, result) -> None:
        tracer.count(counter, len(basis(args[0])) ** exponent)

    return hook


def _cup_hook(tracer: Tracer, args, product) -> None:
    if product is not None:
        tracer.count("ring.cup_nonzero")


def _table_hook(tracer: Tracer, args, table) -> None:
    size = len(table.basis)
    tracer.count("ring.table_products", len(table.products))
    tracer.count("ring.table_pairs", size * (size + 1) // 2)
    tracer.count("ring.pairing_entries", sum(len(row) for row in table.pairing))


def _triple_hook(tracer: Tracer, args, report) -> None:
    if report.value != 0:
        tracer.count("localization.triple_nonzero")


def _main_hook(tracer: Tracer, args, code) -> None:
    if code != 0:
        tracer.count("cli.rejected")


def _phase_hook(counter: str):
    def hook(tracer: Tracer, args, phase) -> None:
        if phase.status == "pass":
            tracer.count(counter, _leading_int(phase.detail))

    return hook
